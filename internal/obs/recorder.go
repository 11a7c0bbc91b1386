package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder: two lock-light bounded rings holding the most
// recent sampled spans and structured events. Writers claim a slot with
// one atomic add and publish the record with one atomic pointer store;
// readers snapshot by loading every slot, so a scrape never blocks ingest
// and never sees a torn record (it may see a slightly stale mix across
// slots, which is fine for a recorder of recent history). Near the wrap
// boundary two racing writers can publish out of order into the same
// slot; the Seq stamp keeps ordering honest for readers.

// Default ring capacities; see SetFlightRecorderSize.
const (
	DefaultSpanRingSize  = 1024
	DefaultEventRingSize = 512
)

// SpanRecord is the serialized form of a finished sampled Span.
type SpanRecord struct {
	Seq    uint64         `json:"seq"`
	Trace  uint64         `json:"trace"`
	Span   uint64         `json:"span"`
	Parent uint64         `json:"parent,omitempty"` // 0 for roots
	Name   string         `json:"name"`
	Start  time.Time      `json:"start"`
	DurNS  int64          `json:"dur_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Event is a structured moment worth keeping: a decode failure with its
// round/level payload, a hybrid spill, a checkpoint reject, an oracle
// epoch bump. Recorded by RecordEvent.
type Event struct {
	Seq   uint64         `json:"seq"`
	Time  time.Time      `json:"time"`
	Kind  string         `json:"kind"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

type ring[T any] struct {
	slots []atomic.Pointer[T]
	seq   atomic.Uint64
}

func newRing[T any](n int) *ring[T] {
	if n < 1 {
		n = 1
	}
	return &ring[T]{slots: make([]atomic.Pointer[T], n)}
}

// add stamps v with the next sequence number and publishes it. stamp runs
// before the store so readers never observe a zero Seq.
func (r *ring[T]) add(v *T, stamp func(*T, uint64)) {
	s := r.seq.Add(1)
	stamp(v, s)
	r.slots[(s-1)%uint64(len(r.slots))].Store(v)
}

func (r *ring[T]) snapshot() []*T {
	out := make([]*T, 0, len(r.slots))
	for i := range r.slots {
		if v := r.slots[i].Load(); v != nil {
			out = append(out, v)
		}
	}
	return out
}

var (
	spanRing  atomic.Pointer[ring[SpanRecord]]
	eventRing atomic.Pointer[ring[Event]]
)

func init() {
	spanRing.Store(newRing[SpanRecord](DefaultSpanRingSize))
	eventRing.Store(newRing[Event](DefaultEventRingSize))
}

// SetFlightRecorderSize replaces both rings with fresh ones of the given
// capacities (minimum 1 each), discarding current contents. Size for the
// deepest trace you need intact: a skeleton decode emits roughly
// k·(1+rounds·components) spans, so the 1024 default holds a full
// k≈16 decode; events are rarer and 512 covers hours of healthy traffic.
func SetFlightRecorderSize(spans, events int) {
	spanRing.Store(newRing[SpanRecord](spans))
	eventRing.Store(newRing[Event](events))
}

// attrMap folds span or event attributes into a JSON-friendly map. Values
// outside the JSON-native types are rendered with fmt (errors, durations,
// custom types).
func attrMap(attrs []slog.Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		switch v := a.Value.Any().(type) {
		case bool, string, int64, uint64, float64:
			m[a.Key] = v
		default:
			m[a.Key] = fmt.Sprint(v)
		}
	}
	return m
}

func recordSpan(sp *Span, d time.Duration) {
	rec := &SpanRecord{
		Trace:  sp.trace,
		Span:   sp.id,
		Parent: sp.parent,
		Name:   sp.kind.name,
		Start:  sp.start,
		DurNS:  int64(d),
		Attrs:  attrMap(sp.attrs),
	}
	spanRing.Load().add(rec, func(r *SpanRecord, s uint64) { r.Seq = s })
	emitSink(sinkLine{Kind: "span", Span: rec})
}

// RecordEvent appends a structured event to the flight recorder (and the
// JSONL sink, when set). Its attributes are slog.Attr values, as a span's
// are. No-op when collection is disabled.
func RecordEvent(kind string, attrs ...slog.Attr) {
	if !Enabled() {
		return
	}
	ev := &Event{Time: time.Now(), Kind: kind, Attrs: attrMap(attrs)}
	eventRing.Load().add(ev, func(e *Event, s uint64) { e.Seq = s })
	emitSink(sinkLine{Kind: "event", Event: ev})
}

// Spans returns the recorded spans currently in the ring, oldest first.
func Spans() []SpanRecord {
	recs := spanRing.Load().snapshot()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	out := make([]SpanRecord, len(recs))
	for i, r := range recs {
		out[i] = *r
	}
	return out
}

// Events returns the recorded events currently in the ring, oldest first.
func Events() []Event {
	recs := eventRing.Load().snapshot()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	out := make([]Event, len(recs))
	for i, r := range recs {
		out[i] = *r
	}
	return out
}

// Trace is an assembled trace tree: every recorded span sharing one trace
// ID, plus the tree depth computed over parent links (1 = just a root;
// spans whose parents have been evicted from the ring count from their
// oldest surviving ancestor).
type Trace struct {
	Trace uint64       `json:"trace"`
	Depth int          `json:"depth"`
	Spans []SpanRecord `json:"spans"`
}

// Traces groups the span ring into trace trees, most recent trace first.
func Traces() []Trace {
	byTrace := make(map[uint64][]SpanRecord)
	for _, r := range Spans() {
		byTrace[r.Trace] = append(byTrace[r.Trace], r)
	}
	ids := make([]uint64, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
	out := make([]Trace, 0, len(ids))
	for _, id := range ids {
		spans := byTrace[id]
		depthOf := make(map[uint64]int, len(spans))
		parentOf := make(map[uint64]uint64, len(spans))
		for _, s := range spans {
			parentOf[s.Span] = s.Parent
		}
		var walk func(id uint64) int
		walk = func(id uint64) int {
			if d, ok := depthOf[id]; ok {
				return d
			}
			depthOf[id] = 1 // breaks cycles (impossible by construction)
			d := 1
			if p := parentOf[id]; p != 0 {
				if _, known := parentOf[p]; known {
					d = walk(p) + 1
				}
			}
			depthOf[id] = d
			return d
		}
		depth := 0
		for _, s := range spans {
			if d := walk(s.Span); d > depth {
				depth = d
			}
		}
		out = append(out, Trace{Trace: id, Depth: depth, Spans: spans})
	}
	return out
}

// sinkLine is one line of the -trace-out JSONL export.
type sinkLine struct {
	Kind  string      `json:"kind"` // "span" or "event"
	Span  *SpanRecord `json:"span,omitempty"`
	Event *Event      `json:"event,omitempty"`
}

var (
	sinkMu sync.Mutex
	sinkW  io.Writer
	sinkOn atomic.Bool
)

// SetTraceOutput directs sampled spans and events to w as JSON lines
// ({"kind":"span",...} / {"kind":"event",...}), one per record, in
// addition to the in-memory rings. nil turns the sink off. The caller
// owns w's lifetime (flush/close after the workload).
func SetTraceOutput(w io.Writer) {
	sinkMu.Lock()
	sinkW = w
	sinkOn.Store(w != nil)
	sinkMu.Unlock()
}

func emitSink(l sinkLine) {
	if !sinkOn.Load() {
		return
	}
	b, err := json.Marshal(l)
	if err != nil {
		return
	}
	b = append(b, '\n')
	sinkMu.Lock()
	if sinkW != nil {
		_, _ = sinkW.Write(b)
	}
	sinkMu.Unlock()
}
