package obs

import (
	"context"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"
)

// logv holds the shared structured logger. The default discards, so
// library code can log unconditionally without spamming binaries that
// never opted in.
var logv atomic.Pointer[slog.Logger]

func init() {
	logv.Store(slog.New(slog.DiscardHandler))
}

// Logger returns the shared package-level logger.
func Logger() *slog.Logger { return logv.Load() }

// SetLogger replaces the shared logger (nil restores the discard default).
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.DiscardHandler)
	}
	logv.Store(l)
}

// slowSpanNanos is the duration above which a finished Span is logged at
// Warn level; see SetSlowSpanThreshold.
var slowSpanNanos atomic.Int64

func init() {
	slowSpanNanos.Store(int64(250 * time.Millisecond))
}

// SetSlowSpanThreshold sets the duration above which finished spans are
// logged as slow (default 250ms). Zero or negative logs every span.
func SetSlowSpanThreshold(d time.Duration) { slowSpanNanos.Store(int64(d)) }

// SpanKind is one traced layer: the span name and the latency histogram
// every span of the kind feeds. A package declares each kind once, as a
// package-level var, and starts spans with StartSpan(kind) or
// parent.Child(kind). The histogram is registered by obs itself, under the
// span name with dots turned to underscores plus "_seconds"
// (vertexconn.build_h → vertexconn_build_h_seconds), so the trace and the
// metric name one layer the same way.
type SpanKind struct {
	name string
	hist atomic.Pointer[Histogram] // nil while disabled
}

// NewSpanKind declares a span kind. Its histogram is bound on every Enable
// (at once when collection is already on) and unbound on Disable, like any
// OnEnable hook's handles.
func NewSpanKind(name, help string) *SpanKind {
	k := &SpanKind{name: name}
	metric := strings.ReplaceAll(name, ".", "_") + "_seconds"
	OnEnable(func(r *Registry) { k.hist.Store(r.Histogram(metric, help, LatencyBuckets())) })
	return k
}

// Span is a node in a trace tree. StartSpan mints a root (one per trace);
// Child hangs descendants off it, so a skeleton decode yields
// decode → layer → spanning_graph → peel_round with causal IDs intact.
// A Span is nil when collection is disabled and every method is a nil-safe
// no-op, so instrumented phases cost one predicted branch when off.
// Attributes are slog.Attr values, which hold an int or a string without
// boxing it, so building them for a nil span allocates nothing.
//
// Roots are sampled per SetTraceSampling; sampledness is inherited by the
// whole tree. Sampled spans are pushed into the flight recorder ring (and
// the JSONL sink, when set) at End. Unsampled spans still feed their
// kind's histogram and the slow-span log, so metrics stay complete even at
// low sampling rates.
type Span struct {
	kind    *SpanKind
	start   time.Time
	trace   uint64 // trace ID; 0 when unsampled
	id      uint64 // span ID within the process; 0 when unsampled
	parent  uint64 // parent span ID; 0 for roots
	sampled bool
	attrs   []slog.Attr
}

var (
	traceIDs   atomic.Uint64
	spanIDs    atomic.Uint64
	sampleTick atomic.Uint64
	// sampleEvery: 1 records every root span's tree (default), N>1 records
	// one tree in N, 0 records none (histograms and slow-span logging keep
	// working).
	sampleEvery atomic.Int64
)

func init() { sampleEvery.Store(1) }

// SetTraceSampling controls which trace trees reach the flight recorder:
// every Nth root span starts a recorded tree. 1 (the default) records all,
// 0 disables recording entirely — the cheapest enabled mode, used by
// benchmarks that want metrics without trace capture. Negative values are
// treated as 0.
func SetTraceSampling(everyN int) {
	if everyN < 0 {
		everyN = 0
	}
	sampleEvery.Store(int64(everyN))
}

// StartSpan begins a root span of kind k, opening a new trace. Returns nil
// (a no-op span) when collection is disabled.
func StartSpan(k *SpanKind) *Span {
	if !Enabled() {
		return nil
	}
	sp := &Span{kind: k, start: time.Now()}
	if n := sampleEvery.Load(); n > 0 && sampleTick.Add(1)%uint64(n) == 0 {
		sp.sampled = true
		sp.trace = traceIDs.Add(1)
		sp.id = spanIDs.Add(1)
	}
	return sp
}

// Child begins a span of kind k under sp, inheriting its trace ID and
// sampledness. On a nil receiver it falls back to StartSpan, so traced
// code paths can accept an optional parent: a nil parent means "be a root"
// when enabled and "stay off" when disabled.
func (sp *Span) Child(k *SpanKind) *Span {
	if sp == nil {
		return StartSpan(k)
	}
	c := &Span{kind: k, start: time.Now(), trace: sp.trace, parent: sp.id, sampled: sp.sampled}
	if c.sampled {
		c.id = spanIDs.Add(1)
	}
	return c
}

// SetAttrs appends attributes to the span, to be emitted at End. Use it
// when attributes are computed mid-span but End is deferred (the spanend
// lint rule requires a same-function deferred End).
func (sp *Span) SetAttrs(attrs ...slog.Attr) {
	if sp != nil {
		sp.attrs = append(sp.attrs, attrs...)
	}
}

// End finishes the span: it records the duration into the kind's
// histogram, logs the span at Warn level when it exceeded the slow-span
// threshold, and — when the trace is sampled — appends a SpanRecord to
// the flight recorder and the JSONL sink. Extra attrs are merged after
// any set with SetAttrs. It returns the duration (0 on a nil span).
func (sp *Span) End(attrs ...slog.Attr) time.Duration {
	if sp == nil {
		return 0
	}
	d := time.Since(sp.start)
	sp.kind.hist.Load().Observe(d.Seconds())
	sp.attrs = append(sp.attrs, attrs...)
	if d >= time.Duration(slowSpanNanos.Load()) {
		args := make([]slog.Attr, 0, 2+len(sp.attrs))
		args = append(args, slog.String("span", sp.kind.name), slog.Duration("duration", d))
		args = append(args, sp.attrs...)
		Logger().LogAttrs(context.Background(), slog.LevelWarn, "slow span", args...)
	}
	if sp.sampled {
		recordSpan(sp, d)
	}
	return d
}
