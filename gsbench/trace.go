package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"graphsketch/internal/codec"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/engine"
	"graphsketch/internal/field"
	"graphsketch/internal/graph"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/l0"
	"graphsketch/internal/obs"
	"graphsketch/internal/oracle"
	"graphsketch/internal/recovery"
	"graphsketch/internal/shardplane"
	"graphsketch/internal/sketch"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the public function it calls.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 for a window's root span
	Window int              `json:"window"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the traced pass began
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps the traced pass's spans in memory. Shard spans arrive from
// the transport's goroutines, so every access holds mu.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	window int
	batch  int // the open engine.update_batch span: parent of shard spans
	answer int // the open oracle.first_query span: parent of the decode's spans

	st                  *stack // the stack the traced windows drive
	ms                  runtime.MemStats
	alloc0, alloc1      uint64
	allocIngest         uint64
	wire0, wireIngest   int64
	hits0, misses0, rb0 uint64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id (its index + 1).
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Window: t.window, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes span id, attaching counts given as name/value pairs.
func (t *tracer) end(id int, kv ...any) {
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	t.mu.Unlock()
	t.count(id, kv...)
}

// count attaches counts to span id.
func (t *tracer) count(id int, kv ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	for i := 0; i+1 < len(kv); i += 2 {
		if s.Counts == nil {
			s.Counts = map[string]int64{}
		}
		s.Counts[kv[i].(string)] = kv[i+1].(int64)
	}
}

func (t *tracer) beginBatch(root int) int {
	id := t.begin("engine.update_batch", root)
	t.mu.Lock()
	t.batch = id
	t.mu.Unlock()
	return id
}

func (t *tracer) endBatch(id int, updates int) {
	t.end(id, "updates", int64(updates))
	t.mu.Lock()
	t.batch = 0
	t.mu.Unlock()
}

// shard records one shard's busy span inside the open batch; busy time
// outside a batch (a TCP server answering a gather) is not recorded.
func (t *tracer) shard(id int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.batch == 0 {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.batch, Window: t.window, Name: "shardplane.shard",
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
		Counts: map[string]int64{"shard": int64(id)},
	})
}

// wrapDecode times one layer of the oracle's rebuild as a child of the
// open first-query span.
func (t *tracer) wrapDecode(name string, f func() (*graph.Hypergraph, error)) (*graph.Hypergraph, error) {
	id := t.begin(name, t.answer)
	h, err := f()
	t.end(id)
	return h, err
}

func (t *tracer) beginWindow(i int) int {
	t.mu.Lock()
	t.window = i
	t.mu.Unlock()
	runtime.ReadMemStats(&t.ms)
	t.alloc0 = t.ms.TotalAlloc
	if t.st.wire != nil {
		t.wire0 = t.st.wire.total()
	}
	cs := t.st.orc.CacheStats()
	t.hits0, t.misses0, t.rb0 = cs.Hits, cs.Misses, cs.Rebuilds
	return t.begin("window", 0)
}

// beforeAnswer runs between the last batch and the first query, outside
// both timed intervals.
func (t *tracer) beforeAnswer() {
	runtime.ReadMemStats(&t.ms)
	t.allocIngest = t.ms.TotalAlloc - t.alloc0
	t.alloc1 = t.ms.TotalAlloc
	if t.st.wire != nil {
		t.wireIngest = t.st.wire.total() - t.wire0
	}
}

// endAnswer closes the first query's span with the bytes its rebuild
// allocated.
func (t *tracer) endAnswer() {
	t.end(t.answer)
	runtime.ReadMemStats(&t.ms)
	t.count(t.answer, "alloc_bytes", int64(t.ms.TotalAlloc-t.alloc1))
}

// endWindow closes the window span with its counts.
func (t *tracer) endWindow(root int, st *stack, updates int) {
	cs := st.orc.CacheStats()
	t.end(root,
		"updates", int64(updates),
		"alloc_ingest_bytes", int64(t.allocIngest),
		"wire_ingest_bytes", t.wireIngest,
		"cache_hits", int64(cs.Hits-t.hits0),
		"cache_misses", int64(cs.Misses-t.misses0),
		"rebuilds", int64(cs.Rebuilds-t.rb0))
}

// layerMetrics are the per-layer metrics of a traced run, with their
// units. Each applies to every workload; where a layer differs by
// workload (the sketch, the plane) the metric times the workload's own.
var layerMetrics = []struct{ name, unit string }{
	{"engine.route_ms", "ms"},
	{"engine.serial_ups", "1/s"},
	{"shardplane.batch_ms", "ms"},
	{"shardplane.shard_busy_ms", "ms"},
	{"shardplane.shard_skew", "ratio"},
	{"shardplane.dispatch_ms", "ms"},
	{"shardplane.wire_bytes_per_update", "B"},
	{"shardplane.gather_ms", "ms"},
	{"shardplane.gather_bytes", "B"},
	{"sketch.update_ns", "ns"},
	{"sketch.decode_ms", "ms"},
	{"l0.updates_per_edge", "count"},
	{"hybrid.spilled_vertices", "count"},
	{"hybrid.exact_fraction", "ratio"},
	{"l0.update_ns", "ns"},
	{"l0.sample_ns", "ns"},
	{"recovery.ssparse_update_ns", "ns"},
	{"recovery.ssparse_decode_ns", "ns"},
	{"field.mul_ns", "ns"},
	{"hashutil.mix64_ns", "ns"},
	{"oracle.label_ms", "ms"},
	{"oracle.rebuilds_per_window", "count"},
	{"oracle.hit_ratio", "ratio"},
	{"oracle.warm_query_ns", "ns"},
	{"codec.write_ms", "ms"},
	{"codec.open_ms", "ms"},
	{"codec.write_alloc_ratio", "ratio"},
	{"codec.open_alloc_ratio", "ratio"},
	{"runtime.alloc_bytes_per_update", "B"},
	{"runtime.alloc_mb_per_rebuild", "MB"},
	{"trace.overhead_pct", "%"},
	{"trace.answer_gap_pct", "%"},
	{"ladder.rungs_ms", "ms"},
	{"ladder.untraced_ms", "ms"},
	{"ladder.unexplained_pct", "%"},
}

// answerGapPct is how far the traced stack's median answer may drift from
// the plain stack's before the traced run fails. The traced oracle copies
// the adapters' configs (below); if an adapter changes its route and the
// copy does not follow, the answers drift apart and the per-layer decode
// figures stop describing the library's path. Runs on a 2-vCPU Xeon kept
// the gap within ±3%. The check needs gapMinWindows windows: a median over
// a short run's few windows moves by ±20% on its own.
const (
	answerGapPct  = 15
	gapMinWindows = 50
)

// tracedOracle builds the oracle the workload's adapter builds (the same
// sketch, vertex count, decode route and removal cap), with each layer of
// its rebuild wrapped in a span. The decode hook of oracle.Config is the
// library's public seam between the oracle and the decode layers, but the
// adapters keep their Config to themselves, so this is a copy of
// oracle.ForVertexConn, ForHybrid and ForCoordinator: keep it in step
// with them. answerGapPct catches a copy that has fallen behind.
func tracedOracle(st *stack, tr *tracer) (*oracle.Oracle, error) {
	switch s := st.sk.(type) {
	case *vertexconn.Sketch:
		return oracle.New(oracle.Config{Sketch: s, N: st.n, MaxRemove: s.Params().K,
			Decode: func(sp *obs.Span) (*graph.Hypergraph, error) {
				return tr.wrapDecode("vertexconn.build_h", func() (*graph.Hypergraph, error) {
					h, _, err := s.BuildHTraced(sp)
					return h, err
				})
			}})
	case *hybrid.Sketch:
		return oracle.New(oracle.Config{Sketch: s, N: st.n,
			Decode: func(sp *obs.Span) (*graph.Hypergraph, error) {
				return tr.wrapDecode("hybrid.decode", func() (*graph.Hypergraph, error) {
					return engine.DecodeHybridTraced(s, sp)
				})
			}})
	}
	// The coordinator adapter's route: a fresh destination opened from the
	// prototype frame, the shards gathered into it, then its decode. The
	// adapter's own oracle stands in as the wrapped sketch; the benchmark
	// mutates through the engine and only invalidates the oracle.
	return oracle.New(oracle.Config{Sketch: st.orc, N: st.n,
		Decode: func(sp *obs.Span) (*graph.Hypergraph, error) {
			id := tr.begin("codec.open_destination", tr.answer)
			fresh, err := codec.Open(bytes.NewReader(st.proto))
			tr.end(id)
			if err != nil {
				return nil, err
			}
			w0 := st.wire.total()
			id = tr.begin("shardplane.gather", tr.answer)
			err = st.tcp.Gather(fresh)
			tr.end(id, "bytes", st.wire.total()-w0)
			if err != nil {
				return nil, err
			}
			span, ok := fresh.(*sketch.SpanningSketch)
			if !ok {
				return nil, fmt.Errorf("gathered %T, want a spanning sketch", fresh)
			}
			return tr.wrapDecode("sketch.spanning_graph", func() (*graph.Hypergraph, error) {
				return span.SpanningGraphTraced(sp)
			})
		}})
}

// runTraced is the traced run. It builds two stacks over the same inputs,
// one plain and one traced, and feeds them each window in turn, so both
// see the same host conditions: the plain stack's times are the baseline
// for the tracing overhead, the answer gap and the ladder, the traced stack's
// spans give the per-layer metrics.
func runTraced(sp *spec, in *inputs, seed uint64, out string) (*outcome, error) {
	r := &runner{sp: sp, in: in}
	plainSt, _, err := r.setup(0, nil)
	if err != nil {
		return nil, err
	}
	defer plainSt.close()
	tr := newTracer()
	st, _, err := r.setup(0, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	tr.spans = tr.spans[:0] // keep only the windows' spans
	tr.st = st
	var plain, traced windowTimes
	for i := range in.windows {
		r.window(plainSt, i, nil, &plain)
		r.window(st, i, tr, &traced)
	}
	plainSt.close()

	full, err := st.state()
	if err != nil {
		return nil, err
	}
	frame, err := frameOf(full)
	if err != nil {
		return nil, err
	}
	var write, open, writeAlloc, openAlloc []float64
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		t0 := time.Now()
		_, werr := full.WriteTo(io.Discard)
		write = append(write, time.Since(t0).Seconds())
		runtime.ReadMemStats(&ms)
		writeAlloc = append(writeAlloc, float64(ms.TotalAlloc-a0)/float64(len(frame)))
		r.t.check(true, werr, "checkpoint")
		runtime.GC()
		runtime.ReadMemStats(&ms)
		a0 = ms.TotalAlloc
		t0 = time.Now()
		_, oerr := codec.Open(bytes.NewReader(frame))
		open = append(open, time.Since(t0).Seconds())
		runtime.ReadMemStats(&ms)
		openAlloc = append(openAlloc, float64(ms.TotalAlloc-a0)/float64(len(frame)))
		r.t.check(true, oerr, "restore")
	}
	serial, serialTimes, err := r.serialReplay(0)
	r.t.check(bytes.Equal(serial, frame), err, "engine-built state differs from serial replay")

	m := map[string]float64{}
	analyzeSpans(tr.spans, m)
	perWindow := float64(in.updates)
	m["engine.serial_ups"] = perWindow / median(serialTimes)
	edgeFanout(full, in, m)
	m["codec.write_ms"] = 1e3 * median(write)
	m["codec.open_ms"] = 1e3 * median(open)
	m["codec.write_alloc_ratio"] = median(writeAlloc)
	m["codec.open_alloc_ratio"] = median(openAlloc)
	for k, v := range microRungs(sp.n, in.avgDegree) {
		m[k] = v
	}
	untraced := medianSum(plain.ingest, plain.answer)
	m["trace.overhead_pct"] = 100 * (medianSum(traced.ingest, traced.answer)/untraced - 1)
	gap := 100 * (median(traced.answer)/median(plain.answer) - 1)
	m["trace.answer_gap_pct"] = gap
	if len(in.windows) >= gapMinWindows {
		r.t.check(math.Abs(gap) <= answerGapPct, nil,
			fmt.Sprintf("traced answer differs from the adapter's by %+.1f%%; tracedOracle is out of step with the oracle adapters", gap))
	}
	m["ladder.untraced_ms"] = 1e3 * untraced
	m["ladder.unexplained_pct"] = 100 * (1 - m["ladder.rungs_ms"]/(1e3*untraced))
	fmt.Fprintf(os.Stderr, "gsbench: ladder rungs %.3f ms (slowest shard + open destination + gather + decode)"+
		" of untraced ingest+answer %.3f ms: %.1f%% unexplained (dispatch %.3f ms, oracle label %.3f ms)\n",
		m["ladder.rungs_ms"], 1e3*untraced, m["ladder.unexplained_pct"], m["shardplane.dispatch_ms"], m["oracle.label_ms"])

	o := &outcome{t: r.t, metrics: map[string]metric{}, samples: map[string]summary{
		"untraced_ingest_s": summarize(plain.ingest), "untraced_answer_s": summarize(plain.answer),
		"traced_ingest_s": summarize(traced.ingest), "traced_answer_s": summarize(traced.answer),
	}}
	for _, lm := range layerMetrics {
		o.metrics[lm.name] = metric{m[lm.name], lm.unit}
	}
	return o, writeTrace(out, sp, seed, tr.spans, o.metrics)
}

func medianSum(a, b []float64) float64 {
	s := make([]float64, len(a))
	for i := range a {
		s[i] = a[i] + b[i]
	}
	return median(s)
}

// analyzeSpans turns the traced windows' spans into per-layer metrics.
// Self times are taken along the blocking path: a batch's dispatch is its
// span minus its slowest shard, the oracle's own part of an answer is the
// first query's span minus the layers under it. Those two are remainders,
// time no wrapper saw, so the ladder leaves them out: a window's rungs are
// only its measured spans, the slowest shard of each batch and the
// layers under the first query.
func analyzeSpans(spans []span, m map[string]float64) {
	byParent := map[int][]*span{}
	var windows []*span
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 && s.Name == "window" {
			windows = append(windows, s)
		} else {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	dur := func(s *span) float64 { return float64(s.End-s.Start) / 1e9 }
	var route, batch, busyMean, skew, dispatch, rungs []float64
	var decode, gather, gatherBytes, oracleSelf, warm, rebuildAlloc []float64
	var busyTotal, updates, allocIngest, wire, hits, misses, rebuilds float64
	for _, w := range windows {
		var r, disp, rung float64
		busy := map[int64]float64{}
		for _, c := range byParent[w.ID] {
			switch c.Name {
			case "engine.update_batch":
				d := dur(c)
				r += d
				batch = append(batch, d)
				perShard := map[int64]float64{}
				for _, s := range byParent[c.ID] {
					perShard[s.Counts["shard"]] += dur(s)
				}
				maxBusy := 0.0
				for id, b := range perShard {
					busy[id] += b
					busyTotal += b
					maxBusy = max(maxBusy, b)
				}
				disp += d - maxBusy
				rung += maxBusy
			case "oracle.first_query":
				self := dur(c)
				for _, d := range byParent[c.ID] {
					self -= dur(d)
					rung += dur(d)
					switch d.Name {
					case "codec.open_destination":
						// a ladder rung only; codec.open_ms times codec.Open
					case "shardplane.gather":
						gather = append(gather, dur(d))
						gatherBytes = append(gatherBytes, float64(d.Counts["bytes"]))
					default:
						decode = append(decode, dur(d))
					}
				}
				oracleSelf = append(oracleSelf, self)
				rebuildAlloc = append(rebuildAlloc, float64(c.Counts["alloc_bytes"])/1e6)
			case "oracle.warm_burst":
				warm = append(warm, 1e9*dur(c)/float64(c.Counts["queries"]))
			}
		}
		route = append(route, r)
		dispatch = append(dispatch, disp)
		rungs = append(rungs, rung)
		if len(busy) > 0 {
			total, top := 0.0, 0.0
			for _, b := range busy {
				total += b
				top = max(top, b)
			}
			mean := total / float64(len(busy))
			busyMean = append(busyMean, mean)
			skew = append(skew, top/mean)
		}
		updates += float64(w.Counts["updates"])
		allocIngest += float64(w.Counts["alloc_ingest_bytes"])
		wire += float64(w.Counts["wire_ingest_bytes"])
		hits += float64(w.Counts["cache_hits"])
		misses += float64(w.Counts["cache_misses"])
		rebuilds += float64(w.Counts["rebuilds"])
	}
	// ms is the median in milliseconds; a layer absent from this
	// workload's path (no gather on the local plane) contributes 0.
	ms := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return 1e3 * median(xs)
	}
	m["engine.route_ms"] = ms(route)
	m["shardplane.batch_ms"] = ms(batch)
	m["shardplane.shard_busy_ms"] = ms(busyMean)
	m["shardplane.shard_skew"] = median(skew)
	m["shardplane.dispatch_ms"] = ms(dispatch)
	m["shardplane.wire_bytes_per_update"] = wire / updates
	m["sketch.update_ns"] = 1e9 * busyTotal / updates
	m["sketch.decode_ms"] = ms(decode)
	m["oracle.label_ms"] = ms(oracleSelf)
	m["oracle.rebuilds_per_window"] = rebuilds / float64(len(windows))
	m["oracle.hit_ratio"] = hits / (hits + misses)
	m["oracle.warm_query_ns"] = median(warm)
	m["runtime.alloc_bytes_per_update"] = allocIngest / updates
	m["runtime.alloc_mb_per_rebuild"] = median(rebuildAlloc)
	if len(gather) > 0 {
		m["shardplane.gather_ms"] = ms(gather)
		m["shardplane.gather_bytes"] = median(gatherBytes)
	}
	m["ladder.rungs_ms"] = ms(rungs)
}

// edgeFanout counts how many L0 sampler updates one edge update of the
// run's windows causes, and how many endpoint updates land in exact
// buffers instead, from the sketch's public membership and spill state at
// the end of the run. A pure sketch keeps every vertex in sampler form, so
// it reports all n vertices as spilled.
func edgeFanout(full shardplane.Member, in *inputs, m map[string]float64) {
	var samplers, endpoints, exact float64
	for _, w := range in.windows {
		for _, b := range w.batches {
			for _, we := range b {
				u, v := we.E[0], we.E[1]
				endpoints += 2
				switch s := full.(type) {
				case *vertexconn.Sketch:
					rounds := float64(s.WireConfig().Rounds)
					for i := 0; i < s.Subgraphs(); i++ {
						if s.InSubgraph(i, u) && s.InSubgraph(i, v) {
							samplers += 2 * rounds
						}
					}
				case *hybrid.Sketch:
					rounds := float64(s.Inner().(*sketch.SpanningSketch).Rounds())
					for _, x := range []int{u, v} {
						if s.Spilled(x) {
							samplers += rounds
						} else {
							exact++
						}
					}
				case *sketch.SpanningSketch:
					samplers += 2 * float64(s.Rounds())
				}
			}
		}
	}
	m["l0.updates_per_edge"] = 2 * samplers / endpoints
	m["hybrid.exact_fraction"] = exact / endpoints
	m["hybrid.spilled_vertices"] = float64(full.NumVertices())
	if h, ok := full.(*hybrid.Sketch); ok {
		m["hybrid.spilled_vertices"] = float64(h.SpilledCount())
	}
}

var sink uint64 // keeps the micro rungs' results alive

// blocks runs f reps times, each call doing per operations, and returns
// the median nanoseconds per operation.
func blocks(reps, per int, f func(rep int)) float64 {
	var ns []float64
	for b := 0; b < reps; b++ {
		t0 := time.Now()
		f(b)
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(per))
	}
	return median(ns)
}

// microRungs times the bottom layers in blocks on the workload's own
// shapes: the edge-index domain of an n-vertex graph, the default sampler
// configuration, and a sampled support of the workload's average degree.
// Each is the median over blocks of the per-call time.
func microRungs(n int, avgDeg float64) map[string]float64 {
	dom := graph.MustDomain(n, 2).Size()
	rng := newRand(uint64(n))
	idx := make([]uint64, 4096)
	for i := range idx {
		idx[i] = rng.Uint64N(dom)
	}
	sign := func(b int) int64 { return int64(1 - 2*(b%2)) } // +1, -1, ... keeps the support bounded
	out := map[string]float64{}

	s := l0.New(1, dom, l0.Config{})
	out["l0.update_ns"] = blocks(40, len(idx), func(b int) {
		for _, x := range idx {
			s.Update(x, sign(b))
		}
	})
	deg := max(2, int(avgDeg+0.5))
	sampled := l0.New(2, dom, l0.Config{})
	for _, x := range idx[:deg] {
		sampled.Update(x, 1)
	}
	out["l0.sample_ns"] = blocks(40, 256, func(int) {
		for i := 0; i < 256; i++ {
			x, _, _ := sampled.Sample()
			sink += x
		}
	})
	t := recovery.NewSSparse(3, dom, recovery.SSparseConfig{S: 8})
	out["recovery.ssparse_update_ns"] = blocks(40, len(idx), func(b int) {
		for _, x := range idx {
			t.Update(x, sign(b))
		}
	})
	four := recovery.NewSSparse(4, dom, recovery.SSparseConfig{S: 8})
	for _, x := range idx[:4] {
		four.Update(x, 1)
	}
	out["recovery.ssparse_decode_ns"] = blocks(40, 256, func(int) {
		for i := 0; i < 256; i++ {
			vec, _ := four.Decode()
			sink += uint64(len(vec))
		}
	})
	const chain = 1 << 15
	x, y := field.Reduce(rng.Uint64()), field.Reduce(rng.Uint64())
	out["field.mul_ns"] = blocks(40, chain, func(int) {
		for i := 0; i < chain; i++ {
			x = field.Mul(x, y)
		}
	})
	h := rng.Uint64()
	out["hashutil.mix64_ns"] = blocks(40, chain, func(int) {
		for i := 0; i < chain; i++ {
			h = hashutil.Mix64(h)
		}
	})
	sink += uint64(x) + h
	return out
}

// writeTrace writes the traced pass's spans and metrics as JSON.
func writeTrace(path string, sp *spec, seed uint64, spans []span, metrics map[string]metric) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(map[string]any{
		"workload": sp.name, "seed": seed, "host": hostInfo(),
		"per_layer": metrics, "spans": spans,
	})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		fmt.Fprintf(os.Stderr, "gsbench: trace written to %s (%d spans)\n", path, len(spans))
	}
	return werr
}
