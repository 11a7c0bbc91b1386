package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
	"graphsketch/internal/hashutil"
)

// tally counts operations attempted and failed: every update batch, query,
// checkpoint, restore and byte-match check is one operation.
type tally struct {
	attempted, failed int64
	firstErr          string
}

func (t *tally) check(ok bool, err error, what string) {
	t.attempted++
	if err == nil && ok {
		return
	}
	t.failed++
	if t.firstErr == "" {
		if err != nil {
			t.firstErr = fmt.Sprintf("%s: %v", what, err)
		} else {
			t.firstErr = what
		}
	}
}

// windowTimes holds one pass's per-window samples.
type windowTimes struct {
	ingest []float64 // seconds from entering the first UpdateBatch to the last one's return
	answer []float64 // seconds from that return to the first query's return
	qps    []float64 // warm queries per second over the rest of the burst
}

// sketchSeed is the sketch seed of cold start rep; rep 0 builds the stack
// that serves the windows, and the serial replay uses it too. It does not
// depend on the run's seed: the sketch's randomness is configuration, the
// same in every run, and --seed varies only the inputs. (The subgraph
// membership of vconn-dense alone moves ingest cost and frame size by ~5%
// between sketch seeds, which would otherwise read as run-to-run noise.)
func sketchSeed(rep int) uint64 {
	return hashutil.Mix64(uint64(rep) + 0x9e3779b97f4a7c15)
}

// runner drives one workload's inputs through built stacks.
type runner struct {
	sp   *spec
	in   *inputs
	t    tally
	got  []bool  // a burst's answers, reused across windows
	errs []error // and their errors
}

// setup builds a stack and bulk-loads the initial graph through the
// engine, up to the first verified answer. It returns the stack and the
// cold-start time.
func (r *runner) setup(rep int, tr *tracer) (*stack, float64, error) {
	start := time.Now()
	st, err := build(r.sp.kind, r.sp.n, sketchSeed(rep), tr)
	if err != nil {
		return nil, 0, err
	}
	for _, b := range r.in.initial {
		err := st.eng.UpdateBatch(b)
		r.t.check(true, err, "bulk load")
	}
	st.orc.Invalidate()
	got, err := st.ask(r.in.firstQ)
	elapsed := time.Since(start).Seconds()
	r.t.check(got == r.in.firstWant, err, "first answer")
	return st, elapsed, nil
}

// window runs window i through st: its update batches, then its burst of
// queries, whose answers are checked against the exact reference after
// the clocks stop. With a tracer it also records the window's spans.
func (r *runner) window(st *stack, i int, tr *tracer, wt *windowTimes) {
	w := &r.in.windows[i]
	var root int
	if tr != nil {
		root = tr.beginWindow(i)
	}
	t0 := time.Now()
	for _, b := range w.batches {
		var id int
		if tr != nil {
			id = tr.beginBatch(root)
		}
		err := st.eng.UpdateBatch(b)
		if tr != nil {
			tr.endBatch(id, len(b))
		}
		r.t.check(true, err, "update batch")
	}
	t1 := time.Now()
	if tr != nil {
		tr.beforeAnswer()
		t1 = time.Now()
		tr.answer = tr.begin("oracle.first_query", root)
	}
	st.orc.Invalidate()
	first, ferr := st.ask(w.queries[0])
	t2 := time.Now()
	if tr != nil {
		tr.endAnswer()
	}
	var bid int
	if tr != nil {
		bid = tr.begin("oracle.warm_burst", root)
	}
	got := append(r.got[:0], first)
	errs := append(r.errs[:0], ferr)
	t3 := time.Now()
	for _, q := range w.queries[1:] {
		a, err := st.ask(q)
		got = append(got, a)
		errs = append(errs, err)
	}
	t4 := time.Now()
	if tr != nil {
		tr.end(bid, "queries", int64(len(w.queries)-1))
		tr.endWindow(root, st, r.in.updates)
	}
	r.got, r.errs = got, errs
	for j := range got {
		if got[j] == w.want[j] && errs[j] == nil {
			r.t.attempted++
			continue
		}
		r.t.check(false, errs[j], fmt.Sprintf("window %d query %d", i, j))
	}
	wt.ingest = append(wt.ingest, t1.Sub(t0).Seconds())
	wt.answer = append(wt.answer, t2.Sub(t1).Seconds())
	wt.qps = append(wt.qps, float64(len(w.queries)-1)/t4.Sub(t3).Seconds())
}

// checkpoints times full-state checkpoints and cold restores of st. It
// returns the frame and the per-repetition times. With verify it also
// checks that a restored sketch checkpoints back to the same bytes.
func (r *runner) checkpoints(st *stack, verify bool) (frame []byte, write, open []float64, err error) {
	full, err := st.state()
	if err != nil {
		return nil, nil, nil, err
	}
	frame, err = frameOf(full)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < r.sp.ckptReps; i++ {
		runtime.GC()
		t0 := time.Now()
		_, werr := full.WriteTo(io.Discard)
		write = append(write, time.Since(t0).Seconds())
		r.t.check(true, werr, "checkpoint")
	}
	for i := 0; i < r.sp.restoreReps; i++ {
		runtime.GC()
		t0 := time.Now()
		restored, oerr := codec.Open(bytes.NewReader(frame))
		open = append(open, time.Since(t0).Seconds())
		r.t.check(true, oerr, "restore")
		if verify && i == 0 && oerr == nil {
			again, ferr := frameOf(restored.(io.WriterTo))
			r.t.check(bytes.Equal(again, frame), ferr, "restored frame differs")
		}
	}
	return frame, write, open, nil
}

// serialReplay feeds the run's exact update sequence, batch by batch,
// through a fresh sketch's own UpdateBatch, with no engine or transport,
// and returns its checkpoint frame and per-window replay times.
func (r *runner) serialReplay(rep int) ([]byte, []float64, error) {
	s, err := newSketch(r.sp.kind, r.sp.n, sketchSeed(rep))
	if err != nil {
		return nil, nil, err
	}
	for _, b := range r.in.initial {
		if err := s.UpdateBatch(b); err != nil {
			return nil, nil, err
		}
	}
	times := make([]float64, 0, len(r.in.windows))
	for _, w := range r.in.windows {
		t0 := time.Now()
		for _, b := range w.batches {
			if err := s.UpdateBatch(b); err != nil {
				return nil, nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	frame, err := frameOf(s)
	return frame, times, err
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// metric is one printed number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's printed result plus its stamp.
type outcome struct {
	in      *inputs
	metrics map[string]metric
	samples map[string]summary
	t       tally
}

// runUntraced is the measured run: the end-to-end metrics. The windows
// run in segments; between segments the run times one cold start of a
// throwaway stack, and after each it times checkpoints and restores of
// the serving stack's state. Every sample thus spans the whole run, so a
// burst of load on the host touches a few samples of each metric instead
// of all samples of one.
func runUntraced(sp *spec, in *inputs) (*outcome, error) {
	r := &runner{sp: sp, in: in}
	runtime.GC()
	st, took, err := r.setup(0, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	setups := []float64{took}
	var (
		wt          windowTimes
		write, open []float64
		frame       []byte
		heap        float64
	)
	per := (len(in.windows) + sp.segments - 1) / sp.segments
	for seg := 0; seg < sp.segments; seg++ {
		for i := seg * per; i < min((seg+1)*per, len(in.windows)); i++ {
			r.window(st, i, nil, &wt)
		}
		last := seg == sp.segments-1
		if last {
			heap = liveHeapMB()
		} else {
			runtime.GC()
			cold, took, err := r.setup(seg+1, nil)
			if err != nil {
				return nil, err
			}
			cold.close()
			setups = append(setups, took)
		}
		f, w, o, err := r.checkpoints(st, last)
		if err != nil {
			return nil, err
		}
		frame = f
		write = append(write, w...)
		open = append(open, o...)
	}
	full, err := st.state()
	if err != nil {
		return nil, err
	}
	words := stateWords(full)
	full = nil

	serial, _, err := r.serialReplay(0)
	r.t.check(bytes.Equal(serial, frame), err, "engine-built state differs from serial replay")

	p90 := quantile(wt.answer, 0.9)
	o := &outcome{t: r.t, samples: map[string]summary{}}
	o.metrics = map[string]metric{
		"setup_s":                {median(setups), "s"},
		"ingest_ups":             {float64(in.updates) / median(wt.ingest), "1/s"},
		"answer_ms":              {1e3 * median(wt.answer), "ms"},
		"answer_p90_ms":          {1e3 * p90, "ms"},
		"query_ops_s":            {median(wt.qps), "1/s"},
		"checkpoint_ms":          {1e3 * median(write), "ms"},
		"restore_ms":             {1e3 * median(open), "ms"},
		"ckpt_bytes_per_vertex":  {float64(len(frame)) / float64(sp.n), "B"},
		"state_words_per_vertex": {float64(words) / float64(sp.n), "words"},
		"heap_mb":                {heap, "MB"},
	}
	o.samples["setup_s"] = summarize(setups)
	o.samples["ingest_s_per_window"] = summarize(wt.ingest)
	o.samples["answer_s"] = summarize(wt.answer)
	o.samples["query_ops_s"] = summarize(wt.qps)
	o.samples["checkpoint_s"] = summarize(write)
	o.samples["restore_s"] = summarize(open)
	for name, m := range o.metrics {
		if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "gsbench: metric %s is %v\n", name, m.Value)
			o.t.failed++
		}
	}
	return o, nil
}

// updatesOf counts the updates in a list of batches.
func updatesOf(bs [][]graph.WeightedEdge) int {
	n := 0
	for _, b := range bs {
		n += len(b)
	}
	return n
}
