package hybrid_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/obs"
	"graphsketch/internal/oracle"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/testutil/frametest"
	"graphsketch/internal/workload"
)

// pair builds a pure spanning sketch and a hybrid wrapper over an
// identically constructed (same seed) spanning sketch.
func pair(t *testing.T, n, r, budget int, seed uint64) (*sketch.SpanningSketch, *hybrid.Sketch) {
	t.Helper()
	pure, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, R: r, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, R: r, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hybrid.New(inner, budget)
	if err != nil {
		t.Fatal(err)
	}
	return pure, hy
}

func apply(t *testing.T, st stream.Stream, sinks ...stream.Sink) {
	t.Helper()
	for _, s := range sinks {
		if err := stream.Apply(st, s); err != nil {
			t.Fatal(err)
		}
	}
}

// sparseChurnStream builds a dynamic stream with a power-law-ish degree
// skew: most vertices stay far below the budget, a few hubs blow past it,
// and (with churn) every surviving edge has seen insert/delete churn
// nearby. Insert-only variants (churn=false) run the same checks on a
// stream whose net and gross updates agree.
func sparseChurnStream(t *testing.T, n, r, hubs int, seed uint64) (stream.Stream, *graph.Hypergraph) {
	return sparseStream(t, n, r, hubs, true, seed)
}

func sparseStream(t *testing.T, n, r, hubs int, churny bool, seed uint64) (stream.Stream, *graph.Hypergraph) {
	t.Helper()
	rng := hashutil.NewRand(seed, 0x687962)
	final := graph.MustHypergraph(n, r)
	add := func(vs ...int) {
		e, err := graph.NewHyperedge(vs...)
		if err != nil {
			return
		}
		if !final.Has(e) {
			final.MustAddEdge(e, 1)
		}
	}
	// Sparse background: a sprinkling of random edges, average degree ~2.
	for i := 0; i < n; i++ {
		add(rng.IntN(n), rng.IntN(n))
	}
	// Hubs: vertices 0..hubs-1 get enough incident edges to overflow any
	// small budget.
	for h := 0; h < hubs; h++ {
		for i := 0; i < 40; i++ {
			if r > 2 && i%3 == 0 {
				add(h, rng.IntN(n), rng.IntN(n))
			} else {
				add(h, rng.IntN(n))
			}
		}
	}
	churn := graph.MustHypergraph(n, r)
	if churny {
		for i := 0; i < n; i++ {
			u, v := rng.IntN(n), rng.IntN(n)
			e, err := graph.NewHyperedge(u, v)
			if err != nil || final.Has(e) || churn.Has(e) {
				continue
			}
			churn.MustAddEdge(e, 1)
		}
	}
	return stream.WithChurn(final, churn, rng), final
}

func sameComponents(t *testing.T, want, got *graph.Hypergraph, label string) {
	t.Helper()
	dw := graphalg.ComponentsOf(want)
	dg := graphalg.ComponentsOf(got)
	for u := 1; u < want.N(); u++ {
		if dw.Same(0, u) != dg.Same(0, u) {
			t.Fatalf("%s: vertex %d connectivity to 0 differs (want %v)", label, u, dw.Same(0, u))
		}
	}
	if dw.Components() != dg.Components() {
		t.Fatalf("%s: component count %d, want %d", label, dg.Components(), dw.Components())
	}
}

// TestHybridMatchesPure pins the core property: on identical streams the
// hybrid decodes the same connectivity as the pure sketch and as ground
// truth. It also pins the spill invariant made literal: after SpillAll
// the inner state is byte-identical to the pure sketch, on churned streams
// too. Insert/delete pairs that cancel inside an exact buffer never reach
// the inner's samplers, while the pure sketch allocates sampler levels for
// them that end all zero; a level that holds no nonzero cell writes no
// bytes, so the two frames agree.
func TestHybridMatchesPure(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, r   int
		hubs   int
		budget int
		churn  bool
		seed   uint64
	}{
		{"graph-sparse", 96, 2, 0, 32, true, 1},
		{"graph-mixed", 96, 2, 4, 16, true, 2},
		{"hyper-mixed", 64, 3, 3, 16, true, 3},
		{"tiny-budget", 64, 2, 6, 2, true, 4},
		{"graph-insert-only", 96, 2, 4, 16, false, 5},
		{"hyper-insert-only", 64, 3, 3, 16, false, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, final := sparseStream(t, tc.n, tc.r, tc.hubs, tc.churn, tc.seed)
			pure, hy := pair(t, tc.n, tc.r, tc.budget, 42+tc.seed)
			apply(t, st, pure, hy)

			got, err := hy.Decode(nil)
			if err != nil {
				t.Fatal(err)
			}
			sameComponents(t, final, got, "hybrid decode")
			pf, err := pure.Decode(nil)
			if err != nil {
				t.Fatal(err)
			}
			sameComponents(t, final, pf, "pure decode")

			if tc.hubs == 0 && hy.SpilledCount() != 0 {
				t.Fatalf("sparse stream spilled %d vertices", hy.SpilledCount())
			}
			if tc.hubs > 0 && hy.SpilledCount() == 0 {
				t.Fatal("hub stream spilled nothing; the mixed path went untested")
			}

			cp := hy.Clone()
			if err := cp.SpillAll(); err != nil {
				t.Fatal(err)
			}
			if !frametest.Equal(t, cp.Inner(), pure) {
				t.Fatal("SpillAll inner state differs from the pure sketch fed the same stream")
			}
			if f, err := cp.Inner().(*sketch.SpanningSketch).Decode(nil); err != nil {
				t.Fatal(err)
			} else {
				sameComponents(t, final, f, "spilled-clone decode")
			}
			// SpillAll on the clone must not have disturbed the original.
			again, err := hy.Decode(nil)
			if err != nil {
				t.Fatal(err)
			}
			sameComponents(t, final, again, "hybrid decode after clone spill")
		})
	}
}

// TestHybridBudgetBoundary pins the exact overflow semantics: a vertex with
// exactly budget/2 distinct incident edges stays exact; one more spills it.
func TestHybridBudgetBoundary(t *testing.T) {
	const n, budget = 32, 8 // 4 entries
	_, hy := pair(t, n, 2, budget, 7)
	for i := 1; i <= 4; i++ {
		if err := hy.Update(graph.MustEdge(0, i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if hy.Spilled(0) {
		t.Fatal("vertex at exactly the budget spilled")
	}
	if hy.BufferLen(0) != 4 {
		t.Fatalf("BufferLen = %d, want 4", hy.BufferLen(0))
	}
	if err := hy.Update(graph.MustEdge(0, 5), 1); err != nil {
		t.Fatal(err)
	}
	if !hy.Spilled(0) {
		t.Fatal("vertex beyond the budget did not spill")
	}
	if hy.BufferLen(0) != 0 {
		t.Fatal("spilled vertex retained buffered entries")
	}
	// The other endpoints are all still exact (degree 1 each).
	for i := 1; i <= 5; i++ {
		if hy.Spilled(i) {
			t.Fatalf("vertex %d spilled at degree 1", i)
		}
	}
	f, err := hy.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if graphalg.ComponentsOf(f).Components() != n-5 {
		t.Fatalf("components = %d, want %d", graphalg.ComponentsOf(f).Components(), n-5)
	}
}

// TestHybridSpillThenDeleteBelowBudget pins monotone spilling: deleting a
// spilled vertex back below the budget keeps it spilled, and the decode
// stays correct through the sketch path.
func TestHybridSpillThenDeleteBelowBudget(t *testing.T) {
	const n, budget = 32, 8
	pure, hy := pair(t, n, 2, budget, 9)
	var edges []graph.Hyperedge
	for i := 1; i <= 6; i++ {
		edges = append(edges, graph.MustEdge(0, i))
	}
	for _, e := range edges {
		for _, s := range []graphsketch.Updater{pure, hy} {
			if err := s.Update(e, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !hy.Spilled(0) {
		t.Fatal("vertex 0 should have spilled at degree 6 > 4 entries")
	}
	// Delete back down to degree 1.
	for _, e := range edges[1:] {
		for _, s := range []graphsketch.Updater{pure, hy} {
			if err := s.Update(e, -1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !hy.Spilled(0) {
		t.Fatal("spilling must be monotone: deletions un-spilled vertex 0")
	}
	f, err := hy.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	d := graphalg.ComponentsOf(f)
	if !d.Same(0, 1) || d.Same(0, 2) {
		t.Fatal("decode after delete-below-budget is wrong")
	}
	// The spilled state must still be linearly equal to pure: fully
	// spilling a clone decodes the same (single-edge) graph. Byte equality
	// cannot hold here — vertices 2..6 cancelled to empty buffers and never
	// touched the inner, while pure allocated (zero) sampler levels for them.
	cp := hy.Clone()
	if err := cp.SpillAll(); err != nil {
		t.Fatal(err)
	}
	fs, err := cp.Inner().(*sketch.SpanningSketch).Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := graphalg.ComponentsOf(fs)
	if !ds.Same(0, 1) || ds.Same(0, 2) {
		t.Fatal("spilled clone decode diverged from pure after churn")
	}
	pfs, err := pure.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameComponents(t, fs, pfs, "pure vs spilled clone")
}

// TestHybridMerge pins the mixed exact/spilled merge resolution on a
// churny stream (deletes land in the opposite half from their inserts, so
// half-sketch buffers carry negative net weights): the merge decodes the
// whole stream's connectivity and does not mutate its argument.
func TestHybridMerge(t *testing.T) {
	const n, r, budget = 96, 2, 16
	st, final := sparseChurnStream(t, n, r, 4, 11)
	_, whole := pair(t, n, r, budget, 5)
	_, a := pair(t, n, r, budget, 5)
	_, b := pair(t, n, r, budget, 5)
	half := len(st) / 2
	apply(t, st, whole)
	apply(t, st[:half], a)
	apply(t, st[half:], b)

	bFrame := frametest.Of(t, b)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frametest.Of(t, b), bFrame) {
		t.Fatal("Merge mutated its argument")
	}
	f, err := a.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameComponents(t, final, f, "merged decode")
	fw, err := whole.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameComponents(t, final, fw, "whole-stream decode")
}

// TestHybridMergeBytes pins merge on an insert-only stream, where the spill
// invariant is literal: two half-streams with different spill outcomes
// merge into exactly the whole stream's state (spill-normalized byte
// equality against a pure sketch fed the same stream).
func TestHybridMergeBytes(t *testing.T) {
	const n, r, budget = 96, 2, 16
	st, final := sparseStream(t, n, r, 4, false, 11)
	pure, whole := pair(t, n, r, budget, 5)
	_, a := pair(t, n, r, budget, 5)
	_, b := pair(t, n, r, budget, 5)
	half := len(st) / 2
	apply(t, st, pure, whole)
	apply(t, st[:half], a)
	apply(t, st[half:], b)

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	f, err := a.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameComponents(t, final, f, "merged decode")

	for _, hy := range []*hybrid.Sketch{a, whole} {
		cp := hy.Clone()
		if err := cp.SpillAll(); err != nil {
			t.Fatal(err)
		}
		if !frametest.Equal(t, cp.Inner(), pure) {
			t.Fatal("merged inner state differs from the whole-stream sketch")
		}
	}
}

func TestHybridMergeMismatches(t *testing.T) {
	_, a := pair(t, 32, 2, 16, 1)
	_, b := pair(t, 32, 2, 8, 1)
	if err := a.Merge(b); !errors.Is(err, hybrid.ErrBudgetMismatch) {
		t.Fatalf("budget mismatch: got %v", err)
	}
	_, c := pair(t, 32, 2, 16, 2) // different seed
	if err := a.Merge(c); !errors.Is(err, hybrid.ErrInnerMismatch) {
		t.Fatalf("inner mismatch: got %v", err)
	}
	pure, _ := pair(t, 32, 2, 16, 1)
	if err := a.Merge(pure); !errors.Is(err, graphsketch.ErrMergeMismatch) {
		t.Fatalf("type mismatch: got %v", err)
	}
}

// TestHybridEngineParallelSerial pins the Sharded contract: ingesting
// through the parallel engine produces byte-identical state to serial
// ingestion, including the spill decisions.
func TestHybridEngineParallelSerial(t *testing.T) {
	const n, r, budget = 128, 3, 16
	st, final := sparseChurnStream(t, n, r, 5, 13)
	batch := make([]graph.WeightedEdge, len(st))
	for i, u := range st {
		batch[i] = graph.WeightedEdge{E: u.Edge, W: int64(u.Op)}
	}

	_, serial := pair(t, n, r, budget, 21)
	if err := serial.UpdateBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		_, par := pair(t, n, r, budget, 21)
		eng := engine.New(par, engine.Options{Workers: workers})
		if err := eng.UpdateBatch(batch); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		if !frametest.Equal(t, par, serial) {
			t.Fatalf("workers=%d: parallel state differs from serial", workers)
		}
		f, err := par.Decode(nil)
		if err != nil {
			t.Fatal(err)
		}
		sameComponents(t, final, f, "decode after engine ingest")
	}
}

// TestHybridOracle covers the query-serving adapter: warm Connected answers
// against the hybrid-decoded snapshot.
func TestHybridOracle(t *testing.T) {
	const n = 64
	st, final := sparseChurnStream(t, n, 2, 2, 19)
	_, hy := pair(t, n, 2, 16, 23)
	or := oracle.For(hy)
	batch := make([]graph.WeightedEdge, len(st))
	for i, u := range st {
		batch[i] = graph.WeightedEdge{E: u.Edge, W: int64(u.Op)}
	}
	if err := or.UpdateBatch(batch); err != nil {
		t.Fatal(err)
	}
	d := graphalg.ComponentsOf(final)
	for u := 1; u < n; u++ {
		got, err := or.Connected(0, u)
		if err != nil {
			t.Fatal(err)
		}
		if got != d.Same(0, u) {
			t.Fatalf("Connected(0,%d) = %v, want %v", u, got, d.Same(0, u))
		}
	}
}

// TestHybridCheckpointRoundTrip exercises the wire format directly (the
// root conformance harness covers the resume protocol): WriteTo → Open
// reconstructs an equivalent sketch; mismatched budgets are rejected typed.
func TestHybridCheckpointRoundTrip(t *testing.T) {
	const n, budget = 96, 16
	st, final := sparseChurnStream(t, n, 2, 4, 29)
	_, hy := pair(t, n, 2, budget, 31)
	apply(t, st, hy)

	var buf bytes.Buffer
	if _, err := hy.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	opened, err := codec.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	re, ok := opened.(*hybrid.Sketch)
	if !ok {
		t.Fatalf("Open returned %T", opened)
	}
	if re.Budget() != budget || re.SpilledCount() != hy.SpilledCount() {
		t.Fatalf("reopened shape differs: budget %d spilled %d", re.Budget(), re.SpilledCount())
	}
	if !frametest.Equal(t, re, hy) {
		t.Fatal("reopened state differs byte-for-byte")
	}
	f, err := re.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	sameComponents(t, final, f, "reopened decode")

	// A differently-budgeted receiver must reject the frame.
	var buf2 bytes.Buffer
	if _, err := hy.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	_, other := pair(t, n, 2, budget*2, 31)
	if _, err := other.ReadFrom(&buf2); !errors.Is(err, codec.ErrFingerprint) {
		t.Fatalf("cross-budget restore: got %v, want ErrFingerprint", err)
	}
}

// TestHybridStateWords pins the space win the hybrid exists for: on a
// sparse stream the hybrid's state is at least 5x smaller than the pure
// sketch's.
func TestHybridStateWords(t *testing.T) {
	const n = 256
	st, _ := sparseChurnStream(t, n, 2, 0, 37)
	pure, hy := pair(t, n, 2, 16, 41)
	apply(t, st, pure, hy)
	pw := pure.Words() - pure.SharedWords()
	hw := hy.StateWords()
	if hw*5 > pw {
		t.Fatalf("hybrid StateWords %d not 5x below pure %d", hw, pw)
	}
}

// TestHybridUpdateAllocs pins the zero-allocation steady state of the
// exact-buffer update path (binary search + in-place fold, no growth).
func TestHybridUpdateAllocs(t *testing.T) {
	_, hy := pair(t, 64, 2, 16, 43)
	e := graph.MustEdge(3, 7)
	if err := hy.Update(e, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := hy.Update(e, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state buffered Update allocates %v times", allocs)
	}
}

// TestHybridOpenAllocation pins what opening a hybrid checkpoint
// allocates: the inner sketch's arenas and the exact buffers, each
// vertex's share merged from the window codec.Open streams the frame
// through, with no copy of the whole frame or of the inner's part of a
// share. The bound is on the state the open builds (8 bytes a state
// word), since the frame lists only the inner's nonzero cells.
func TestHybridOpenAllocation(t *testing.T) {
	const n, budget = 4096, 32
	_, hy := pair(t, n, 2, budget, 47)
	base := workload.SparsePowerLaw(hashutil.NewRand(1, 0x687962), n, 3, 2.5)
	apply(t, stream.FromGraph(base), hy)
	if hy.SpilledCount() == 0 {
		t.Fatal("no vertex spilled; the frame embeds an empty inner")
	}
	frame := frametest.Of(t, hy)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	opened, err := codec.Open(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !frametest.Equal(t, opened, hy) {
		t.Fatal("reopened state differs")
	}
	state := 8 * opened.(*hybrid.Sketch).StateWords()
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(state)
	t.Logf("Open allocated %.2f× the %d-byte state of its %d-byte frame (%d vertices spilled)", ratio, state, len(frame), hy.SpilledCount())
	if ratio > 1.6 {
		t.Fatalf("Open allocated %.2f× the %d-byte state it built, want <= 1.6×", ratio, state)
	}
}

// TestHybridWriteToAllocsFlat pins the one share traversal's cost: writing
// a checkpoint allocates about as often at n = 16384 as at n = 4096, so
// listing a vertex's parts boxes nothing per vertex. The few more allowed
// are the reused part list growing to the rounds, which follow log n.
func TestHybridWriteToAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		_, hy := pair(t, n, 2, 32, 47)
		apply(t, stream.FromGraph(workload.SparsePowerLaw(hashutil.NewRand(1, 0x687962), n, 3, 2.5)), hy)
		if hy.SpilledCount() == 0 {
			t.Fatal("no vertex spilled")
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := hy.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4096), allocs(16384)
	t.Logf("WriteTo allocates %v times at n = 4096, %v at n = 16384", small, large)
	if large > small+4 {
		t.Fatalf("WriteTo allocates %v times at n = 16384 but %v at n = 4096", large, small)
	}
}

// TestHybridRestoreCountsNoSpills: reopening a checkpoint, and reading it
// into a fresh hybrid, adopts the spilled vertices without counting them
// in hybrid_spills_total.
func TestHybridRestoreCountsNoSpills(t *testing.T) {
	obs.Enable()
	spills := obs.Default().Counter("hybrid_spills_total", "")
	const n = 256
	st, _ := sparseChurnStream(t, n, 2, 4, 53)
	_, hy := pair(t, n, 2, 8, 59)
	apply(t, st, hy)
	if hy.SpilledCount() == 0 {
		t.Fatal("no vertex spilled")
	}
	frame := frametest.Of(t, hy)
	before := spills.Value()
	opened, err := codec.Open(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := pair(t, n, 2, 8, 59)
	if _, err := fresh.ReadFrom(bytes.NewReader(frame)); err != nil {
		t.Fatal(err)
	}
	if d := spills.Value() - before; d != 0 {
		t.Fatalf("restoring %d spilled vertices twice counted %d spills", hy.SpilledCount(), d)
	}
	for _, re := range []graphsketch.Sketch{opened, fresh} {
		if !frametest.Equal(t, re, hy) {
			t.Fatal("restored state differs")
		}
	}
}

// TestHybridRejectsForeignBufferKeys: a checkpoint whose vertex 0 buffers
// a key that does not decode, or the key of an edge without vertex 0, is
// rejected typed by codec.Open and by ReadFrom, which leaves its receiver
// as it was.
func TestHybridRejectsForeignBufferKeys(t *testing.T) {
	const n = 8
	dom := graph.MustDomain(n, 2)
	for _, tc := range []struct {
		name string
		key  uint64
	}{
		{"undecodable", 1}, // below the domain size, but no edge's key
		{"not-incident", dom.MustEncode(graph.MustEdge(2, 3))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, hy := pair(t, n, 2, 8, 61)
			if err := hy.Update(graph.MustEdge(0, 1), 1); err != nil {
				t.Fatal(err)
			}
			h, payload, _, err := codec.DecodeFrame(frametest.Of(t, hy))
			if err != nil {
				t.Fatal(err)
			}
			// Vertex 0's entry (key, weight 1) is the first of the two.
			entry := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil,
				dom.MustEncode(graph.MustEdge(0, 1))), 1)
			i := bytes.Index(payload, entry)
			if i < 0 {
				t.Fatal("buffered entry not found in the frame")
			}
			payload = bytes.Clone(payload)
			binary.LittleEndian.PutUint64(payload[i:], tc.key)
			bad := codec.AppendFrame(nil, h, payload)

			if _, err := codec.Open(bytes.NewReader(bad)); !errors.Is(err, codec.ErrUnknownType) {
				t.Errorf("Open: got %v, want ErrUnknownType", err)
			}
			_, recv := pair(t, n, 2, 8, 61)
			before := frametest.Of(t, recv)
			if _, err := recv.ReadFrom(bytes.NewReader(bad)); !errors.Is(err, codec.ErrUnknownType) {
				t.Errorf("ReadFrom: got %v, want ErrUnknownType", err)
			}
			if !bytes.Equal(frametest.Of(t, recv), before) {
				t.Error("rejected state changed the receiver")
			}
		})
	}
}

// TestHybridRefusesSkeletonInner: a hybrid wraps a spanning sketch only. A
// frame whose params name a skeleton inner — the budget word, the skeleton
// tag, a skeleton's params — and whose state is that skeleton's empty
// shares, each followed by an empty exact part, fails codec.Open with a
// typed decode error, and ReadFrom leaves its receiver as it was.
func TestHybridRefusesSkeletonInner(t *testing.T) {
	const n, budget = 8, 4
	skel, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: n, K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	params := append(codec.AppendUint64s(nil, budget, uint64(codec.TagSkeleton)), frametest.Params(t, frametest.Of(t, skel))...)
	var state []byte
	for v := range n {
		_, share, _, err := codec.DecodeShareFrame(skel.VertexShareFrame(v), codec.TagSkeleton, skel.Fingerprint(), n)
		if err != nil {
			t.Fatal(err)
		}
		state = binary.LittleEndian.AppendUint32(append(state, share...), 0)
	}
	frametest.Refused(t, frametest.Checkpoint(t, codec.TagHybrid, params, state), fuzzHybrid(t))
}
