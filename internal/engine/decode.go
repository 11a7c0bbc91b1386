package engine

import (
	"errors"
	"fmt"
	"runtime"

	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"
)

// ErrDecodeExhausted is the typed sentinel wrapped into every skeleton
// decode failure that is caused by a layer's sketch running out of decode
// budget (sketch.ErrDecodeFailed under the wrap) — the operational "sketch
// exhausted" condition, as opposed to programmer errors such as subtracting
// a forest over a mismatched domain, which are returned unwrapped. The
// query-serving oracle branches on this sentinel to report
// graphsketch.ErrStaleDecode instead of treating the failure as fatal.
var ErrDecodeExhausted = errors.New("engine: skeleton decode exhausted")

// decodeErr wraps a layer decode failure: exhaustion gets the typed
// sentinel, anything else passes through for errors.Is on its own cause.
func decodeErr(layer int, err error) error {
	if errors.Is(err, sketch.ErrDecodeFailed) {
		return fmt.Errorf("%w: layer %d: %w", ErrDecodeExhausted, layer, err)
	}
	return fmt.Errorf("engine: skeleton layer %d: %w", layer, err)
}

// DecodeSkeleton decodes a k-skeleton from sk with the peeling work spread
// over all CPUs, producing exactly the result of sk.Skeleton(): F_i still
// spans G − F_1 − … − F_{i−1}, but the k layer clones are built
// concurrently, and after each forest F_i is decoded it is subtracted from
// all later layers in parallel. The layer decodes themselves remain the
// (inherently sequential) critical path; everything around them overlaps.
func DecodeSkeleton(sk *sketch.SkeletonSketch) (*graph.Hypergraph, error) {
	return decodeSkeletonWorkers(sk, nil, runtime.GOMAXPROCS(0))
}

// DecodeSkeletonTraced is DecodeSkeleton with the decode trace hung under
// parent (nil starts a fresh trace); the oracle passes its rebuild span
// through here so a slow rebuild attributes down to the peel round.
func DecodeSkeletonTraced(sk *sketch.SkeletonSketch, parent *obs.Span) (*graph.Hypergraph, error) {
	return decodeSkeletonWorkers(sk, parent, runtime.GOMAXPROCS(0))
}

// DecodeSkeletonWorkers is DecodeSkeleton with an explicit worker count
// (<= 0 means GOMAXPROCS). Decode-budget exhaustion in any layer is
// reported wrapped in ErrDecodeExhausted (and, transitively,
// sketch.ErrDecodeFailed); other errors indicate misuse and are returned
// without the sentinel.
func DecodeSkeletonWorkers(sk *sketch.SkeletonSketch, workers int) (*graph.Hypergraph, error) {
	return decodeSkeletonWorkers(sk, nil, workers)
}

func decodeSkeletonWorkers(sk *sketch.SkeletonSketch, parent *obs.Span, workers int) (*graph.Hypergraph, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		// No parallelism available: the serial peel clones one layer at a
		// time and keeps a single working set, which is strictly cheaper.
		h, err := sk.SkeletonTraced(parent)
		if err != nil && errors.Is(err, sketch.ErrDecodeFailed) {
			return nil, fmt.Errorf("%w: %w", ErrDecodeExhausted, err)
		}
		return h, err
	}
	sp := parent.Child("engine.decode_skeleton", em.decodeSpan)
	defer sp.End("k", sk.K(), "workers", workers)
	layers := sk.Layers()
	work := make([]*sketch.SpanningSketch, len(layers))
	_ = ForEach(workers, len(layers), func(i int) error {
		work[i] = layers[i].Clone()
		return nil
	})

	dom := sk.Domain()
	skeleton := graph.MustHypergraph(dom.N(), dom.R())
	for i := range work {
		f, err := decodeLayer(sp, i, work[i])
		if err != nil {
			return nil, decodeErr(i, err)
		}
		// Subtract F_i from every later layer so each decodes the graph
		// minus all earlier forests; the subtractions touch disjoint
		// sketches and run concurrently.
		if err := ForEach(workers, len(work)-i-1, func(j int) error {
			return work[i+1+j].UpdateGraph(f, -1)
		}); err != nil {
			return nil, err
		}
		for _, e := range f.Edges() {
			// Forests are edge-disjoint by construction (each layer spans
			// the graph minus all earlier forests).
			skeleton.MustAddEdge(e, 1)
		}
	}
	return skeleton, nil
}

// decodeLayer peels one skeleton layer under its own child span, so the
// trace tree reads decode_skeleton → decode_layer → spanning_graph →
// peel_round.
func decodeLayer(parent *obs.Span, i int, w *sketch.SpanningSketch) (*graph.Hypergraph, error) {
	lsp := parent.Child("engine.decode_layer", nil)
	defer lsp.End("layer", i)
	return w.SpanningGraphTraced(lsp)
}

// DecodeHybrid decodes the certificate of a hybrid-wrapped sketch with all
// CPUs; see DecodeHybridWorkers.
func DecodeHybrid(h *hybrid.Sketch) (*graph.Hypergraph, error) {
	return decodeHybridWorkers(h, nil, runtime.GOMAXPROCS(0))
}

// DecodeHybridTraced is DecodeHybrid with the decode trace hung under
// parent (nil starts a fresh trace).
func DecodeHybridTraced(h *hybrid.Sketch, parent *obs.Span) (*graph.Hypergraph, error) {
	return decodeHybridWorkers(h, parent, runtime.GOMAXPROCS(0))
}

// DecodeHybridWorkers routes a hybrid sketch's decode through the engine's
// parallel machinery where the inner type has one. A spanning inner uses
// the hybrid's own contract-then-sample decode (sampler draws only for
// components holding a spilled vertex — already cheaper than any
// fan-out). A skeleton inner spills a clone and runs the parallel
// peel over it, so Theorem 14 peeling is byte-for-byte the pure path.
// Decode-budget exhaustion is reported wrapped in ErrDecodeExhausted, as
// for DecodeSkeletonWorkers.
func DecodeHybridWorkers(h *hybrid.Sketch, workers int) (*graph.Hypergraph, error) {
	return decodeHybridWorkers(h, nil, workers)
}

func decodeHybridWorkers(h *hybrid.Sketch, parent *obs.Span, workers int) (*graph.Hypergraph, error) {
	switch h.Inner().(type) {
	case *sketch.SpanningSketch:
		g, err := h.SpanningGraphTraced(parent)
		if err != nil && errors.Is(err, sketch.ErrDecodeFailed) {
			return nil, fmt.Errorf("%w: %w", ErrDecodeExhausted, err)
		}
		return g, err
	case *sketch.SkeletonSketch:
		cp, err := h.Clone()
		if err != nil {
			return nil, err
		}
		if err := cp.SpillAll(); err != nil {
			return nil, err
		}
		return decodeSkeletonWorkers(cp.Inner().(*sketch.SkeletonSketch), parent, workers)
	}
	return nil, fmt.Errorf("engine: no hybrid decode for inner type %T", h.Inner())
}
