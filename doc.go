// Package graphsketch is a Go implementation of "Vertex and Hyperedge
// Connectivity in Dynamic Graph Streams" (Guha, McGregor, Tench; PODS
// 2015): linear sketches for vertex connectivity, cut-degenerate hypergraph
// reconstruction, and hypergraph cut sparsification over streams of
// hyperedge insertions and deletions.
//
// This root package declares the interfaces every sketch in the library
// satisfies: Updater (Update / UpdateBatch), Mergeable, Sketch (adds
// Words), Checkpointer (framed checkpoints), and Sharded — the contract
// that lets internal/engine ingest updates through a lock-free
// vertex-sharded worker pool, with results
// byte-identical to serial execution — plus the query-serving side:
// Querier (Connected(u,v) answered from an epoch-cached snapshot in
// O(α(n))) and Oracle (adds vertex-cut DisconnectedBy and the Epoch
// counter), implemented by internal/oracle for the spanning, skeleton,
// hybrid, vertex-connectivity, and sparsifier sketches. Constructors
// across the library follow one convention: a Params struct whose zero fields receive sound defaults,
// returning (*Sketch, error); incompatibilities and decode failures are
// reported via sentinel errors (graphsketch.ErrMergeMismatch,
// graphsketch.ErrStaleDecode, graphsketch.ErrVertexRange,
// sketch.ErrDecodeFailed, sketch.ErrSeedMismatch, sketch.ErrDomainMismatch,
// sketch.ErrConfigMismatch) for errors.Is branching.
//
// The contracts, from narrowest to widest:
//
//	Updater    Update, UpdateBatch            one ±1 update / amortized batch
//	Mergeable  Merge                          add an identically-parameterized sketch
//	Sketch     Updater + Mergeable + Words
//	Sharded    Sketch + NumVertices, UpdateBatchRange   parallel-ingestion contract
//	Checkpointer  Sketch + WriteTo, ReadFrom     framed wire-format checkpoints
//	Querier    Connected                      pairwise reachability, epoch-cached
//	Oracle     Querier + DisconnectedBy, Epoch          vertex-cut queries, staleness
//
// The implementation lives under internal/:
//
//   - internal/core/vertexconn — Section 3: vertex-connectivity query
//     structures (Theorem 4) and estimators (Theorem 8)
//   - internal/core/reconstruct — Section 4: light_k and cut-degenerate
//     reconstruction (Theorem 15) from a (k+1)-skeleton sketch, plus the
//     Becker et al. baseline
//   - internal/core/edgeconn — edge connectivity and a minimum cut read
//     off a decoded k-skeleton (the Theorem 14 corollary)
//   - internal/core/sparsify — Section 5: hypergraph sparsifiers
//     (Theorems 19/20)
//   - internal/sketch — the AGM spanning-graph sketch generalized to
//     hypergraphs (Theorem 13) and k-skeletons (Theorem 14)
//   - internal/oracle — the concurrent query-serving layer: epoch-cached
//     decode, single-flight rebuild, DSU connectivity answers
//   - internal/engine — parallel ingestion (vertex-sharded worker pool)
//   - internal/par — the fan-out the parallel decodes share
//   - internal/l0, internal/recovery, internal/field, internal/hashutil —
//     the sparse-recovery substrate
//   - internal/graph, internal/graphalg — hypergraph types and offline
//     algorithms (flows, cuts, connectivity, strength)
//   - internal/stream, internal/workload, internal/commsim — the dynamic
//     stream model, workload generators, and the simultaneous
//     communication model
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the per-theorem experimental results. The benchmarks
// in bench_test.go regenerate one experiment pipeline per theorem;
// cmd/experiments prints the full tables.
package graphsketch
