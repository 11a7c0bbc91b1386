// Package engine is the parallel ingestion and decode engine for the
// repository's linear sketches. It exploits the one property every sketch
// here shares — linearity over per-vertex state — to make the hot paths run
// on all CPUs while producing bit-identical results to the serial paths.
//
// # The vertex-sharding invariant
//
// Every sketch is vertex-based: vertex v's share (its L0 sampler stacks) is
// written only by updates applied *at* v, and an edge update decomposes into
// independent per-endpoint writes (graphsketch.Sharded). The Engine
// therefore partitions the vertex space [0, n) into contiguous ranges, one
// per worker, and hands **every** worker the **whole** batch: worker w
// applies, for each edge, only the endpoints inside its range
// (UpdateBatchRange). Since the ranges are disjoint, no two workers ever
// write the same sampler and no locks are needed; since each vertex's
// updates are applied by a single worker in batch order, and sampler state
// is a sum of field elements (commutative, exact), the final state equals
// the serial state for the same seed — the equivalence the engine tests
// assert byte-for-byte on checkpoint frames.
//
// State not owned by any single vertex (e.g. a sketch's decoded-result
// cache) is written only by the shard containing vertex 0, so the partition
// performs that write exactly once (see graphsketch.Sharded's contract).
//
// # Decode fan-out
//
// Decoding is read-only on sketch state, so independent decodes run
// concurrently via ForEach (an errgroup-style fan-out without
// cancellation): the R subgraph forests of vertexconn.BuildH, and the k
// layers of a skeleton in DecodeSkeleton — where layer clones are built in
// parallel and each decoded forest is subtracted from all later layers
// concurrently, keeping the sequential peeling semantics (layer i spans
// G − F_1 − … − F_{i−1}) while overlapping the linear-algebra work.
package engine
