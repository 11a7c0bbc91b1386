package main

import (
	"fmt"
	"math/rand/v2"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/workload"
)

// spec is one workload: its sizes, how many windows a run of a given
// length measures, and the generator of its inputs.
type spec struct {
	name string
	kind string // "vconn", "hybrid" or "tcp": which sketch stack is built
	n    int

	batch         int     // updates per engine.UpdateBatch call
	loadBatch     int     // updates per bulk-load batch
	windowsPerSec float64 // windows per measured second, sized for a 2-vCPU Xeon
	minWindows    int     // never fewer, so answer_p90_ms has >= 10 samples above it
	segments      int     // window segments; also the number of set-up samples
	ckptReps      int     // checkpoint repetitions after each segment
	restoreReps   int     // restore repetitions after each segment

	gen func(rng *rand.Rand, sp *spec, windows int) *inputs
}

var specs = []*spec{
	{
		name: "vconn-dense", kind: "vconn", n: 64,
		batch: 128, loadBatch: 1024,
		windowsPerSec: 12, minWindows: 120, segments: 6, ckptReps: 3, restoreReps: 4,
		gen: genVConn,
	},
	{
		name: "hybrid-sparse", kind: "hybrid", n: 16384,
		batch: 1024, loadBatch: 1024,
		windowsPerSec: 6, minWindows: 100, segments: 6, ckptReps: 3, restoreReps: 3,
		gen: genHybrid,
	},
	{
		name: "tcp-cluster", kind: "tcp", n: 256,
		batch: 128, loadBatch: 256,
		windowsPerSec: 4, minWindows: 100, segments: 6, ckptReps: 3, restoreReps: 4,
		gen: genTCP,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// query is one oracle call: Connected(u, v) when remove is nil, else
// DisconnectedBy(remove).
type query struct {
	u, v   int
	remove []int
}

type window struct {
	batches [][]graph.WeightedEdge
	queries []query
	want    []bool // exact answer of each query on the true graph after the window
}

// inputs is everything a run feeds the library, generated from the seed
// before any clock starts, with the exact answers alongside.
type inputs struct {
	initial   [][]graph.WeightedEdge // bulk load of the initial graph
	firstQ    query                  // the setup's verified answer
	firstWant bool
	windows   []window
	updates   int // updates per window (the same in every window)
	avgDegree float64
}

// liveSet tracks the true current edge set of a simple graph.
type liveSet struct {
	n     int
	edges map[[2]int]bool
}

func newLiveSet(n int) *liveSet { return &liveSet{n: n, edges: make(map[[2]int]bool)} }

func key(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (l *liveSet) has(u, v int) bool { return l.edges[key(u, v)] }

// components labels the connected components of the live graph.
func (l *liveSet) components() *graphalg.DSU {
	d := graphalg.NewDSU(l.n)
	for e := range l.edges {
		d.Union(e[0], e[1])
	}
	return d
}

func (l *liveSet) graph() *graph.Hypergraph {
	h := graph.NewGraph(l.n)
	for e := range l.edges {
		h.MustAddEdge(graph.Hyperedge{e[0], e[1]}, 1)
	}
	return h
}

// windowUpdates collects one window's updates, applying them to the live
// set as it goes. Callers only insert absent edges and delete edges that
// were live before the window, so any order of the batch is valid.
type windowUpdates struct {
	live *liveSet
	ups  []graph.WeightedEdge
}

func (b *windowUpdates) insert(u, v int) {
	k := key(u, v)
	b.live.edges[k] = true
	b.ups = append(b.ups, graph.WeightedEdge{E: graph.Hyperedge{k[0], k[1]}, W: 1})
}

func (b *windowUpdates) remove(u, v int) {
	k := key(u, v)
	delete(b.live.edges, k)
	b.ups = append(b.ups, graph.WeightedEdge{E: graph.Hyperedge{k[0], k[1]}, W: -1})
}

// split cuts updates into batches of at most size.
func split(ups []graph.WeightedEdge, size int) [][]graph.WeightedEdge {
	var out [][]graph.WeightedEdge
	for len(ups) > 0 {
		k := min(size, len(ups))
		out = append(out, ups[:k:k])
		ups = ups[k:]
	}
	return out
}

// loadInitial turns a graph's edges into shuffled bulk-load batches.
func loadInitial(rng *rand.Rand, h *graph.Hypergraph, size int) [][]graph.WeightedEdge {
	ups := h.WeightedEdges()
	rng.Shuffle(len(ups), func(i, j int) { ups[i], ups[j] = ups[j], ups[i] })
	return split(ups, size)
}

func avgDegree(live *liveSet) float64 { return 2 * float64(len(live.edges)) / float64(live.n) }

// genVConn builds the Theorem 4 workload on n = 64 vertices:
//
//   - a core of 56 vertices: a Harary H_{8,56} backbone plus random churn
//     edges, so every removal set of size <= K = 3 inside the core leaves
//     it connected;
//   - 4 pendants, each joined to exactly 3 core vertices: removing those 3
//     disconnects the graph, which makes "true" DisconnectedBy answers;
//   - 4 flicker vertices, each joined to 4 core vertices. Windows
//     alternate: one cuts a random flicker off (isolating it), the next
//     joins it back. So Connected and DisconnectedBy answers change
//     between windows, and in every other window the whole graph is
//     connected, where a random removal set's "false" answer needs the
//     sketch's H to keep G − S connected.
//
// Random removal sets avoid the pendants' and flickers' neighbours: a set
// holding some but not all of them would ask the sketch to find a single
// specific edge, which Theorem 4 guarantees only at R = 16·K²·ln n
// subgraphs, not at the 48 this workload uses.
func genVConn(rng *rand.Rand, sp *spec, windows int) *inputs {
	const core, pendants, flickers = 56, 4, 4
	const churnLive, churnPerWindow = 512, 128
	n := sp.n
	live := newLiveSet(n)
	backbone := workload.MustHarary(core, 8)
	for _, e := range backbone.Edges() {
		live.edges[key(e[0], e[1])] = true
	}
	protected := make([]bool, n)
	pickNeighbours := func(k int) []int {
		var out []int
		for len(out) < k {
			c := rng.IntN(core)
			if !protected[c] {
				protected[c] = true
				out = append(out, c)
			}
		}
		return out
	}
	var pendNbrs, flickNbrs [][]int
	for p := 0; p < pendants; p++ {
		nb := pickNeighbours(3)
		pendNbrs = append(pendNbrs, nb)
		for _, c := range nb {
			live.edges[key(core+p, c)] = true
		}
	}
	for f := 0; f < flickers; f++ {
		flickNbrs = append(flickNbrs, pickNeighbours(4))
		for _, c := range flickNbrs[f] {
			live.edges[key(core+pendants+f, c)] = true
		}
	}
	off := -1 // the flicker cut off by the previous window, if any
	// Churn edges live only inside the core, so pendant and flicker
	// degrees stay exactly as designed.
	var churn [][2]int
	randomChurn := func() [2]int {
		for {
			u, v := rng.IntN(core), rng.IntN(core)
			if u == v || live.has(u, v) {
				continue
			}
			return key(u, v)
		}
	}
	for len(churn) < churnLive {
		e := randomChurn()
		live.edges[e] = true
		churn = append(churn, e)
	}
	var removable []int // vertices a random removal set may contain
	for v := 0; v < n; v++ {
		if !protected[v] {
			removable = append(removable, v)
		}
	}

	in := &inputs{initial: loadInitial(rng, live.graph(), sp.loadBatch)}
	in.firstQ = query{u: 0, v: core - 1}
	in.firstWant = true
	in.avgDegree = avgDegree(live)
	for w := 0; w < windows; w++ {
		b := &windowUpdates{live: live}
		// Delete churn edges live before the window, then insert new ones.
		rng.Shuffle(len(churn), func(i, j int) { churn[i], churn[j] = churn[j], churn[i] })
		dead := churn[:churnPerWindow]
		churn = churn[churnPerWindow:]
		for _, e := range dead {
			b.remove(e[0], e[1])
		}
		fresh := make([][2]int, 0, churnPerWindow)
		for len(fresh) < churnPerWindow {
			e := randomChurn()
			if containsEdge(dead, e) {
				continue // re-inserting an edge deleted this window would reorder-sensitively cancel
			}
			b.insert(e[0], e[1])
			fresh = append(fresh, e)
		}
		churn = append(churn, fresh...)
		// One flicker vertex toggles per window, so every window carries
		// the same number of updates.
		if off >= 0 {
			for _, c := range flickNbrs[off] {
				b.insert(core+pendants+off, c)
			}
			off = -1
		} else {
			off = rng.IntN(flickers)
			for _, c := range flickNbrs[off] {
				b.remove(core+pendants+off, c)
			}
		}
		rng.Shuffle(len(b.ups), func(i, j int) { b.ups[i], b.ups[j] = b.ups[j], b.ups[i] })

		g := live.graph()
		comp := live.components()
		var qs []query
		var want []bool
		for i := 0; i < 48; i++ {
			if i%3 == 2 {
				var rm []int
				if rng.IntN(4) == 0 {
					rm = append(rm, pendNbrs[rng.IntN(pendants)]...)
				} else {
					k := 1 + rng.IntN(3)
					for len(rm) < k {
						v := removable[rng.IntN(len(removable))]
						if !containsInt(rm, v) {
							rm = append(rm, v)
						}
					}
				}
				set := make(map[int]bool, len(rm))
				for _, v := range rm {
					set[v] = true
				}
				qs = append(qs, query{remove: rm})
				want = append(want, graphalg.DisconnectsQueryMode(g, set, graph.DropIncident))
				continue
			}
			u, v := rng.IntN(n), rng.IntN(n)
			qs = append(qs, query{u: u, v: v})
			want = append(want, comp.Same(u, v))
		}
		in.windows = append(in.windows, window{batches: split(b.ups, sp.batch), queries: qs, want: want})
		in.updates = len(b.ups)
	}
	return in
}

// nontrivial counts the queries whose exact answer needs the sketch's
// decoded subgraph H ⊆ G to keep G's connectivity, by kind: Connected
// answered true, and DisconnectedBy answered false. The other answers
// hold for any H ⊆ G, so they check only that the oracle answers at all.
func nontrivial(in *inputs) (connected, disconnectedBy int) {
	for _, w := range in.windows {
		for i, q := range w.queries {
			switch {
			case q.remove == nil && w.want[i]:
				connected++
			case q.remove != nil && !w.want[i]:
				disconnectedBy++
			}
		}
	}
	return connected, disconnectedBy
}

func containsEdge(es [][2]int, e [2]int) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

func containsInt(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// genChurn is the shared generator of the Connected-only workloads: an
// initial graph, then per window `churn` fresh uniform random edges
// inserted and the previous window's fresh edges deleted, followed by a
// burst of Connected queries.
func genChurn(rng *rand.Rand, sp *spec, windows int, initial *graph.Hypergraph, churn, burst int) *inputs {
	n := sp.n
	live := newLiveSet(n)
	for _, e := range initial.Edges() {
		live.edges[key(e[0], e[1])] = true
	}
	in := &inputs{initial: loadInitial(rng, initial, sp.loadBatch), avgDegree: avgDegree(live)}
	comp := live.components()
	in.firstQ = query{u: rng.IntN(n), v: rng.IntN(n)}
	in.firstWant = comp.Same(in.firstQ.u, in.firstQ.v)
	// Every window asks the same random pairs; the answers differ because
	// the graph does. Sharing the pool keeps the inputs small.
	pool := make([]query, burst)
	for i := range pool {
		pool[i] = query{u: rng.IntN(n), v: rng.IntN(n)}
	}
	var prev [][2]int
	for w := 0; w < windows; w++ {
		b := &windowUpdates{live: live}
		dead := make(map[[2]int]bool, len(prev))
		for _, e := range prev {
			b.remove(e[0], e[1])
			dead[e] = true
		}
		fresh := make([][2]int, 0, churn)
		for len(fresh) < churn {
			u, v := rng.IntN(n), rng.IntN(n)
			if u == v || live.has(u, v) || dead[key(u, v)] {
				continue
			}
			b.insert(u, v)
			fresh = append(fresh, key(u, v))
		}
		prev = fresh
		rng.Shuffle(len(b.ups), func(i, j int) { b.ups[i], b.ups[j] = b.ups[j], b.ups[i] })
		comp := live.components()
		want := make([]bool, burst)
		for i, q := range pool {
			want[i] = comp.Same(q.u, q.v)
		}
		in.windows = append(in.windows, window{batches: split(b.ups, sp.batch), queries: pool, want: want})
		in.updates = len(b.ups)
	}
	return in
}

// genHybrid builds the hybrid workload: a sparse power-law graph (average
// degree ~3) on 16384 vertices whose hubs overflow the exact buffers, then
// 2048 uniform churn insertions and 2048 deletions per window. The base
// graph is a fixed dataset, generated from a constant seed: the
// exact-path decode's cost follows its component structure, and across
// generator seeds the median answer moved by ~10%, which would read as
// run-to-run noise. --seed varies the churn and the queries.
func genHybrid(rng *rand.Rand, sp *spec, windows int) *inputs {
	base := workload.SparsePowerLaw(hashutil.NewRand(1, 0x687962), sp.n, 3, 2.5)
	return genChurn(rng, sp, windows, base, 2048, 8192)
}

// genTCP builds the cluster workload: an Erdős–Rényi graph of average
// degree ~4 on 256 vertices, 256 churn insertions and 256 deletions per
// window in batches of 128.
func genTCP(rng *rand.Rand, sp *spec, windows int) *inputs {
	return genChurn(rng, sp, windows, workload.ErdosRenyi(rng, sp.n, 4.0/float64(sp.n-1)), 256, 8192)
}

// newRand derives the benchmark's input generator from the run seed.
func newRand(seed uint64) *rand.Rand { return hashutil.NewRand(seed, 0x67736265) }
