package graphalg

// FlowNetwork is a directed flow network with integer capacities, solved
// with Dinic's algorithm. It is the engine beneath the s–t edge cuts,
// vertex cuts, and local connectivity computations.
type FlowNetwork struct {
	n     int
	head  []int // adjacency heads, -1 terminated
	next  []int
	to    []int
	cap   []int64
	level []int
	iter  []int
}

// Unbounded is the capacity used for "infinite" arcs. It is large enough
// that no min cut in this repository's networks ever prefers it.
const Unbounded int64 = 1 << 40

// NewFlowNetwork returns an empty network on n nodes.
func NewFlowNetwork(n int) *FlowNetwork {
	h := make([]int, n)
	for i := range h {
		h[i] = -1
	}
	return &FlowNetwork{n: n, head: h}
}

// AddNode appends a fresh node and returns its index.
func (f *FlowNetwork) AddNode() int {
	f.head = append(f.head, -1)
	f.n++
	return f.n - 1
}

// AddArc adds a directed arc u→v with the given capacity (and the implicit
// residual arc v→u with capacity 0). It returns the arc index, from which
// the residual is arc^1.
func (f *FlowNetwork) AddArc(u, v int, c int64) int {
	id := len(f.to)
	f.to = append(f.to, v)
	f.cap = append(f.cap, c)
	f.next = append(f.next, f.head[u])
	f.head[u] = id

	f.to = append(f.to, u)
	f.cap = append(f.cap, 0)
	f.next = append(f.next, f.head[v])
	f.head[v] = id + 1
	return id
}

// N returns the node count.
func (f *FlowNetwork) N() int { return f.n }

func (f *FlowNetwork) bfs(s, t int) bool {
	f.level = make([]int, f.n)
	for i := range f.level {
		f.level[i] = -1
	}
	queue := make([]int, 0, f.n)
	queue = append(queue, s)
	f.level[s] = 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for e := f.head[u]; e != -1; e = f.next[e] {
			if f.cap[e] > 0 && f.level[f.to[e]] == -1 {
				f.level[f.to[e]] = f.level[u] + 1
				queue = append(queue, f.to[e])
			}
		}
	}
	return f.level[t] != -1
}

func (f *FlowNetwork) dfs(u, t int, pushed int64) int64 {
	if u == t {
		return pushed
	}
	for ; f.iter[u] != -1; f.iter[u] = f.next[f.iter[u]] {
		e := f.iter[u]
		v := f.to[e]
		if f.cap[e] <= 0 || f.level[v] != f.level[u]+1 {
			continue
		}
		d := f.dfs(v, t, min64(pushed, f.cap[e]))
		if d > 0 {
			f.cap[e] -= d
			f.cap[e^1] += d
			return d
		}
	}
	return 0
}

// MaxFlow computes the maximum s–t flow, stopping early once the flow
// reaches limit (pass Unbounded for the exact value). The network's
// capacities are consumed; build a fresh network per query.
func (f *FlowNetwork) MaxFlow(s, t int, limit int64) int64 {
	if s == t {
		return Unbounded
	}
	var flow int64
	for flow < limit && f.bfs(s, t) {
		f.iter = append(f.iter[:0], f.head...)
		for {
			d := f.dfs(s, t, limit-flow)
			if d == 0 {
				break
			}
			flow += d
			if flow >= limit {
				break
			}
		}
	}
	return flow
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
