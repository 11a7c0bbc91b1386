package oracle

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/l0"
	"graphsketch/internal/shardplane"
	"graphsketch/internal/sketch"
)

// startShards runs k in-process shard servers on loopback listeners and
// returns their addresses; the servers close when the test ends.
func startShards(t *testing.T, k int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := shardplane.NewServer(ln)
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr().String())
	}
	return addrs
}

// twinOf reopens proto from its checkpoint frame: an identically
// constructed sketch to ingest serially.
func twinOf(t *testing.T, proto shardplane.Member) Decoder {
	t.Helper()
	var buf bytes.Buffer
	if _, err := proto.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := codec.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return s.(Decoder)
}

// TestForCoordinatorEveryType runs a coordinator oracle over every
// decodable member type and requires it to answer Connected and
// Components exactly like For on a serially built twin. The plane is two
// in-process TCP shards — the transport gsd runs.
func TestForCoordinatorEveryType(t *testing.T) {
	const n, seed = 16, 5
	// Three components plus isolated vertices: a 6-cycle with a chord, a
	// path, and one edge.
	var batch []graph.WeightedEdge
	add := func(u, v int) { batch = append(batch, graph.WeightedEdge{E: graph.MustEdge(u, v), W: 1}) }
	for v := 0; v < 6; v++ {
		add(v, (v+1)%6)
	}
	add(0, 3)
	for v := 6; v < 10; v++ {
		add(v, v+1)
	}
	add(11, 12)

	must := func(m shardplane.Member, err error) shardplane.Member {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	spanning := func() *sketch.SpanningSketch {
		return must(sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: seed})).(*sketch.SpanningSketch)
	}
	skeleton := func() *sketch.SkeletonSketch {
		return must(sketch.NewSkeletonSketch(sketch.SkeletonParams{N: n, K: 2, Seed: seed})).(*sketch.SkeletonSketch)
	}
	members := []struct {
		name  string
		proto shardplane.Member
	}{
		{"spanning", spanning()},
		{"skeleton", skeleton()},
		{"hybrid-spanning", must(hybrid.New(spanning(), 4))},
		{"vertexconn", must(vertexconn.New(vertexconn.Params{N: n, K: 2, Subgraphs: 16, Seed: seed}))},
		{"sparsify", must(sparsify.New(sparsify.Params{N: n, K: 4, Seed: seed}))},
	}
	addrs := startShards(t, 2)
	for _, m := range members {
		t.Run(m.name, func(t *testing.T) {
			tr, err := shardplane.DialTCP(m.proto, addrs, shardplane.TCPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			coord, err := ForCoordinator(tr, m.proto)
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.UpdateBatch(batch); err != nil {
				t.Fatal(err)
			}
			twin := twinOf(t, m.proto)
			if err := twin.UpdateBatch(batch); err != nil {
				t.Fatal(err)
			}
			local := For(twin)

			want, err := local.Components()
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.Components()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("coordinator Components = %d, serial twin %d", got, want)
			}
			if want != n-13+3 {
				t.Fatalf("serial twin Components = %d, want %d", want, n-13+3)
			}
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					w, err := local.Connected(u, v)
					if err != nil {
						t.Fatal(err)
					}
					g, err := coord.Connected(u, v)
					if err != nil {
						t.Fatal(err)
					}
					if g != w {
						t.Fatalf("Connected(%d, %d): coordinator %v, serial twin %v", u, v, g, w)
					}
				}
			}
		})
	}

	// A member with no Decode method is refused at construction.
	proto := must(vertexconn.NewEstimator(vertexconn.EstimatorParams{N: n, KMax: 2, Seed: seed}))
	tr, err := shardplane.DialTCP(proto, addrs, shardplane.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := ForCoordinator(tr, proto); !errors.Is(err, ErrNoDecodeRoute) {
		t.Fatalf("ForCoordinator over an estimator member: got %v, want ErrNoDecodeRoute", err)
	}

	// A vertexconn coordinator caps DisconnectedBy's removal sets at K, as
	// For does on the same sketch.
	vc := must(vertexconn.New(vertexconn.Params{N: n, K: 1, Subgraphs: 8, Seed: seed}))
	vtr, err := shardplane.DialTCP(vc, addrs, shardplane.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer vtr.Close()
	coord, err := ForCoordinator(vtr, vc)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.UpdateBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.DisconnectedBy([]int{0, 1, 2}); !errors.Is(err, ErrRemoveTooLarge) {
		t.Fatalf("K=1 vertexconn coordinator, DisconnectedBy of 3 vertices: got %v, want ErrRemoveTooLarge", err)
	}
}

// withGOMAXPROCS runs f with GOMAXPROCS set to procs, restoring it after.
func withGOMAXPROCS(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestDecodeExhaustedSentinel pins the typed failure contract of an
// exhausted skeleton decode served through For: the oracle's error wraps
// both graphsketch.ErrStaleDecode and sketch.ErrDecodeFailed, so callers
// can tell the operational "sketch exhausted" condition from programmer
// errors. It holds at GOMAXPROCS 1 and 4, the peel's serial and fan-out
// schedules.
func TestDecodeExhaustedSentinel(t *testing.T) {
	// A 32-path with one Boruvka round and minimal samplers cannot decode;
	// try several seeds so at least one fails at each setting.
	tiny := sketch.SpanningConfig{Rounds: 1, Sampler: l0.Config{S: 1, Rows: 1, MaxLevels: 2}}
	h := graph.NewGraph(32)
	for i := 0; i < 31; i++ {
		h.AddSimple(i, i+1)
	}
	for _, procs := range []int{1, 4} {
		fails := 0
		withGOMAXPROCS(procs, func() {
			for trial := 0; trial < 20; trial++ {
				sk := mustSkeleton(sketch.SkeletonParams{N: h.N(), R: h.Domain().R(), K: 2, Spanning: tiny, Seed: uint64(trial)})
				if err := sk.UpdateGraph(h, 1); err != nil {
					t.Fatal(err)
				}
				_, err := For(sk).Connected(0, 31)
				if err == nil {
					continue
				}
				fails++
				if !errors.Is(err, graphsketch.ErrStaleDecode) {
					t.Fatalf("GOMAXPROCS=%d: decode failure lacks graphsketch.ErrStaleDecode: %v", procs, err)
				}
				if !errors.Is(err, sketch.ErrDecodeFailed) {
					t.Fatalf("GOMAXPROCS=%d: decode failure lacks sketch.ErrDecodeFailed: %v", procs, err)
				}
			}
		})
		if fails == 0 {
			t.Fatalf("GOMAXPROCS=%d: undersized skeleton decoded a 32-path in all 20 trials", procs)
		}
	}
}

// mustSkeleton is sketch.NewSkeletonSketch for params the test knows are
// valid.
func mustSkeleton(p sketch.SkeletonParams) *sketch.SkeletonSketch {
	s, err := sketch.NewSkeletonSketch(p)
	if err != nil {
		panic(err)
	}
	return s
}
