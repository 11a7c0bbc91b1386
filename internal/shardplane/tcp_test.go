package shardplane_test

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"net"
	"runtime"
	"testing"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/obs"
	"graphsketch/internal/shardplane"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/testutil/frametest"
)

// testCluster runs in-process shard servers on loopback listeners, with
// kill/restart hooks for the failure drills.
type testCluster struct {
	t     *testing.T
	srvs  []*shardplane.Server
	addrs []string
}

func startCluster(t *testing.T, k int) *testCluster {
	t.Helper()
	c := &testCluster{t: t}
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := shardplane.NewServer(ln)
		go srv.Serve()
		c.srvs = append(c.srvs, srv)
		c.addrs = append(c.addrs, srv.Addr().String())
	}
	return c
}

func (c *testCluster) kill(i int) {
	c.t.Helper()
	if err := c.srvs[i].Close(); err != nil {
		c.t.Fatalf("killing shard %d: %v", i, err)
	}
	c.srvs[i] = nil
}

func (c *testCluster) restart(i int) {
	c.t.Helper()
	ln, err := net.Listen("tcp", c.addrs[i])
	if err != nil {
		c.t.Fatalf("rebinding shard %d on %s: %v", i, c.addrs[i], err)
	}
	c.srvs[i] = shardplane.NewServer(ln)
	go c.srvs[i].Serve()
}

func (c *testCluster) closeAll() {
	for _, s := range c.srvs {
		if s != nil {
			s.Close()
		}
	}
}

// memberKinds builds identically-parameterized members of every sketch
// family the cluster CLI serves, keyed by name.
func memberKinds(t *testing.T, n int) map[string]func(seed uint64) shardplane.Member {
	t.Helper()
	mustMember := func(m shardplane.Member, err error) shardplane.Member {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return map[string]func(seed uint64) shardplane.Member{
		"spanning": func(seed uint64) shardplane.Member {
			return mustMember(sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: seed}))
		},
		"skeleton": func(seed uint64) shardplane.Member {
			return mustMember(sketch.NewSkeletonSketch(sketch.SkeletonParams{N: n, K: 3, Seed: seed}))
		},
		"hybrid": func(seed uint64) shardplane.Member {
			inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return mustMember(hybrid.New(inner, 16))
		},
	}
}

// streamBatches converts a stream into routed batches.
func streamBatches(st stream.Stream, size int) [][]graph.WeightedEdge {
	var out [][]graph.WeightedEdge
	for lo := 0; lo < len(st); lo += size {
		hi := min(lo+size, len(st))
		batch := make([]graph.WeightedEdge, 0, hi-lo)
		for _, u := range st[lo:hi] {
			batch = append(batch, graph.WeightedEdge{E: u.Edge, W: int64(u.Op)})
		}
		out = append(out, batch)
	}
	return out
}

// gatherFresh opens a pristine copy of proto's checkpoint frame and gathers
// the transport into it.
func gatherFresh(t *testing.T, tr *shardplane.TCPTransport, proto shardplane.Member) graphsketch.Sketch {
	t.Helper()
	fresh := openCopy(t, proto)
	if err := tr.Gather(fresh); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// openCopy reconstructs proto from its checkpoint frame, as a shard opens
// the frame its hello carries.
func openCopy(t *testing.T, proto shardplane.Member) shardplane.Member {
	t.Helper()
	var buf bytes.Buffer
	if _, err := proto.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := codec.Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return fresh.(shardplane.Member)
}

// TestThreeWayEquivalence is the plane's central promise: for every sketch
// family the cluster serves, serial ingestion, the local transport, and a
// three-shard TCP loopback cluster all produce byte-identical sketch state.
func TestThreeWayEquivalence(t *testing.T) {
	const n, seed = 48, 7
	st := testStream(t, n, 23)
	batches := streamBatches(st, 64)

	for name, mk := range memberKinds(t, n) {
		t.Run(name, func(t *testing.T) {
			serial := mk(seed)
			for _, b := range batches {
				if err := serial.UpdateBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			want := frametest.Of(t, serial)

			local := mk(seed)
			lt := shardplane.NewLocal(local, shardplane.Options{Shards: 4})
			defer lt.Close()
			for _, b := range batches {
				if err := lt.Route(b); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(frametest.Of(t, local), want) {
				t.Fatal("local transport state differs from serial")
			}

			c := startCluster(t, 3)
			defer c.closeAll()
			proto := mk(seed)
			tr, err := shardplane.DialTCP(proto, c.addrs, shardplane.TCPOptions{CheckpointEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			for _, b := range batches {
				if err := tr.Route(b); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(frametest.Of(t, gatherFresh(t, tr, proto)), want) {
				t.Fatal("TCP cluster state differs from serial")
			}
		})
	}
}

// TestTCPCrossSeedReject pins the fingerprint guard on the gather path: a
// coordinator that gathers into a sketch built under different public
// randomness gets codec.ErrFingerprint, not silently corrupted state.
func TestTCPCrossSeedReject(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	rejects := obs.Default().Counter("shardplane_gather_rejects_total", "")
	before := rejects.Value()

	const n = 24
	st := testStream(t, n, 5)
	c := startCluster(t, 3)
	defer c.closeAll()

	proto := mustSpanning(t, n, 1)
	tr, err := shardplane.DialTCP(proto, c.addrs, shardplane.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, b := range streamBatches(st, 32) {
		if err := tr.Route(b); err != nil {
			t.Fatal(err)
		}
	}
	crossSeed := mustSpanning(t, n, 2)
	if err := tr.Gather(crossSeed); !errors.Is(err, codec.ErrFingerprint) {
		t.Fatalf("cross-seed gather: got %v, want ErrFingerprint", err)
	}
	if got := rejects.Value() - before; got != 1 {
		t.Fatalf("shardplane_gather_rejects_total advanced by %d, want 1", got)
	}
	// The right-seed gather still works on the same transport.
	if got := gatherFresh(t, tr, proto); got == nil {
		t.Fatal("same-seed gather failed after rejection")
	}
}

// TestTCPKillRestore is the kill-and-restore drill: one shard dies
// mid-stream, a fresh server comes back on the same address with no state,
// and the coordinator's reconnect (checkpoint restore + replay) makes the
// final gathered state byte-identical to the serial baseline.
func TestTCPKillRestore(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	reconnects := obs.Default().Counter("shardplane_reconnects_total", "")
	before := reconnects.Value()

	const n, seed = 40, 9
	st := testStream(t, n, 31)
	batches := streamBatches(st, 16)

	serial := mustSpanning(t, n, seed)
	for _, b := range batches {
		if err := serial.UpdateBatch(b); err != nil {
			t.Fatal(err)
		}
	}

	c := startCluster(t, 3)
	defer c.closeAll()
	proto := mustSpanning(t, n, seed)
	// CheckpointEvery 3 exercises restore points that moved past the dial
	// frame before the crash.
	tr, err := shardplane.DialTCP(proto, c.addrs, shardplane.TCPOptions{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	half := len(batches) / 2
	for _, b := range batches[:half] {
		if err := tr.Route(b); err != nil {
			t.Fatal(err)
		}
	}
	c.kill(1)
	c.restart(1)
	for _, b := range batches[half:] {
		if err := tr.Route(b); err != nil {
			t.Fatal(err)
		}
	}
	if !frametest.Equal(t, gatherFresh(t, tr, proto), serial) {
		t.Fatal("state after kill-and-restore differs from serial")
	}
	if got := reconnects.Value() - before; got < 1 {
		t.Fatalf("shardplane_reconnects_total advanced by %d, want >= 1", got)
	}
}

// TestTCPClosedAndDead pins the failure surface: routing on a closed
// transport is ErrClosed, and a cluster that is gone for good (no restart)
// exhausts its retries with an unreachable error.
func TestTCPClosedAndDead(t *testing.T) {
	const n = 16
	c := startCluster(t, 2)
	defer c.closeAll()
	proto := mustSpanning(t, n, 1)
	tr, err := shardplane.DialTCP(proto, c.addrs, shardplane.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batch := []graph.WeightedEdge{{E: graph.MustEdge(0, 1), W: 1}}
	if err := tr.Route(batch); err != nil {
		t.Fatal(err)
	}
	c.kill(0)
	c.kill(1)
	if err := tr.Route(batch); err == nil {
		t.Fatal("routing to a dead cluster succeeded")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Route(batch); err != shardplane.ErrClosed {
		t.Fatalf("Route after Close: got %v, want ErrClosed", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestTCPRestorePointIsShardFrame pins what a pull keeps: the restore point
// is the frame the shard's member itself writes, byte for byte — here a
// member opened from the dial prototype's frame, as the shard opens its
// hello, fed the batches restricted to the shard's vertex range.
func TestTCPRestorePointIsShardFrame(t *testing.T) {
	const n, seed = 48, 7
	batches := streamBatches(testStream(t, n, 11), 32)
	for name, mk := range memberKinds(t, n) {
		t.Run(name, func(t *testing.T) {
			c := startCluster(t, 2)
			defer c.closeAll()
			proto := mk(seed)
			tr, err := shardplane.DialTCP(proto, c.addrs, shardplane.TCPOptions{CheckpointEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			for _, b := range batches {
				if err := tr.Route(b); err != nil {
					t.Fatal(err)
				}
			}
			gatherFresh(t, tr, proto)
			bounds := tr.Bounds()
			for s := 0; s < tr.Shards(); s++ {
				member := openCopy(t, proto)
				for _, b := range batches {
					if err := member.UpdateBatchRange(b, bounds[s], bounds[s+1]); err != nil {
						t.Fatal(err)
					}
				}
				var want bytes.Buffer
				if _, err := member.WriteTo(&want); err != nil {
					t.Fatal(err)
				}
				if got := tr.RestorePoint(s); !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("shard %d restore point (%d bytes) differs from its member's frame (%d bytes)",
						s, len(got), want.Len())
				}
			}
		})
	}
}

// TestTCPKillRestoreAfterGather is the kill-and-restore drill with a Gather
// as the only restore point: periodic pulls are off, so the shard that dies
// is restored from the frame the Gather received and kept, and the replay
// must still land on the serial state.
func TestTCPKillRestoreAfterGather(t *testing.T) {
	const n, seed = 40, 13
	batches := streamBatches(testStream(t, n, 17), 16)
	serial := mustSpanning(t, n, seed)
	for _, b := range batches {
		if err := serial.UpdateBatch(b); err != nil {
			t.Fatal(err)
		}
	}

	c := startCluster(t, 2)
	defer c.closeAll()
	proto := mustSpanning(t, n, seed)
	tr, err := shardplane.DialTCP(proto, c.addrs, shardplane.TCPOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	half := len(batches) / 2
	for _, b := range batches[:half] {
		if err := tr.Route(b); err != nil {
			t.Fatal(err)
		}
	}
	gatherFresh(t, tr, proto)
	for _, b := range batches[half : half+2] {
		if err := tr.Route(b); err != nil {
			t.Fatal(err)
		}
	}
	c.kill(1)
	c.restart(1)
	for _, b := range batches[half+2:] {
		if err := tr.Route(b); err != nil {
			t.Fatal(err)
		}
	}
	if !frametest.Equal(t, gatherFresh(t, tr, proto), serial) {
		t.Fatal("state after a gather, kill and restore differs from serial")
	}
}

// TestTCPGatherAllocation pins the copy-free gather. The bytes allocated,
// shard servers included since they run in this process, are the pull
// read, at most 2× (chunks up to half the frame, then the exact-size
// restore point): the shard streams its frame through a buffer of a few
// hundred KiB instead of building it in memory, ReadFrom reads the pulled
// frame in place and the destination is warm, so merging allocates
// nothing. The measured ratio is about 1.7×.
func TestTCPGatherAllocation(t *testing.T) {
	const n = 128
	c := startCluster(t, 2)
	defer c.closeAll()
	proto := mustSpanning(t, n, 21)
	tr, err := shardplane.DialTCP(proto, c.addrs, shardplane.TCPOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	rng := rand.New(rand.NewPCG(21, 1))
	batch := make([]graph.WeightedEdge, 0, 1024)
	for len(batch) < cap(batch) {
		if u, v := rng.IntN(n), rng.IntN(n); u != v {
			batch = append(batch, graph.WeightedEdge{E: graph.MustEdge(u, v), W: 1})
		}
	}
	if err := tr.Route(batch); err != nil {
		t.Fatal(err)
	}
	dst := gatherFresh(t, tr, proto)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := tr.Gather(dst); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	frames := len(tr.RestorePoint(0)) + len(tr.RestorePoint(1))
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(frames)
	t.Logf("Gather allocated %.2f× its %d gathered frame bytes", ratio, frames)
	if ratio > 2 {
		t.Fatalf("Gather allocated %.2f× its %d gathered frame bytes, want <= 2×", ratio, frames)
	}
}
