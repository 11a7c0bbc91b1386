package cli

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/shardplane"
	"graphsketch/internal/stream"
	"graphsketch/internal/testutil/frametest"
)

// TestMain doubles the test binary as the gsd executable: with GSD_HELPER
// set, the process runs RunGSD on its arguments instead of the test suite.
// The cluster tests below exec real shard processes this way — no separate
// build step, and `go test` still owns the lifecycle.
func TestMain(m *testing.M) {
	if os.Getenv("GSD_HELPER") == "1" {
		if err := RunGSD(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "gsd: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnHelperShard launches this test binary as a gsd shard server. An
// empty addr picks an ephemeral port; a concrete addr rebinds it (the
// respawn path of the kill-and-restore drill).
func spawnHelperShard(t *testing.T, addr string) (string, *exec.Cmd) {
	t.Helper()
	t.Setenv("GSD_HELPER", "1")
	if addr == "" {
		bound, cmd, err := spawnShard(os.Args[0], os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		return bound, cmd
	}
	c := exec.Command(os.Args[0], "-serve", "-addr", addr)
	c.Stderr = os.Stderr
	out, err := c.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the listen line before letting the coordinator reconnect.
	buf := make([]byte, 256)
	if _, err := out.Read(buf); err != nil {
		t.Fatal(err)
	}
	return addr, c
}

// gsdStream writes a churny dynamic stream to a temp file and returns its
// path plus the parsed stream.
func gsdStream(t *testing.T, n int) (string, stream.Stream) {
	t.Helper()
	g := graph.MustHypergraph(n, 2)
	for v := 1; v < n; v++ {
		g.MustAddEdge(graph.MustEdge((v-1)/2, v), 1)
	}
	var st stream.Stream
	for _, e := range g.Edges() {
		// Churn: insert a transient chord, the tree edge, then delete the chord.
		if e[1] >= 2 {
			chord := graph.MustEdge(e[1]-2, e[1])
			if !g.Has(chord) {
				st = append(st,
					stream.Update{Op: stream.Insert, Edge: chord},
					stream.Update{Op: stream.Insert, Edge: e},
					stream.Update{Op: stream.Delete, Edge: chord})
				continue
			}
		}
		st = append(st, stream.Update{Op: stream.Insert, Edge: e})
	}
	path := filepath.Join(t.TempDir(), "stream.txt")
	var buf bytes.Buffer
	if err := stream.WriteText(&buf, st); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, st
}

// TestGSDClusterEndToEnd drives the full CLI surface: three real gsd shard
// processes on loopback, a coordinator run with -verify (byte-match against
// the serial baseline) and a -connected query through the oracle.
func TestGSDClusterEndToEnd(t *testing.T) {
	const n = 32
	streamPath, _ := gsdStream(t, n)

	var addrs []string
	for i := 0; i < 3; i++ {
		addr, cmd := spawnHelperShard(t, "")
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		addrs = append(addrs, addr)
	}

	var stdout, stderr bytes.Buffer
	err := RunGSD([]string{
		"-coordinator", "-shards", strings.Join(addrs, ","),
		"-sketch", "spanning", "-n", fmt.Sprint(n), "-seed", "5",
		"-stream", streamPath, "-batch", "8", "-checkpoint-every", "2",
		"-verify", "-connected", "0,31",
	}, nil, &stdout, &stderr)
	if err != nil {
		t.Fatalf("coordinator: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "components: 1") {
		t.Errorf("coordinator did not report one component:\n%s", out)
	}
	if !strings.Contains(out, "verify: OK") {
		t.Errorf("verify did not pass:\n%s", out)
	}
	if !strings.Contains(out, "0 and 31 are connected") {
		t.Errorf("oracle query wrong:\n%s", out)
	}
}

// TestGSDBadPairUpFront checks that a malformed -connected pair fails
// before the coordinator dials a shard or ingests anything: the shard
// address here is unreachable, so only an up-front check names the pair.
func TestGSDBadPairUpFront(t *testing.T) {
	streamPath, _ := gsdStream(t, 32)
	var stdout, stderr bytes.Buffer
	err := RunGSD([]string{
		"-coordinator", "-n", "32", "-shards", "127.0.0.1:1",
		"-stream", streamPath, "-connected", "0,99",
	}, nil, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "bad pair") {
		t.Fatalf("got %v, want a bad pair error", err)
	}
}

// TestGSDKillRestoreDrill is the cluster failure drill with real processes:
// one shard process is SIGKILLed mid-stream, a fresh process rebinds its
// address, and the coordinator's checkpoint-restore + replay must land the
// final state byte-identical to a serial run of the same stream.
func TestGSDKillRestoreDrill(t *testing.T) {
	const n, seed = 32, 5
	_, st := gsdStream(t, n)
	batches := streamBatchesCLI(st, 8)

	var addrs []string
	var procs []*exec.Cmd
	for i := 0; i < 3; i++ {
		addr, cmd := spawnHelperShard(t, "")
		procs = append(procs, cmd)
		addrs = append(addrs, addr)
	}
	t.Cleanup(func() {
		for _, c := range procs {
			c.Process.Kill()
			c.Wait()
		}
	})

	proto, err := clusterProto("spanning", n, 0, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := shardplane.DialTCP(proto, addrs, shardplane.TCPOptions{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewWithTransport(tr)
	defer eng.Close()

	half := len(batches) / 2
	for _, b := range batches[:half] {
		if err := tr.Route(b); err != nil {
			t.Fatal(err)
		}
	}
	// Kill shard 1 the hard way and bring a stateless replacement up on the
	// same address.
	procs[1].Process.Kill()
	procs[1].Wait()
	_, procs[1] = spawnHelperShard(t, addrs[1])
	for _, b := range batches[half:] {
		if err := tr.Route(b); err != nil {
			t.Fatal(err)
		}
	}

	gathered, err := freshFrom(proto)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Gather(gathered); err != nil {
		t.Fatal(err)
	}
	serial, err := freshFrom(proto)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(st, serial); err != nil {
		t.Fatal(err)
	}
	if !frametest.Equal(t, gathered, serial) {
		t.Fatal("state after process kill-and-restore differs from serial baseline")
	}
}

// TestGenstreamLoadgen exercises the genstream -shards loadgen mode against
// helper-process shards end to end.
func TestGenstreamLoadgen(t *testing.T) {
	t.Setenv("GSD_HELPER", "1")
	var stdout, stderr bytes.Buffer
	err := RunGenstream([]string{
		"-family", "er", "-n", "24", "-p", "0.2", "-churn", "0.4", "-seed", "3",
		"-shards", "3", "-gsd", os.Args[0],
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("loadgen: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "verify: OK") {
		t.Errorf("loadgen verify did not pass:\n%s\nstderr: %s", out, stderr.String())
	}
	if !strings.Contains(out, "3 TCP shards match the serial decode") {
		t.Errorf("loadgen summary missing:\n%s", out)
	}
}

// streamBatchesCLI converts a stream into routed batches (test helper; the
// shardplane tests have their own copy in their package).
func streamBatchesCLI(st stream.Stream, size int) [][]graph.WeightedEdge {
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
