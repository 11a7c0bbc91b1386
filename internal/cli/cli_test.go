package cli

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// streamText renders a workload graph as a stream file body.
func streamText(t *testing.T, g interface {
	EdgeCount() int
}, st stream.Stream) string {
	t.Helper()
	var buf bytes.Buffer
	if err := stream.WriteText(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRunVconnQueryAndEstimate(t *testing.T) {
	// H_{4,16} is 4-vertex-connected: no 2-set disconnects it.
	h := workload.MustHarary(16, 4)
	in := streamText(t, h, stream.FromGraph(h))

	var out, errOut bytes.Buffer
	err := RunVconn([]string{"-n", "16", "-k", "2", "-subgraphs", "128", "-estimate", "-query", "3,7"},
		strings.NewReader(in), &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "leaves the graph connected") {
		t.Fatalf("query output: %q", got)
	}
	if !strings.Contains(got, "vertex connectivity >= 2") {
		t.Fatalf("estimate output: %q", got)
	}
	if !strings.Contains(errOut.String(), "stream: 32 updates") {
		t.Fatalf("stderr: %q", errOut.String())
	}
}

func TestRunVconnDetectsSeparator(t *testing.T) {
	sc, err := workload.SharedCliques(6, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := streamText(t, sc, stream.FromGraph(sc))
	var out, errOut bytes.Buffer
	if err := RunVconn([]string{"-n", "10", "-k", "2", "-subgraphs", "96", "-query", "0,1"},
		strings.NewReader(in), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "DISCONNECTS") {
		t.Fatalf("separator not detected: %q", out.String())
	}
}

func TestRunVconnValidation(t *testing.T) {
	if err := RunVconn([]string{"-n", "1", "-query", "0"}, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("n=1 accepted")
	}
	if err := RunVconn([]string{"-n", "8"}, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("no action accepted")
	}
	if err := RunVconn([]string{"-n", "8", "-query", "99"}, strings.NewReader("+ 0 1\n"), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("out-of-range query vertex accepted")
	}
}

func TestRunVconnCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "vconn.ckpt")

	// First half: a path 0-1-2, snapshotted as a framed checkpoint.
	var out, errOut bytes.Buffer
	if err := RunVconn([]string{"-n", "6", "-k", "1", "-subgraphs", "24", "-checkpoint", ck},
		strings.NewReader("+ 0 1\n+ 1 2\n"), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "framed bytes written") {
		t.Fatalf("stderr: %q", errOut.String())
	}
	// Second half restores from the frame alone (no -subgraphs needed) and
	// extends to 0-1-2-3; vertex 1 is a cut vertex. The leading delete of a
	// pre-checkpoint edge (an "orphan" from this half's point of view) must
	// not trip the stats materialization — resumed suffixes do this.
	out.Reset()
	errOut.Reset()
	if err := RunVconn([]string{"-n", "6", "-k", "1", "-restore", ck, "-query", "1"},
		strings.NewReader("- 0 1\n+ 0 1\n+ 2 3\n"), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "DISCONNECTS") {
		t.Fatalf("resumed query wrong: %q", out.String())
	}
}

func TestRunEconnCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "econn.ckpt")
	h := workload.Cycle(12)
	st := stream.FromGraph(h)
	first := streamText(t, h, st[:6])
	second := streamText(t, h, st[6:])

	var out, errOut bytes.Buffer
	if err := RunEconn([]string{"-n", "12", "-k", "4", "-checkpoint", ck},
		strings.NewReader(first), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := RunEconn([]string{"-n", "12", "-k", "4", "-restore", ck},
		strings.NewReader(second), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "edge connectivity = 2") {
		t.Fatalf("resumed λ(C12) output: %q", out.String())
	}
}

// TestRunEconnRestoreReadsFrame: a restored checkpoint fixes n and k, not
// the construction flags. K₁₂ checkpointed at k = 2 and restored without
// -k (whose default is 4) reports λ >= 2, the 2-skeleton's cap, where
// comparing against the flag's k reported "edge connectivity = 2" with
// an empty witness side; and a pair is checked against the frame's 12
// vertices, not -n.
func TestRunEconnRestoreReadsFrame(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ec2.ckpt")
	h := workload.Complete(12)
	st := stream.FromGraph(h)
	half := len(st) / 2
	var out, errOut bytes.Buffer
	if err := RunEconn([]string{"-n", "12", "-k", "2", "-checkpoint", ck},
		strings.NewReader(streamText(t, h, st[:half])), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	second := streamText(t, h, st[half:])
	out.Reset()
	if err := RunEconn([]string{"-n", "12", "-restore", ck},
		strings.NewReader(second), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "edge connectivity >= 2") {
		t.Fatalf("restored λ(K12) at k = 2 output: %q", out.String())
	}
	out.Reset()
	if err := RunEconn([]string{"-n", "5", "-restore", ck, "-connected", "10,11"},
		strings.NewReader(second), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "10 and 11 are connected") {
		t.Fatalf("restored connected output: %q", out.String())
	}
	// A 1-skeleton has no k >= 1 to reconstruct at.
	ck1 := filepath.Join(dir, "ec1.ckpt")
	if err := RunEconn([]string{"-n", "12", "-k", "1", "-checkpoint", ck1},
		strings.NewReader(second), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	err := RunReconstruct([]string{"-restore", ck1}, strings.NewReader(second), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "1-skeleton") {
		t.Fatalf("reconstruct restore of a 1-skeleton: got %v", err)
	}
}

func TestRunSparsifyCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "sparsify.ckpt")
	h := workload.Cycle(10)
	st := stream.FromGraph(h)
	first := streamText(t, h, st[:5])
	second := streamText(t, h, st[5:])

	var out, errOut bytes.Buffer
	if err := RunSparsify([]string{"-n", "10", "-K", "4", "-checkpoint", ck},
		strings.NewReader(first), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := RunSparsify([]string{"-n", "10", "-K", "4", "-restore", ck},
		strings.NewReader(second), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != 10 {
		t.Fatalf("resumed sparsifier lines = %d, want 10", len(lines))
	}
}

func TestRunReconstructCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "reconstruct.ckpt")
	g := workload.PaperExample()
	st := stream.FromGraph(g)
	half := len(st) / 2
	first := streamText(t, g, st[:half])
	second := streamText(t, g, st[half:])

	var out, errOut bytes.Buffer
	if err := RunReconstruct([]string{"-n", "8", "-k", "2", "-checkpoint", ck},
		strings.NewReader(first), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := RunReconstruct([]string{"-n", "8", "-k", "2", "-restore", ck},
		strings.NewReader(second), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); len(lines) != g.EdgeCount() {
		t.Fatalf("resumed reconstruct recovered %d edges, want %d", len(lines), g.EdgeCount())
	}
}

func TestRestoreRejectsWrongToolAndGarbage(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "vconn.ckpt")
	var out, errOut bytes.Buffer
	if err := RunVconn([]string{"-n", "6", "-k", "1", "-subgraphs", "24", "-checkpoint", ck},
		strings.NewReader("+ 0 1\n"), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	// A vconn checkpoint opened by econn is a type mismatch, not a merge.
	err := RunEconn([]string{"-n", "6", "-restore", ck}, strings.NewReader(""), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "this tool wants") {
		t.Fatalf("cross-tool restore: got %v", err)
	}
	// Garbage bytes are refused with the typed magic error.
	bad := filepath.Join(dir, "garbage.bin")
	if err := os.WriteFile(bad, []byte("this is not a codec frame, just prose long enough for a header"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = RunVconn([]string{"-n", "6", "-restore", bad, "-estimate"}, strings.NewReader(""), &out, &errOut)
	if !errors.Is(err, codec.ErrBadMagic) {
		t.Fatalf("garbage restore: got %v, want codec.ErrBadMagic", err)
	}
}

func TestRunSparsifyOutputsWeightedEdges(t *testing.T) {
	h := workload.Cycle(10)
	in := streamText(t, h, stream.FromGraph(h))
	var out, errOut bytes.Buffer
	if err := RunSparsify([]string{"-n", "10", "-K", "4"},
		strings.NewReader(in), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("sparsifier lines = %d, want 10 (cycle is light at K=4)", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "1 ") {
			t.Fatalf("expected unit weights, got %q", l)
		}
	}
}

func TestRunReconstructPaperExample(t *testing.T) {
	g := workload.PaperExample()
	in := streamText(t, g, stream.FromGraph(g))
	var out, errOut bytes.Buffer
	if err := RunReconstruct([]string{"-n", "8", "-k", "2"},
		strings.NewReader(in), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != g.EdgeCount() {
		t.Fatalf("recovered %d edges, want %d", len(lines), g.EdgeCount())
	}
}

func TestRunReconstructRejectsNonDegenerate(t *testing.T) {
	g := workload.Complete(6)
	in := streamText(t, g, stream.FromGraph(g))
	var out, errOut bytes.Buffer
	err := RunReconstruct([]string{"-n", "6", "-k", "2"}, strings.NewReader(in), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "not 2-cut-degenerate") {
		t.Fatalf("want not-cut-degenerate error, got %v", err)
	}
	// -light succeeds and prints the (empty) light set.
	out.Reset()
	if err := RunReconstruct([]string{"-n", "6", "-k", "2", "-light"},
		strings.NewReader(in), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "" {
		t.Fatalf("light_2(K6) should be empty, got %q", out.String())
	}
}

func TestRunEconnGlobalAndST(t *testing.T) {
	h := workload.Cycle(12)
	in := streamText(t, h, stream.FromGraph(h))
	var out, errOut bytes.Buffer
	if err := RunEconn([]string{"-n", "12", "-k", "4"},
		strings.NewReader(in), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "edge connectivity = 2") {
		t.Fatalf("λ(C12) output: %q", out.String())
	}
	out.Reset()
	if err := RunEconn([]string{"-n", "12", "-k", "4", "-st", "0,6"},
		strings.NewReader(in), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "= 2") {
		t.Fatalf("s-t cut output: %q", out.String())
	}
}

func TestRunEconnBadArgs(t *testing.T) {
	if err := RunEconn([]string{"-n", "0"}, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("n=0 accepted")
	}
	if err := RunEconn([]string{"-n", "8", "-st", "1"}, strings.NewReader("+ 0 1\n"), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("malformed -st accepted")
	}
}

// TestRunEconnSTPair: -st takes two distinct vertices. A pair that is
// one vertex, or one vertex twice, is refused with an error naming it
// before the stream is read (the stream file here does not exist), and a
// valid pair prints λ.
func TestRunEconnSTPair(t *testing.T) {
	for _, bad := range []string{"3", "3,3"} {
		err := RunEconn([]string{"-n", "24", "-k", "6", "-st", bad, "-stream", "/nonexistent/file"},
			strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Errorf("-st %s: got %v, want an error naming %q", bad, err, bad)
		}
	}
	h := workload.Cycle(12)
	var out bytes.Buffer
	if err := RunEconn([]string{"-n", "12", "-k", "4", "-st", "0, 6"},
		strings.NewReader(streamText(t, h, stream.FromGraph(h))), &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "λ(0, 6) = 2\n" {
		t.Fatalf("-st 0, 6 printed %q", got)
	}
}

func TestMissingStreamFile(t *testing.T) {
	err := RunEconn([]string{"-n", "8", "-stream", "/nonexistent/file"},
		strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil {
		t.Error("missing file accepted")
	}
}

func TestProfileFlag(t *testing.T) {
	h := workload.Cycle(12)
	in := streamText(t, h, stream.FromGraph(h))
	for _, prof := range []string{"lean", "balanced"} {
		var out, errOut bytes.Buffer
		if err := RunVconn([]string{"-n", "12", "-k", "2", "-profile", prof, "-estimate"},
			strings.NewReader(in), &out, &errOut); err != nil {
			t.Fatalf("%s: %v", prof, err)
		}
		if !strings.Contains(out.String(), "vertex connectivity >= 2") {
			t.Fatalf("%s estimate: %q", prof, out.String())
		}
	}
	var out, errOut bytes.Buffer
	if err := RunVconn([]string{"-n", "12", "-k", "2", "-profile", "bogus", "-estimate"},
		strings.NewReader(in), &out, &errOut); err == nil {
		t.Fatal("bogus profile accepted")
	}
}

func TestRunGenstreamFamilies(t *testing.T) {
	for _, fam := range []string{"er", "harary", "cliques", "uniform", "planted",
		"hypercomm", "chunglu", "ba", "grid", "cycle", "complete", "paper", "sparse"} {
		var out, errOut bytes.Buffer
		args := []string{"-family", fam, "-n", "12", "-k", "2", "-m", "20"}
		if err := RunGenstream(args, &out, &errOut); err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		// The output (minus the comment) must parse as a valid stream.
		st, err := stream.ReadText(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("%s: output does not parse: %v", fam, err)
		}
		if len(st) == 0 {
			t.Fatalf("%s: empty stream", fam)
		}
	}
}

func TestRunGenstreamChurnMaterializes(t *testing.T) {
	for _, extra := range [][]string{{}, {"-window"}} {
		var out, errOut bytes.Buffer
		args := append([]string{"-family", "cycle", "-n", "10", "-churn", "1.5"}, extra...)
		if err := RunGenstream(args, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		st, err := stream.ReadText(strings.NewReader(out.String()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := stream.Materialize(st, 10, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got.EdgeCount() != 10 {
			t.Fatalf("churned stream materializes to %d edges, want 10 (%v)", got.EdgeCount(), extra)
		}
		stats, _ := stream.Summarize(st, 10, 2)
		if stats.Deletes == 0 {
			t.Fatalf("churn produced no deletes (%v)", extra)
		}
	}
}

func TestRunGenstreamInputFile(t *testing.T) {
	// An on-disk edge list replaces the synthetic family; churn still applies.
	path := filepath.Join(t.TempDir(), "edges.txt")
	body := "# toy dataset\n% konect header\n0 1\n1 2\n2 3\n3 0\n1 1\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := RunGenstream([]string{"-input", path, "-churn", "1"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	st, err := stream.ReadText(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.Materialize(st, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.EdgeCount() != 4 {
		t.Fatalf("materialized %d edges, want the file's 4 (self-loop dropped)", got.EdgeCount())
	}
	stats, _ := stream.Summarize(st, 4, 2)
	if stats.Deletes == 0 {
		t.Fatal("churn over a file-loaded graph produced no deletes")
	}
	if err := RunGenstream([]string{"-input", filepath.Join(t.TempDir(), "absent")}, &out, &errOut); err == nil {
		t.Fatal("missing input file accepted")
	}
}

func TestRunGenstreamUnknownFamily(t *testing.T) {
	if err := RunGenstream([]string{"-family", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestRunVconnConnectedPair(t *testing.T) {
	// Two disjoint triangles: {0,1,2} and {3,4,5}.
	in := "+ 0 1\n+ 1 2\n+ 0 2\n+ 3 4\n+ 4 5\n+ 3 5\n"
	var out, errOut bytes.Buffer
	err := RunVconn([]string{"-n", "6", "-k", "1", "-subgraphs", "64", "-connected", "0,2", "-query", "1"},
		strings.NewReader(in), &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 and 2 are connected") {
		t.Fatalf("connected output: %q", out.String())
	}

	out.Reset()
	err = RunVconn([]string{"-n", "6", "-k", "1", "-subgraphs", "64", "-connected", "0,4"},
		strings.NewReader(in), &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 and 4 are NOT connected") {
		t.Fatalf("cross-component output: %q", out.String())
	}

	if err := RunVconn([]string{"-n", "6", "-k", "1", "-subgraphs", "64", "-connected", "0,99"},
		strings.NewReader(in), &out, &errOut); err == nil {
		t.Fatal("out-of-range pair accepted")
	}
	if err := RunVconn([]string{"-n", "6", "-k", "1", "-subgraphs", "64", "-connected", "0,1,2"},
		strings.NewReader(in), &out, &errOut); err == nil {
		t.Fatal("three-vertex 'pair' accepted")
	}
}

func TestRunEconnConnectedPair(t *testing.T) {
	h := workload.Cycle(8)
	in := streamText(t, h, stream.FromGraph(h))
	var out, errOut bytes.Buffer
	if err := RunEconn([]string{"-n", "8", "-k", "2", "-connected", "0,5"},
		strings.NewReader(in), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 and 5 are connected") {
		t.Fatalf("econn connected output: %q", out.String())
	}
}

// halfFrame writes the first half of a frame and then fails: a checkpoint
// write that dies mid-frame.
type halfFrame []byte

var errMidFrame = errors.New("write failed mid-frame")

func (f halfFrame) WriteTo(w io.Writer) (int64, error) {
	n, _ := w.Write(f[:len(f)/2])
	return int64(n), errMidFrame
}

// TestWriteCheckpointKeepsPrevious: a checkpoint write that fails
// mid-frame returns its error and leaves the previous checkpoint file
// whole, so it still opens, with no temporary file left beside it; the
// next write that succeeds replaces it.
func TestWriteCheckpointKeepsPrevious(t *testing.T) {
	s, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.ckpt")
	if err := writeCheckpoint(path, s, io.Discard); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(graph.MustEdge(1, 2), 1); err != nil {
		t.Fatal(err)
	}
	var next bytes.Buffer
	if _, err := s.WriteTo(&next); err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpoint(path, halfFrame(next.Bytes()), io.Discard); !errors.Is(err, errMidFrame) {
		t.Fatalf("a write failing mid-frame returned %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("the previous checkpoint changed (%v)", err)
	}
	if _, err := codec.Open(bytes.NewReader(got)); err != nil {
		t.Fatalf("the previous checkpoint no longer opens: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
	if err := writeCheckpoint(path, s, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, next.Bytes()) {
		t.Fatalf("a successful write did not replace the checkpoint (%v)", err)
	}
}
