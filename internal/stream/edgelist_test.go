package stream

import (
	"strings"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
)

func TestReadEdgeList(t *testing.T) {
	const in = `# SNAP-style header
% KONECT-style header
0 1
1,2,3
2	4 2 1699999999
3 3
5 0
`
	h, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 6 {
		t.Fatalf("inferred n = %d, want 6", h.N())
	}
	if h.EdgeCount() != 4 {
		t.Fatalf("edge count = %d, want 4 (self-loop dropped)", h.EdgeCount())
	}
	for _, tc := range []struct {
		u, v int
		w    int64
	}{{0, 1, 1}, {1, 2, 3}, {2, 4, 2}, {0, 5, 1}} {
		if got := h.Weight(graph.MustEdge(tc.u, tc.v)); got != tc.w {
			t.Fatalf("weight(%d,%d) = %d, want %d", tc.u, tc.v, got, tc.w)
		}
	}
}

func TestReadEdgeListDuplicatesStack(t *testing.T) {
	h, err := ReadEdgeList(strings.NewReader("0 1\n1 0\n0 1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Weight(graph.MustEdge(0, 1)); got != 4 {
		t.Fatalf("stacked weight = %d, want 4", got)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"empty", "# nothing\n"},
		{"only-loops", "2 2\n"},
		{"one-field", "7\n"},
		{"bad-vertex", "a b\n"},
		{"negative-vertex", "-1 2\n"},
		{"bad-weight", "0 1 x\n"},
		{"zero-weight", "0 1 0\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.in)); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

// TestReadEdgeListErrorLineNumbers pins the operator contract that every
// malformed-line error names the 1-based line it occurred on — comments
// and blank lines still advance the count, so the number matches what an
// editor shows for the file.
func TestReadEdgeListErrorLineNumbers(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"one-field", "0 1\n7\n", "line 2:"},
		{"bad-vertex", "# header\n0 1\n\na b\n", "line 4:"},
		{"negative-vertex", "-1 2\n", "line 1:"},
		{"bad-weight", "% konect\n0 1 x\n", "line 2:"},
		{"zero-weight", "0 1\n1 2\n2 3 0\n", "line 3:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEdgeList(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not carry %q", err, tc.want)
			}
		})
	}
}

// TestReadEdgeListMetrics drives a mixed input with collection enabled and
// asserts the edgelist_* counter family advances: self-loops dropped and,
// on a second, malformed input, parse errors.
func TestReadEdgeListMetrics(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	loops0 := sm.elLoops.Value()
	errors0 := sm.elErrors.Value()

	const in = "# header\n% header\n\n0 1\n2 2\n1 2\n"
	if _, err := ReadEdgeList(strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	if got := sm.elLoops.Value() - loops0; got != 1 {
		t.Fatalf("self-loops dropped = %d, want 1", got)
	}
	if got := sm.elErrors.Value() - errors0; got != 0 {
		t.Fatalf("parse errors = %d, want 0 on clean input", got)
	}

	if _, err := ReadEdgeList(strings.NewReader("0 1\nbogus line\n")); err == nil {
		t.Fatal("want parse error")
	}
	if got := sm.elErrors.Value() - errors0; got != 1 {
		t.Fatalf("parse errors = %d, want 1 after malformed input", got)
	}
}
