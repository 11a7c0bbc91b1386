package stream

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadText checks the parser never panics and that everything it
// accepts round-trips through WriteText.
func FuzzReadText(f *testing.F) {
	f.Add("+ 0 1\n- 0 1\n")
	f.Add("# comment\n+ 3 1 2\n")
	f.Add("+ 0 1")
	f.Add("- 5 5\n")
	f.Add("+\n")
	f.Add("+ -1 2\n")
	f.Add("* 1 2\n")
	f.Add("+ 1 99999999999999999999\n")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadText(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, s); err != nil {
			t.Fatalf("WriteText failed on accepted stream: %v", err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(back) != len(s) {
			t.Fatalf("round trip length %d != %d", len(back), len(s))
		}
		for i := range s {
			if back[i].Op != s[i].Op || !back[i].Edge.Equal(s[i].Edge) {
				t.Fatalf("round trip mismatch at %d", i)
			}
		}
	})
}

// FuzzReadEdgeList checks the edge-list parser never panics — vertex ids
// past the domain's range and multiplicities that overflow int64 are
// errors — and that every graph it accepts reads back identically from its
// own "u v w" rendering.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2 3\n")
	f.Add("# c\n% konect\n0,1\n2\t3 4 1700000000\n")
	f.Add("3 3\n")
	f.Add("0 1 0\n")
	f.Add("0 -1\n")
	f.Add("0 4294967296\n")
	f.Add("0 9223372036854775807\n")
	f.Add("0 1 9223372036854775807\n1 0 9223372036854775807\n")
	f.Fuzz(func(t *testing.T, in string) {
		h, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for _, we := range h.WeightedEdges() {
			fmt.Fprintf(&buf, "%d %d %d\n", we.E[0], we.E[1], we.W)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted graph: %v", err)
		}
		if back.N() != h.N() || back.EdgeCount() != h.EdgeCount() {
			t.Fatalf("round trip: n %d→%d, edges %d→%d", h.N(), back.N(), h.EdgeCount(), back.EdgeCount())
		}
		for _, we := range h.WeightedEdges() {
			if back.Weight(we.E) != we.W {
				t.Fatalf("round trip: edge %v weight %d→%d", we.E, we.W, back.Weight(we.E))
			}
		}
	})
}
