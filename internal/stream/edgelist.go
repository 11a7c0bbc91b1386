package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"graphsketch/internal/graph"
)

// ReadEdgeList parses the plain edge-list format that real-world graph
// datasets ship in (SNAP, KONECT and friends): one edge per line,
//
//	u v [w] [ignored ...]
//
// with fields separated by whitespace or commas. Lines starting with '#' or
// '%' are comments (KONECT headers use '%'), blank lines are skipped, and
// self-loops — common residue in crawled datasets — are dropped rather than
// rejected. The optional third column is an integer multiplicity (default
// 1, must be positive); any further columns (timestamps and the like) are
// ignored. Duplicate edges stack their multiplicities.
//
// The vertex count is inferred as max id + 1; ids must be non-negative.
// The result is an ordinary graph (r = 2) ready for FromGraph, Shuffled or
// WithChurn to turn into a dynamic stream.
//
// When obs collection is enabled, parsing feeds the edgelist_* counter
// family (lines read, comments skipped, self-loops dropped, parse errors),
// so a scrape after loading a dataset shows how much input was discarded.
// Every parse error carries the 1-based line number it occurred on.
func ReadEdgeList(r io.Reader) (*graph.Hypergraph, error) {
	type row struct {
		u, v, line int
		w          int64
	}
	var rows []row
	maxID, maxLine := -1, 0
	loops := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.FieldsFunc(line, func(c rune) bool {
			return c == ' ' || c == '\t' || c == ','
		})
		if len(fields) < 2 {
			return nil, parseErr(lineNo, "need two vertex ids")
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, parseErr(lineNo, "bad vertex %q", fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, parseErr(lineNo, "bad vertex %q", fields[1])
		}
		if u < 0 || v < 0 {
			return nil, parseErr(lineNo, "negative vertex id")
		}
		w := int64(1)
		if len(fields) >= 3 {
			w, err = strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, parseErr(lineNo, "bad weight %q", fields[2])
			}
			if w <= 0 {
				return nil, parseErr(lineNo, "weight %d not positive", w)
			}
		}
		if u == v {
			loops++
			sm.elLoops.Add(1)
			continue
		}
		if m := max(u, v); m > maxID {
			maxID, maxLine = m, lineNo
		}
		rows = append(rows, row{u, v, lineNo, w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		if loops > 0 {
			return nil, errors.New("stream: edge list holds only self-loops")
		}
		return nil, errors.New("stream: empty edge list")
	}
	h, err := graph.NewHypergraph(maxID+1, 2)
	if err != nil {
		return nil, parseErr(maxLine, "vertex id %d: %v", maxID, err)
	}
	for _, e := range rows {
		if err := h.AddEdge(graph.MustEdge(e.u, e.v), e.w); err != nil {
			return nil, parseErr(e.line, "multiplicity overflows: %v", err)
		}
	}
	return h, nil
}

// parseErr counts a rejected line and builds the error for it; every
// ReadEdgeList parse error goes through here so the message always names
// the offending 1-based line.
func parseErr(lineNo int, format string, args ...any) error {
	sm.elErrors.Add(1)
	return fmt.Errorf("stream: edge list line %d: "+format, append([]any{lineNo}, args...)...)
}
