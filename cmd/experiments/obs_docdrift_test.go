package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"graphsketch/internal/obs"
	_ "graphsketch/internal/oracle"
	"graphsketch/internal/shardplane"
	"graphsketch/internal/sketch"
)

// TestObsDocDrift keeps the IMPLEMENTATION.md observability tables honest:
// every metric family registered by an OnEnable hook and every /debug/*
// endpoint the handler mounts must be documented, and every family the
// metric table lists must be registered, so a row cannot outlive its code.
// The experiments binary plus the oracle import above cover every
// instrumented package, so enabling collection here binds the
// complete family set; the per-shard families register when a transport
// starts, so the test starts one. Run via `make obs-check`.
func TestObsDocDrift(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	sp, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	shardplane.NewLocal(sp, shardplane.Options{Shards: 1}).Close()

	doc, err := os.ReadFile("../../IMPLEMENTATION.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)

	families := obs.Default().Families()
	if len(families) == 0 {
		t.Fatal("no metric families registered with collection enabled")
	}
	for _, f := range families {
		if !strings.Contains(text, f) {
			t.Errorf("metric family %s is registered but missing from the IMPLEMENTATION.md observability tables", f)
		}
	}

	registered := make(map[string]bool, len(families))
	for _, f := range families {
		registered[f] = true
	}
	listed := metricTableFamilies(text)
	if len(listed) == 0 {
		t.Fatal("no metric families found in the IMPLEMENTATION.md metric table")
	}
	for _, f := range listed {
		if !registered[f] {
			t.Errorf("metric family %s is listed in the IMPLEMENTATION.md metric table but nothing registers it", f)
		}
	}

	paths := obs.EndpointPaths()
	if len(paths) == 0 {
		t.Fatal("EndpointPaths returned nothing")
	}
	for _, p := range paths {
		if !strings.Contains(text, p) {
			t.Errorf("endpoint %s is served but missing from IMPLEMENTATION.md", p)
		}
	}
}

// familyName matches one backquoted family in a table row's first cell,
// dropping a label suffix such as {shard=}.
var familyName = regexp.MustCompile("`([a-z0-9_]+)(?:\\{[^}]*\\})?`")

// metricTableFamilies returns the families named in the first column of
// the metric table (the one headed "| family | type | meaning |").
func metricTableFamilies(doc string) []string {
	var out []string
	in := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "| family |") {
			in = true
			continue
		}
		if !in {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		for _, m := range familyName.FindAllStringSubmatch(cells[1], -1) {
			out = append(out, m[1])
		}
	}
	return out
}
