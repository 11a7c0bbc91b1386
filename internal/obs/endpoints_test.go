package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
	"graphsketch/internal/oracle"
	"graphsketch/internal/sketch"
)

func pathBatch(n int) []graph.WeightedEdge {
	var batch []graph.WeightedEdge
	for v := 1; v < n; v++ {
		batch = append(batch, graph.WeightedEdge{E: graph.MustEdge(v-1, v), W: 1})
	}
	return batch
}

// TestTraceTreeDepth checks that a skeleton decode records one trace tree,
// sketch.skeleton → sketch.skeleton_layer → sketch.spanning_graph →
// sketch.peel_round, with one layer span per layer, and that the tree is
// retrievable from /debug/traces exactly as a scraper would see it.
func TestTraceTreeDepth(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.SetTraceSampling(1)

	const n, k = 16, 2
	sk, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: n, K: k, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(sk, engine.Options{Workers: 2})
	defer eng.Close()
	if err := eng.UpdateBatch(pathBatch(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Decode(nil); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.Handler(obs.Default()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/debug/traces Content-Type = %q, want application/json", ct)
	}
	var payload struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}

	// Find the decode's trace (other tests in the package may have left
	// trees in the ring): the one whose root is sketch.skeleton. Every
	// other span must hang exactly one level below its expected parent.
	parentName := map[string]string{
		"sketch.skeleton_layer": "sketch.skeleton",
		"sketch.spanning_graph": "sketch.skeleton_layer",
		"sketch.peel_round":     "sketch.spanning_graph",
	}
	for _, tr := range payload.Traces {
		byID := make(map[uint64]obs.SpanRecord, len(tr.Spans))
		for _, s := range tr.Spans {
			byID[s.Span] = s
		}
		roots := 0
		for _, s := range tr.Spans {
			if s.Parent == 0 && s.Name == "sketch.skeleton" {
				roots++
			}
		}
		if roots == 0 {
			continue
		}
		if roots != 1 {
			t.Fatalf("trace holds %d sketch.skeleton roots, want 1", roots)
		}
		count := make(map[string]int)
		for _, s := range tr.Spans {
			count[s.Name]++
			if s.Parent == 0 {
				if s.Name != "sketch.skeleton" {
					t.Errorf("root span %s, want sketch.skeleton", s.Name)
				}
				continue
			}
			want, ok := parentName[s.Name]
			if !ok {
				t.Errorf("unexpected span %s in the skeleton decode trace", s.Name)
				continue
			}
			if got := byID[s.Parent].Name; got != want {
				t.Errorf("span %s hangs under %q, want %s", s.Name, got, want)
			}
		}
		if count["sketch.skeleton_layer"] != k || count["sketch.spanning_graph"] != k {
			t.Errorf("trace has %d layer and %d spanning_graph spans, want %d each",
				count["sketch.skeleton_layer"], count["sketch.spanning_graph"], k)
		}
		if count["sketch.peel_round"] == 0 {
			t.Error("skeleton decode trace has no sketch.peel_round span")
		}
		if tr.Depth != 4 {
			t.Errorf("skeleton decode trace depth = %d, want 4", tr.Depth)
		}
		return
	}
	t.Fatal("no skeleton decode trace found at /debug/traces")
}

// TestEndpointScrapeRace scrapes every observability endpoint concurrently
// while an engine ingests and an oracle rebuilds, asserting stable
// content-types and well-formed bodies throughout. Run under -race (make
// obs-check does) this doubles as the no-torn-reads proof for the
// flight-recorder rings and the health registry.
func TestEndpointScrapeRace(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.SetTraceSampling(1)

	const n = 24
	ingestTarget, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	querySketch, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: n, K: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := querySketch.UpdateBatch(pathBatch(n)); err != nil {
		t.Fatal(err)
	}
	orc := oracle.For(querySketch)
	obs.RegisterInspector("race_skeleton", querySketch)
	defer obs.RegisterInspector("race_skeleton", nil)

	srv := httptest.NewServer(obs.Handler(obs.Default()))
	defer srv.Close()

	wantCT := map[string]string{
		"/metrics":      "text/plain",
		"/debug/vars":   "application/json",
		"/debug/traces": "application/json",
		"/debug/events": "application/json",
		"/debug/health": "application/json",
		"/healthz":      "",
	}

	const rounds = 20
	var wg sync.WaitGroup
	errc := make(chan error, 3+len(wantCT))

	// Writer 1: engine ingesting batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng := engine.New(ingestTarget, engine.Options{Workers: 2})
		defer eng.Close()
		batch := pathBatch(n)
		for i := 0; i < rounds; i++ {
			if err := eng.UpdateBatch(batch); err != nil {
				errc <- err
				return
			}
		}
	}()

	// Writer 2: oracle invalidate + rebuild cycles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			orc.Invalidate()
			if _, err := orc.Connected(0, n-1); err != nil {
				errc <- err
				return
			}
		}
	}()

	// Scrapers: one goroutine per endpoint, hammering in a loop.
	for path, ct := range wantCT {
		wg.Add(1)
		go func(path, ct string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					errc <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
				if ct != "" && !strings.HasPrefix(resp.Header.Get("Content-Type"), ct) {
					t.Errorf("%s: Content-Type %q, want prefix %q", path, resp.Header.Get("Content-Type"), ct)
					return
				}
				if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") && !json.Valid(body) {
					t.Errorf("%s: scraped body is not valid JSON (torn read?)", path)
					return
				}
			}
		}(path, ct)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
