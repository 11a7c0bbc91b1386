package obs

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// Nil handles and a nil registry must be safe everywhere: this is the
// disabled fast path every instrumented hot loop relies on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x_gauge", "")
	h := r.Histogram("x_seconds", "", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	var sp *Span
	if sp.End() != 0 {
		t.Fatal("nil span End must return 0")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// The disabled path must not allocate: the whole point of the nil-registry
// design is that instrumentation compiled into hot loops is free when off.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	if a := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Add(0.5)
		h.Observe(1)
	}); a != 0 {
		t.Fatalf("disabled metric ops allocate %.1f objects per run; want 0", a)
	}
	// Enabled metric ops are allocation-free too (atomic adds into
	// pre-allocated cells), so counting never creates garbage either way.
	r := NewRegistry()
	ec := r.Counter("alloc_total", "")
	eg := r.Gauge("alloc_gauge", "")
	eh := r.Histogram("alloc_seconds", "", nil)
	if a := testing.AllocsPerRun(100, func() {
		ec.Inc()
		eg.Add(0.5)
		eh.Observe(1)
	}); a != 0 {
		t.Fatalf("enabled metric ops allocate %.1f objects per run; want 0", a)
	}
}

func TestRegistryIdempotentAndConcurrent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "help", "shard", "0")
	b := r.Counter("dup_total", "help", "shard", "0")
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	if c := r.Counter("dup_total", "help", "shard", "1"); c == a {
		t.Fatal("different labels must return a different series")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("race_total", "").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("race_total", "").Value(); got != 800 {
		t.Fatalf("concurrent Inc lost updates: got %d, want 800", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("prometheus output missing %q:\n%s", line, out)
		}
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("batches_total", "dispatched batches").Add(7)
	r.Gauge("busy_seconds", "busy time", "shard", "3").Set(1.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		"# HELP batches_total dispatched batches",
		"# TYPE batches_total counter",
		"batches_total 7",
		"# TYPE busy_seconds gauge",
		`busy_seconds{shard="3"} 1.5`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("prometheus output missing %q:\n%s", line, out)
		}
	}
}

func TestJSONFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("updates_total", "").Add(42)
	r.Histogram("d_seconds", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"updates_total": 42`) {
		t.Errorf("JSON output missing counter: %s", out)
	}
	if !strings.Contains(out, `"count": 1`) || !strings.Contains(out, `"buckets"`) {
		t.Errorf("JSON output missing histogram fields: %s", out)
	}
}

func TestEnableHooksAndDisable(t *testing.T) {
	var c *Counter
	calls := 0
	OnEnable(func(r *Registry) {
		calls++
		c = r.Counter("hook_total", "")
	})
	if c != nil {
		t.Fatal("hook must not run before Enable")
	}
	Enable()
	defer Disable()
	if calls != 1 || c == nil {
		t.Fatalf("Enable must run the hook once with the registry (calls=%d)", calls)
	}
	Enable() // idempotent
	if calls != 1 {
		t.Fatalf("repeated Enable re-ran hooks (calls=%d)", calls)
	}
	// A hook registered while enabled runs immediately.
	var c2 *Counter
	OnEnable(func(r *Registry) { c2 = r.Counter("hook2_total", "") })
	if c2 == nil {
		t.Fatal("hook registered after Enable must run immediately")
	}
	if Default() == nil {
		t.Fatal("Default must return the registry while enabled")
	}
	Disable()
	if Default() != nil {
		t.Fatal("Default must return nil after Disable")
	}
	if c != nil {
		t.Fatal("Disable must reset hook-bound handles to nil")
	}
}

func TestSpanRecordsAndLogsSlow(t *testing.T) {
	Enable()
	defer Disable()
	var logBuf bytes.Buffer
	SetLogger(slog.New(slog.NewTextHandler(&logBuf, nil)))
	defer SetLogger(nil)

	k := NewSpanKind("test.decode", "")
	h := k.hist.Load()
	before := h.Count() // the family outlives Disable, so a repeated run starts from the last one's count

	SetSlowSpanThreshold(time.Hour)
	sp := StartSpan(k)
	if sp == nil {
		t.Fatal("StartSpan must return a live span while enabled")
	}
	sp.End()
	if h.Count() != before+1 {
		t.Fatalf("span did not record into histogram (count=%d, was %d)", h.Count(), before)
	}
	if logBuf.Len() != 0 {
		t.Fatalf("fast span logged: %s", logBuf.String())
	}

	SetSlowSpanThreshold(0) // everything is slow
	defer SetSlowSpanThreshold(250 * time.Millisecond)
	StartSpan(k).End(slog.Int("layer", 3))
	if !strings.Contains(logBuf.String(), "test.decode") || !strings.Contains(logBuf.String(), "layer=3") {
		t.Fatalf("slow span not logged with attrs: %s", logBuf.String())
	}
}

// TestSpanKindLifecycle checks the one-name contract of a span kind: its
// histogram is registered as <name, dots to underscores>_seconds on Enable
// (and at once for a kind declared while enabled), every End observes into
// it, Disable unbinds it, and a disabled span costs no allocation even
// with attributes whose values Go would box on the heap.
func TestSpanKindLifecycle(t *testing.T) {
	before := NewSpanKind("lifecycle.before_enable", "declared before Enable")
	if before.hist.Load() != nil {
		t.Fatal("a kind declared while disabled must have no histogram")
	}
	Enable()
	defer Disable()
	after := NewSpanKind("lifecycle.after_enable", "declared after Enable")
	for _, k := range []*SpanKind{before, after} {
		metric := strings.ReplaceAll(k.name, ".", "_") + "_seconds"
		if !slices.Contains(Default().Families(), metric) {
			t.Fatalf("kind %s did not register %s", k.name, metric)
		}
		StartSpan(k).End()
		StartSpan(before).Child(k).End()
		if got := Default().Histogram(metric, "", nil).Count(); got < 2 {
			t.Fatalf("%s observed %d spans, want >= 2", metric, got)
		}
	}

	Disable()
	if before.hist.Load() != nil || after.hist.Load() != nil {
		t.Fatal("Disable must unbind every kind's histogram")
	}
	if sp := StartSpan(before); sp != nil {
		t.Fatal("StartSpan must return nil while disabled")
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp := StartSpan(before)
		defer sp.End(slog.Int("updates", 1198))
		sp.SetAttrs(slog.Int("n", 600), slog.String("peer", "shard-0"))
		sp.Child(after).End(slog.Int("edges", 4096))
	})
	if allocs != 0 {
		t.Fatalf("disabled spans allocate %.1f objects per run; want 0", allocs)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "").Add(3)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "served_total 3") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, `"served_total": 3`) {
		t.Fatalf("/debug/vars: code=%d body=%q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d body=%q", code, body)
	}
}

var benchKind = NewSpanKind("bench", "")

// BenchmarkDisabledHandles pins the nil fast path: every metric operation
// on a disabled (nil) handle must be a single predicted branch — no clock
// reads, no atomics, no allocation. A regression here taxes every hot loop
// in the repository whether or not telemetry is on.
func BenchmarkDisabledHandles(b *testing.B) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		h.Observe(0.25)
		_ = StartSpan(benchKind).End()
	}
}
