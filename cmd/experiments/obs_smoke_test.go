package main

import (
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"graphsketch/internal/obs"
)

// TestObsEndpointSmoke is the -obs-addr wiring end to end, in process:
// enable collection and serve on an ephemeral port (exactly what the flag
// does), run one real experiment, then scrape /metrics and check the
// advertised families and the pprof index are actually served.
func TestObsEndpointSmoke(t *testing.T) {
	addr, err := obs.Setup("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Disable()

	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if err := runE4(Config{Seed: 1, Quick: true}, devnull); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	out := string(body)
	for _, family := range []string{
		"l0_sample_draws_total",
		"recovery_ssparse_decode_success_total",
		"sketch_peel_rounds",
	} {
		if !strings.Contains(out, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	// E4 decodes spanning graphs, so the sampler draw family must be
	// nonzero.
	if !strings.Contains(out, "l0_sample_draws_total ") ||
		strings.Contains(out, "l0_sample_draws_total 0\n") {
		t.Error("l0_sample_draws_total did not advance during E4")
	}

	for _, path := range []string{"/debug/vars", "/debug/pprof/", "/healthz"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
	}
}
