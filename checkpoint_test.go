// Checkpoint conformance harness: every Sketch implementation must survive
// the interrupted-run drill — ingest half a dynamic stream, checkpoint
// through the versioned wire format, reconstruct from the frame alone
// (codec.Open, no out-of-band construction), finish the stream, and land on
// byte-identical state versus an uninterrupted run. The same table drives
// the cross-construction rejection check: a Lean-profile frame presented to
// a Balanced-profile reader must fail with codec.ErrFingerprint, never
// merge.
package graphsketch_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/core/edgeconn"
	"graphsketch/internal/core/reconstruct"
	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/plan"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// checkpointCases builds each of the eight implementations under a given
// profile; the Lean and Balanced variants of one case differ only in
// construction parameters (never seed), which is exactly what the identity
// fingerprint must distinguish. The hybrid case varies both its own budget
// and the wrapped inner's profile, so its fingerprint must reject a
// mismatch at either layer.
var checkpointCases = []struct {
	name  string
	build func(t *testing.T, n int, prof plan.Profile) graphsketch.Checkpointer
}{
	{"spanning", func(t *testing.T, n int, prof plan.Profile) graphsketch.Checkpointer {
		s, err := sketch.NewSpanningSketch(sketch.SpanningParams{
			N: n, Rounds: plan.Spanning(n, prof).Rounds,
			Sampler: plan.Spanning(n, prof).Sampler, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"skeleton", func(t *testing.T, n int, prof plan.Profile) graphsketch.Checkpointer {
		s, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{
			N: n, K: 2, Spanning: plan.Spanning(n, prof), Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"edgeconn", func(t *testing.T, n int, prof plan.Profile) graphsketch.Checkpointer {
		s, err := edgeconn.New(edgeconn.Params{
			N: n, K: 3, Spanning: plan.Spanning(n, prof), Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"vertexconn", func(t *testing.T, n int, prof plan.Profile) graphsketch.Checkpointer {
		s, err := vertexconn.New(plan.VertexConnQuery(n, 2, 2, 7, prof))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"estimator", func(t *testing.T, n int, prof plan.Profile) graphsketch.Checkpointer {
		per := 24
		if prof == plan.Lean {
			per = 12
		}
		e, err := vertexconn.NewEstimator(vertexconn.EstimatorParams{
			N: n, KMax: 4, Seed: 7,
			SubgraphsAt: func(k int) int { return per * k },
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
	{"reconstruct", func(t *testing.T, n int, prof plan.Profile) graphsketch.Checkpointer {
		s, err := reconstruct.New(reconstruct.Params{
			N: n, K: 2, Spanning: plan.Spanning(n, prof), Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"sparsify", func(t *testing.T, n int, prof plan.Profile) graphsketch.Checkpointer {
		s, err := sparsify.New(plan.Sparsify(n, 2, 0.5, 7, prof))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"hybrid", func(t *testing.T, n int, prof plan.Profile) graphsketch.Checkpointer {
		inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{
			N: n, Rounds: plan.Spanning(n, prof).Rounds,
			Sampler: plan.Spanning(n, prof).Sampler, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		budget := 8
		if prof == plan.Lean {
			budget = 4
		}
		h, err := hybrid.New(inner, budget)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}},
}

// checkpointStream is a shared dynamic graph stream with churn (inserts and
// deletes on both sides of the cut point).
func checkpointStream(n int) stream.Stream {
	rng := rand.New(rand.NewPCG(0xc4e7, 0x9001))
	final := workload.ErdosRenyi(rng, n, 0.35)
	churn := workload.ErdosRenyi(rng, n, 0.3)
	return stream.WithChurn(final, churn, rng)
}

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	const n = 12
	st := checkpointStream(n)
	half := len(st) / 2
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted reference run.
			full := tc.build(t, n, plan.Balanced)
			if err := stream.Apply(st, full); err != nil {
				t.Fatal(err)
			}
			// Interrupted run: half the stream, then a framed checkpoint.
			first := tc.build(t, n, plan.Balanced)
			if err := stream.Apply(st[:half], first); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			wrote, err := first.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if wrote != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d bytes, wrote %d", wrote, buf.Len())
			}
			// Restart: the frame alone reconstructs the sketch — no
			// out-of-band parameters.
			resumed, err := codec.Open(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := stream.Apply(st[half:], resumed); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resumed.Marshal(), full.Marshal()) {
				t.Fatal("resumed state differs from uninterrupted run")
			}
		})
	}
}

func TestCheckpointReadFromResume(t *testing.T) {
	// Same drill through the typed path: ReadFrom on a freshly constructed
	// sketch (params from "flags") instead of codec.Open.
	const n = 12
	st := checkpointStream(n)
	half := len(st) / 2
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			full := tc.build(t, n, plan.Balanced)
			if err := stream.Apply(st, full); err != nil {
				t.Fatal(err)
			}
			first := tc.build(t, n, plan.Balanced)
			if err := stream.Apply(st[:half], first); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := first.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			resumed := tc.build(t, n, plan.Balanced)
			if _, err := resumed.ReadFrom(&buf); err != nil {
				t.Fatal(err)
			}
			if err := stream.Apply(st[half:], resumed); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resumed.Marshal(), full.Marshal()) {
				t.Fatal("resumed state differs from uninterrupted run")
			}
		})
	}
}

func TestCheckpointRejectsCrossConstruction(t *testing.T) {
	// A Lean-profile frame presented to a Balanced-profile reader must be
	// refused with the typed fingerprint error for every implementation —
	// same seed, different parameters is precisely the silent-garbage case
	// the raw Marshal/Unmarshal path cannot detect.
	const n = 12
	st := checkpointStream(n)
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			lean := tc.build(t, n, plan.Lean)
			if err := stream.Apply(st[:len(st)/2], lean); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := lean.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			balanced := tc.build(t, n, plan.Balanced)
			if _, err := balanced.ReadFrom(&buf); !errors.Is(err, codec.ErrFingerprint) {
				t.Fatalf("cross-profile ReadFrom: got %v, want codec.ErrFingerprint", err)
			}
		})
	}
}

func TestCheckpointDeterministic(t *testing.T) {
	// Byte determinism is the codec's bedrock contract: the frame carries a
	// fingerprint and CRC over bytes that must come out identical on every
	// encode of the same state (the mapdeterminism analyzer guards the same
	// invariant statically). Two WriteTo calls on one live, half-ingested
	// sketch must agree byte for byte, for all eight implementations.
	const n = 12
	st := checkpointStream(n)
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t, n, plan.Balanced)
			if err := stream.Apply(st[:len(st)/2], s); err != nil {
				t.Fatal(err)
			}
			var first, second bytes.Buffer
			if _, err := s.WriteTo(&first); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WriteTo(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("two WriteTo calls on the same sketch differ: %d vs %d bytes",
					first.Len(), second.Len())
			}
		})
	}
}

// frameDigestStream is a fixed dynamic stream on n vertices whose churn
// edges are inserted and then deleted. Vertex n−1 sees only churn, so its
// samplers end with levels that were allocated and then cancelled back to
// zero — the state whose serialization the digests below pin.
func frameDigestStream(n int) stream.Stream {
	rng := rand.New(rand.NewPCG(0xd16e57, 0xf4a3e))
	final := workload.ErdosRenyi(rng, n-1, 0.3)
	churn := workload.ErdosRenyi(rng, n, 0.25)
	for u := 0; u < n-1; u += 3 {
		if err := churn.AddEdge(graph.Hyperedge{u, n - 1}, 1); err != nil {
			panic(err)
		}
	}
	lifted := graph.MustHypergraph(n, 2)
	for _, e := range final.Edges() {
		lifted.MustAddEdge(e, 1)
	}
	return stream.WithChurn(lifted, churn, rng)
}

// TestCheckpointFrameDigests pins the exact checkpoint bytes of four fixed
// streams by SHA-256, so a change to the in-memory sampler layout cannot
// silently change the wire format. The digests were recorded before
// samplers became lazily allocated by-value rows; a mismatch means the
// frame bytes changed, which breaks every checkpoint already on disk.
func TestCheckpointFrameDigests(t *testing.T) {
	const n = 16
	st := frameDigestStream(n)
	cases := []struct {
		name  string
		build func(t *testing.T) graphsketch.Checkpointer
		check func(t *testing.T, c graphsketch.Checkpointer)
		want  string
	}{
		{"spanning-cancelled", func(t *testing.T) graphsketch.Checkpointer {
			return checkpointCases[0].build(t, n, plan.Balanced)
		}, func(t *testing.T, c graphsketch.Checkpointer) {
			if w := c.(*sketch.SpanningSketch).VertexWords(n - 1); w == 0 {
				t.Fatal("churn-only vertex holds no allocated levels")
			}
		}, "1102df749f24528c209ee70beeece10e16f17ab1a7f1c5a607bc8cab8cf1d115"},
		{"skeleton", func(t *testing.T) graphsketch.Checkpointer {
			return checkpointCases[1].build(t, n, plan.Balanced)
		}, nil, "c4b2b44a2c2f817a355b678817bbce62cd91eddb7ced623a304c8b1565a019f2"},
		{"hybrid-spilled", func(t *testing.T) graphsketch.Checkpointer {
			inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			h, err := hybrid.New(inner, 8)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}, func(t *testing.T, c graphsketch.Checkpointer) {
			h := c.(*hybrid.Sketch)
			if s := h.SpilledCount(); s == 0 || s == n {
				t.Fatalf("hybrid spilled %d of %d vertices; want some but not all", s, n)
			}
		}, "46ec8c88d6f5542cdfa1c2b61a9f5e249be4b889ae039fff116681b0af099dea"},
		{"vertexconn", func(t *testing.T) graphsketch.Checkpointer {
			return checkpointCases[3].build(t, n, plan.Balanced)
		}, nil, "2f6318f83f0c2d14136956d561ff16ba647caabe6058012c2d95b0413d0db649"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)
			if err := stream.Apply(st, s); err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, s)
			}
			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
				t.Fatalf("frame SHA-256 = %s (%d bytes), want %s", got, buf.Len(), tc.want)
			}
		})
	}
}
