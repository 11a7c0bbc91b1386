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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/core/reconstruct"
	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/plan"
	"graphsketch/internal/recovery"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/testutil/frametest"
	"graphsketch/internal/workload"
)

// checkpointCases builds each checkpointable structure under a given
// profile; the Lean and Balanced variants of one case differ only in
// construction parameters (never seed), which is exactly what the identity
// fingerprint must distinguish. The hybrid case varies both its own budget
// and the wrapped inner's profile, so its fingerprint must reject a
// mismatch at either layer. The edgeconn and reconstruct cases are the
// skeleton sketches those decoders read, built as the retired tags' sketches
// were: a 3-skeleton, and the (k+1)-skeleton light_k reads at k = 2.
var checkpointCases = []struct {
	name  string
	build func(t testing.TB, n int, prof plan.Profile) graphsketch.Checkpointer
}{
	{"spanning", func(t testing.TB, n int, prof plan.Profile) graphsketch.Checkpointer {
		s, err := sketch.NewSpanningSketch(sketch.SpanningParams{
			N: n, Rounds: plan.Spanning(n, prof).Rounds,
			Sampler: plan.Spanning(n, prof).Sampler, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"skeleton", func(t testing.TB, n int, prof plan.Profile) graphsketch.Checkpointer {
		s, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{
			N: n, K: 2, Spanning: plan.Spanning(n, prof), Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"edgeconn", func(t testing.TB, n int, prof plan.Profile) graphsketch.Checkpointer {
		s, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{
			N: n, K: 3, Spanning: plan.Spanning(n, prof), Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"vertexconn", func(t testing.TB, n int, prof plan.Profile) graphsketch.Checkpointer {
		s, err := vertexconn.New(plan.VertexConnQuery(n, 2, 2, 7, prof))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"estimator", func(t testing.TB, n int, prof plan.Profile) graphsketch.Checkpointer {
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
	{"reconstruct", func(t testing.TB, n int, prof plan.Profile) graphsketch.Checkpointer {
		s, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{
			N: n, K: 2 + 1, Spanning: plan.Spanning(n, prof), Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"sparsify", func(t testing.TB, n int, prof plan.Profile) graphsketch.Checkpointer {
		s, err := sparsify.New(plan.Sparsify(n, 2, 0.5, 7, prof))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{"hybrid", func(t testing.TB, n int, prof plan.Profile) graphsketch.Checkpointer {
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
			if !frametest.Equal(t, resumed, full) {
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
			if !frametest.Equal(t, resumed, full) {
				t.Fatal("resumed state differs from uninterrupted run")
			}
		})
	}
}

func TestCheckpointRejectsCrossConstruction(t *testing.T) {
	// A Lean-profile frame presented to a Balanced-profile reader must be
	// refused with the typed fingerprint error for every implementation —
	// same seed, different parameters is precisely the silent-garbage case
	// that raw, unframed state could not detect.
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
// zero — the state whose serialization the digests below pin: such levels
// write nothing.
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

// TestCheckpointFrameDigests pins the exact checkpoint bytes of every
// checkpointable structure on one fixed stream by SHA-256, so a change to
// the in-memory layout or the serialization code cannot silently change the
// wire format. The first four digests were recorded before samplers became
// lazily allocated by-value rows, the other four before the serialization
// methods collapsed into one per-vertex share primitive; a mismatch means
// the frame bytes changed, which breaks every checkpoint already on disk.
// hybrid-spilled alone was re-recorded, on purpose, when the hybrid's state
// became its vertex shares (the inner's share, then the exact part) in
// place of an embedded inner frame, a spill bitmap and the buffers.
// estimator and sparsify were re-recorded, on purpose, when their states
// became their vertex shares (each vertex's share of every scale or level)
// in place of each scale's or level's whole state behind its length. All
// eight were re-recorded, on purpose, with format version 2, when sampler
// levels and Becker rows came to list only their nonzero cells behind a
// bitmap and a sampler to write only the levels up to its highest nonzero
// cell; spanning-cancelled's churn-only vertex now writes no level. The
// edgeconn and reconstruct frames went with their tags (3 and 6); the
// skeleton state they carried is pinned by TestRetiredTagStatesUnchanged.
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
		}, "100ab98021f1ea3316a0c5f075175e9ce8c9cce56bcdc0fd95178bb502a186a5"},
		{"skeleton", func(t *testing.T) graphsketch.Checkpointer {
			return checkpointCases[1].build(t, n, plan.Balanced)
		}, nil, "9216face7df590e7b7dbfab4c4f72b009d6729c70de06bc998164a4496d7d202"},
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
		}, "c62f4697e2110eb223c7b6ee1223fe87138950a66aff427b2ca20bdbeef4d337"},
		{"vertexconn", func(t *testing.T) graphsketch.Checkpointer {
			return checkpointCases[3].build(t, n, plan.Balanced)
		}, nil, "9c24445587656344b91dae8c5382faffbfb900bd5e34c196ba9eb19c00cadb07"},
		{"estimator", func(t *testing.T) graphsketch.Checkpointer {
			return checkpointCases[4].build(t, n, plan.Balanced)
		}, nil, "d8c4ed120f273653efe52c2513ca46dc442ca3478fdb3c5360f4fe7847a7834e"},
		{"sparsify", func(t *testing.T) graphsketch.Checkpointer {
			return checkpointCases[6].build(t, n, plan.Balanced)
		}, nil, "de6a97623152bad68aff87445cac8139c5c01d5c7fb6716bd0425cf70b814105"},
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

// TestRetiredTagStatesUnchanged pins that retiring the edgeconn (3) and
// reconstruct (6) tags changed no state byte: a skeleton sketch built with
// their params — K = 3, and K = k+1 at k = 2 — writes, after the digest
// stream, the checkpoint state (the payload after the params) and the
// share interior of shareDigestVertex those tags' frames carried. The
// digests were recorded from the tagged frames before the tags went.
func TestRetiredTagStatesUnchanged(t *testing.T) {
	const n = 16
	const state = "2c768735cdf24e374484430ca3f7ce818d18a2b1022c7d4254e1a3344beceea3"
	const share = "2c9893912ee50ea218af92e7dff98b07f3a0705ffa9a8fc265c4f66145834a3f"
	st := frameDigestStream(n)
	for _, i := range []int{2, 5} {
		tc := checkpointCases[i]
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t, n, plan.Balanced)
			if err := stream.Apply(st, s); err != nil {
				t.Fatal(err)
			}
			_, _, got := splitCheckpoint(t, frametest.Of(t, s))
			if d := fmt.Sprintf("%x", sha256.Sum256(got)); d != state {
				t.Errorf("state SHA-256 = %s (%d bytes), want %s", d, len(got), state)
			}
			interior := vertexShare(t, s, shareDigestVertex)
			if d := fmt.Sprintf("%x", sha256.Sum256(interior)); d != share {
				t.Errorf("share interior SHA-256 = %s (%d bytes), want %s", d, len(interior), share)
			}
		})
	}
}

// TestRetiredTagsRefused: a checkpoint frame or a share frame under a
// retired tag (edgeconn 3, reconstruct 6), carrying a skeleton's params and
// state, is refused with codec.ErrUnknownType, and the share leaves its
// receiver as it was.
func TestRetiredTagsRefused(t *testing.T) {
	const n = 8
	s := checkpointCases[2].build(t, n, plan.Balanced).(*sketch.SkeletonSketch)
	if err := stream.Apply(checkpointStream(n), s); err != nil {
		t.Fatal(err)
	}
	_, params, state := splitCheckpoint(t, frametest.Of(t, s))
	share := s.VertexShareFrame(shareDigestVertex)
	for _, tag := range []codec.Tag{codec.TagEdgeConn, codec.TagReconstr} {
		if slices.Contains(codec.RegisteredTags(), tag) {
			t.Errorf("retired %v has an opener", tag)
		}
		if _, err := codec.Open(bytes.NewReader(checkpointFrame(tag, params, state))); !errors.Is(err, codec.ErrUnknownType) {
			t.Errorf("%v checkpoint frame: got %v, want ErrUnknownType", tag, err)
		}
		f := bytes.Clone(share)
		f[7] = byte(tag)
		before := frametest.Of(t, s)
		if _, err := s.AddVertexShareFrame(fixCRC(f)); !errors.Is(err, codec.ErrUnknownType) {
			t.Errorf("%v share frame: got %v, want ErrUnknownType", tag, err)
		}
		if !bytes.Equal(frametest.Of(t, s), before) {
			t.Errorf("a refused %v share frame changed the receiver", tag)
		}
	}
}

// TestCheckpointStateIsShares pins the one checkpoint layout: after the
// digest stream, every structure's state — the payload after its params —
// is its vertex shares 0..n−1 concatenated in vertex order, v's share being
// the interior of its share frame where the structure has them and
// sketch.AppendShare otherwise. The estimator and the sparsifier used to
// write each scale's or level's whole state behind a length instead.
func TestCheckpointStateIsShares(t *testing.T) {
	const n = 16
	st := frameDigestStream(n)
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t, n, plan.Balanced)
			if err := stream.Apply(st, s); err != nil {
				t.Fatal(err)
			}
			_, _, state := splitCheckpoint(t, frametest.Of(t, s))
			var shares []byte
			for v := 0; v < n; v++ {
				shares = append(shares, vertexShare(t, s, v)...)
			}
			if !bytes.Equal(state, shares) {
				t.Fatalf("the %d-byte state is not the %d bytes of the vertex shares in vertex order", len(state), len(shares))
			}
		})
	}
}

// vertexShare returns vertex v's share of s: the interior of its share
// frame, or for a structure without share frames sketch.AppendShare's.
func vertexShare(tb testing.TB, s graphsketch.Checkpointer, v int) []byte {
	tb.Helper()
	switch s := s.(type) {
	case shareSketch:
		_, payload, _, err := codec.DecodeFrame(s.VertexShareFrame(v))
		if err != nil {
			tb.Fatal(err)
		}
		return payload[4:] // after the vertex index
	case sketch.Sharer:
		return sketch.AppendShare(s, nil, v)
	}
	tb.Fatalf("%T has no vertex shares", s)
	return nil
}

// shareSketch is a structure whose vertex shares travel as codec share
// frames: player P_v's message in the simultaneous communication model.
type shareSketch interface {
	Update(e graph.Hyperedge, delta int64) error
	VertexShareFrame(v int) []byte
	AddVertexShareFrame(data []byte) ([]byte, error)
}

// shareCases builds every share-capable structure on n vertices: the six
// vertex-sharded checkpointable sketches plus the Becker baseline.
var shareCases = []struct {
	name  string
	build func(tb testing.TB, n int) shareSketch
}{
	{"spanning", func(tb testing.TB, n int) shareSketch {
		return checkpointCases[0].build(tb, n, plan.Balanced).(shareSketch)
	}},
	{"skeleton", func(tb testing.TB, n int) shareSketch {
		return checkpointCases[1].build(tb, n, plan.Balanced).(shareSketch)
	}},
	{"vertexconn", func(tb testing.TB, n int) shareSketch {
		return checkpointCases[3].build(tb, n, plan.Balanced).(shareSketch)
	}},
	{"edgeconn", func(tb testing.TB, n int) shareSketch {
		return checkpointCases[2].build(tb, n, plan.Balanced).(shareSketch)
	}},
	{"reconstruct", func(tb testing.TB, n int) shareSketch {
		return checkpointCases[5].build(tb, n, plan.Balanced).(shareSketch)
	}},
	{"sparsify", func(tb testing.TB, n int) shareSketch {
		return checkpointCases[6].build(tb, n, plan.Balanced).(shareSketch)
	}},
	{"becker", func(tb testing.TB, n int) shareSketch { return reconstruct.NewBecker(7, n, 2, 2) }},
}

// shareDigestVertex is the vertex whose share frame the digests pin.
const shareDigestVertex = 5

// shareFrames returns each share case's frame for shareDigestVertex after
// the digest stream, in shareCases order.
func shareFrames(tb testing.TB) [][]byte {
	const n = 16
	st := frameDigestStream(n)
	frames := make([][]byte, len(shareCases))
	for i, tc := range shareCases {
		s := tc.build(tb, n)
		if err := stream.Apply(st, s); err != nil {
			tb.Fatal(err)
		}
		frames[i] = s.VertexShareFrame(shareDigestVertex)
	}
	return frames
}

// TestShareFrameDigests pins the exact share frame of one vertex for every
// share-capable structure by SHA-256, as TestCheckpointFrameDigests does for
// checkpoint frames: share frames are the per-player messages a referee
// merges, so their bytes are wire format too. All seven were re-recorded,
// on purpose, with format version 2 (sparse cell blocks; see
// TestCheckpointFrameDigests). The edgeconn and reconstruct entries went
// with their tags: those cases now send skeleton frames, whose interiors
// TestRetiredTagStatesUnchanged pins.
func TestShareFrameDigests(t *testing.T) {
	want := map[string]string{
		"spanning":   "302bda3e6c6ec64e40612bb0acbb163de6e7e820bbeedfaa72fb38b74cfacfad",
		"skeleton":   "40743421ba41b5e4647a75ec1b0ef0f8a09e36d9e0f5990dbf2432350b7e8dfd",
		"vertexconn": "7b6ef2cb3d9b526b54059b97fa19208cdaee1ae25498fa5a840e229940924efa",
		"sparsify":   "88c3f3e5504624ca95c5fac51d70ae8dd86491b1a876e8af77927f2d11d0d1d4",
		"becker":     "89eec1799fae3cd97c8d7d357bf1c8eb2d6635cec176c29cea088131a1eb1d1a",
	}
	for i, frame := range shareFrames(t) {
		name := shareCases[i].name
		if name == "edgeconn" || name == "reconstruct" {
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(frame)); got != want[name] {
			t.Errorf("%s: share frame SHA-256 = %s (%d bytes), want %s", name, got, len(frame), want[name])
		}
	}
}

// reframe returns a copy of share frame f claiming vertex v, with the
// checksum recomputed so the frame stays well-formed.
func reframe(f []byte, v uint32) []byte {
	g := append([]byte(nil), f...)
	binary.LittleEndian.PutUint32(g[codec.FrameOverhead-4:], v)
	return fixCRC(g)
}

// fixCRC recomputes a frame's trailing CRC-32C in place.
func fixCRC(f []byte) []byte {
	if len(f) >= codec.FrameOverhead {
		end := len(f) - 4
		binary.LittleEndian.PutUint32(f[end:], crc32.Checksum(f[:end], crc32.MakeTable(crc32.Castagnoli)))
	}
	return f
}

// TestShareFrameRejectsVertexOutOfRange: a well-formed share frame — valid
// checksum and fingerprint — naming a vertex the receiver does not have is
// rejected with graphsketch.ErrVertexRange before any state changes, for
// every share-capable structure. It used to index past the receiver's
// per-vertex state and panic.
func TestShareFrameRejectsVertexOutOfRange(t *testing.T) {
	const n = 16
	for i, frame := range shareFrames(t) {
		tc := shareCases[i]
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t, n)
			if err := stream.Apply(frameDigestStream(n), s); err != nil {
				t.Fatal(err)
			}
			before := s.VertexShareFrame(shareDigestVertex)
			for _, v := range []uint32{n, 1000, 1<<32 - 1} {
				if _, err := s.AddVertexShareFrame(reframe(frame, v)); !errors.Is(err, graphsketch.ErrVertexRange) {
					t.Fatalf("share frame for vertex %d of %d: got %v, want graphsketch.ErrVertexRange", v, n, err)
				}
			}
			if !bytes.Equal(s.VertexShareFrame(shareDigestVertex), before) {
				t.Fatal("rejected share frames changed the receiver")
			}
		})
	}
}

// TestCancelledStreamWritesFreshFrame: a spanning sketch fed a stream and
// then the stream's inverse holds the zero vector again, so it writes the
// checkpoint frame and the share frames of a fresh sketch, though its
// samplers keep the levels the stream allocated. A frame depends only on
// the linear state.
func TestCancelledStreamWritesFreshFrame(t *testing.T) {
	const n = 16
	st := frameDigestStream(n)
	inverse := make(stream.Stream, len(st))
	for i, u := range st {
		inverse[len(st)-1-i] = stream.Update{Op: -u.Op, Edge: u.Edge}
	}
	s := checkpointCases[0].build(t, n, plan.Balanced).(*sketch.SpanningSketch)
	if err := stream.Apply(append(st, inverse...), s); err != nil {
		t.Fatal(err)
	}
	fresh := checkpointCases[0].build(t, n, plan.Balanced).(*sketch.SpanningSketch)
	if s.Words() == fresh.Words() {
		t.Fatal("the stream allocated no sampler level")
	}
	if !bytes.Equal(frametest.Of(t, s), frametest.Of(t, fresh)) {
		t.Error("the cancelled sketch's checkpoint frame differs from a fresh sketch's")
	}
	for v := 0; v < n; v++ {
		if !bytes.Equal(s.VertexShareFrame(v), fresh.VertexShareFrame(v)) {
			t.Errorf("vertex %d: the cancelled sketch's share frame differs from a fresh sketch's", v)
		}
	}
}

// asVersion1 returns a copy of frame that says format version 1, the
// layout that wrote every cell of every allocated level, with its
// checksum recomputed.
func asVersion1(frame []byte) []byte {
	g := bytes.Clone(frame)
	binary.LittleEndian.PutUint16(g[4:], 1)
	return fixCRC(g)
}

// TestFormatVersion1Refused: a version-1 checkpoint frame fails codec.Open
// and ReadFrom with codec.ErrVersion, leaving the ReadFrom receiver as it
// was, and a version-1 share frame fails AddVertexShareFrame the same way,
// for every structure.
func TestFormatVersion1Refused(t *testing.T) {
	for i, frame := range openFrames(t, 4) {
		t.Run(checkpointCases[i].name, func(t *testing.T) {
			old := asVersion1(frame)
			if _, err := codec.Open(bytes.NewReader(old)); !errors.Is(err, codec.ErrVersion) {
				t.Errorf("Open: got %v, want ErrVersion", err)
			}
			dst := checkpointCases[i].build(t, 8, plan.Balanced)
			before := frametest.Of(t, dst)
			if _, err := dst.ReadFrom(bytes.NewReader(old)); !errors.Is(err, codec.ErrVersion) {
				t.Errorf("ReadFrom: got %v, want ErrVersion", err)
			}
			if !bytes.Equal(frametest.Of(t, dst), before) {
				t.Error("a refused ReadFrom changed the receiver")
			}
		})
	}
	for i, frame := range shareFrames(t) {
		s := shareCases[i].build(t, 16)
		if _, err := s.AddVertexShareFrame(asVersion1(frame)); !errors.Is(err, codec.ErrVersion) {
			t.Errorf("%s share frame: got %v, want ErrVersion", shareCases[i].name, err)
		}
	}
}

// malformedShare is a share frame whose first part no writer produces,
// for the shareCases receiver at index receiver, and the error that must
// refuse it.
type malformedShare struct {
	name     string
	receiver int
	frame    []byte
	want     error
}

// malformedShareFrames returns malformed share frames for vertex v of the
// spanning sketch (a sampler a round) and the Becker baseline (one row).
// Each share is a fresh sketch's with its first part replaced, so only
// that part is wrong, or cut after it. At plan.Balanced a spanning sampler
// level has 49 cells (S 8, 3 rows of 16 buckets), a 7-byte bitmap, and a
// Becker row 25 (S 4, 3 rows of 8), a 4-byte bitmap: both bitmaps' last
// bytes have bits past the cell count.
func malformedShareFrames(tb testing.TB, v int) []malformedShare {
	tb.Helper()
	cell := bytes.Repeat([]byte{7}, recovery.CellBytes)
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	level := func(first, last byte) []byte { return []byte{first, 0, 0, 0, 0, 0, last} }
	spanning := checkpointCases[0].build(tb, 16, plan.Balanced).(*sketch.SpanningSketch)
	past := byte(spanning.WireConfig().Sampler.MaxLevels + 1)
	var out []malformedShare
	for _, c := range []struct {
		receiver, part int // the part's length in the fresh share
		cases          []malformedShare
	}{
		{0, 1, []malformedShare{
			{name: "spanning/bit-past-cell-count", frame: join([]byte{1}, level(0x01, 0x02), cell, cell), want: recovery.ErrMalformed},
			{name: "spanning/empty-top-level", frame: join([]byte{2}, level(0x01, 0), cell, level(0, 0)), want: recovery.ErrMalformed},
			{name: "spanning/levels-past-max", frame: []byte{past}, want: recovery.ErrMalformed},
			{name: "spanning/truncated-bitmap", frame: []byte{1, 0x01, 0}, want: recovery.ErrShortBuffer},
			{name: "spanning/truncated-cells", frame: join([]byte{1}, level(0x03, 0), cell), want: recovery.ErrShortBuffer},
		}},
		{6, 4, []malformedShare{
			{name: "becker/bit-past-cell-count", frame: join([]byte{0x01, 0, 0, 0x02}, cell, cell), want: recovery.ErrMalformed},
			{name: "becker/truncated-bitmap", frame: []byte{0x01, 0}, want: recovery.ErrShortBuffer},
			{name: "becker/truncated-cells", frame: join([]byte{0x03, 0, 0, 0}, cell), want: recovery.ErrShortBuffer},
		}},
	} {
		fresh := shareCases[c.receiver].build(tb, 16).VertexShareFrame(v)
		h, payload, _, err := codec.DecodeFrame(fresh)
		if err != nil {
			tb.Fatal(err)
		}
		rest := payload[4+c.part:] // after the vertex index and the first part
		for _, m := range c.cases {
			share := append(bytes.Clone(m.frame), rest...)
			if m.want == recovery.ErrShortBuffer {
				share = m.frame // cut after the part, so the bytes run out
			}
			m.receiver = c.receiver
			m.frame = codec.AppendShareFrame(nil, h.Tag, h.Fingerprint, v, len(share),
				func(b []byte) []byte { return append(b, share...) })
			out = append(out, m)
		}
	}
	return out
}

// TestShareFrameRefusesMalformed: each malformed share frame is refused by
// AddVertexShareFrame with its typed error, and leaves every share of a
// receiver that holds the digest stream as it was.
func TestShareFrameRefusesMalformed(t *testing.T) {
	const n, v = 16, 5
	for _, m := range malformedShareFrames(t, v) {
		t.Run(m.name, func(t *testing.T) {
			s := shareCases[m.receiver].build(t, n)
			if err := stream.Apply(frameDigestStream(n), s); err != nil {
				t.Fatal(err)
			}
			shares := func() (all []byte) {
				for u := 0; u < n; u++ {
					all = append(all, s.VertexShareFrame(u)...)
				}
				return all
			}
			before := shares()
			if _, err := s.AddVertexShareFrame(m.frame); !errors.Is(err, m.want) {
				t.Fatalf("got %v, want %v", err, m.want)
			}
			if !bytes.Equal(shares(), before) {
				t.Fatal("a refused share frame changed the receiver")
			}
		})
	}
}

// FuzzShareFrame feeds share frames to the receiver their tag names,
// seeded from the pinned share frames, their out-of-range twins and the
// malformed share frames of TestShareFrameRefusesMalformed. Each
// input is tried as given and with its checksum recomputed, so mutations
// reach the vertex index and the share parsers instead of stopping at the
// CRC. No input may panic, and an accepted share must frame again.
func FuzzShareFrame(f *testing.F) {
	for _, frame := range shareFrames(f) {
		f.Add(frame)
		f.Add(reframe(frame, 1000))
	}
	for _, m := range malformedShareFrames(f, shareDigestVertex) {
		f.Add(m.frame)
	}
	receivers := map[codec.Tag]int{}
	for i, frame := range shareFrames(f) {
		receivers[codec.Tag(frame[7])] = i
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < codec.FrameOverhead {
			return
		}
		i, ok := receivers[codec.Tag(data[7])]
		if !ok {
			return
		}
		for _, in := range [][]byte{data, fixCRC(append([]byte(nil), data...))} {
			s := shareCases[i].build(t, 16)
			if _, err := s.AddVertexShareFrame(in); err == nil {
				s.VertexShareFrame(int(binary.LittleEndian.Uint32(in[codec.FrameOverhead-4:])))
			}
		}
	})
}

// TestCheckpointMergeOpened: a sketch reopened from a checkpoint frame
// merges into an identically constructed one, for every implementation.
// The reopened sketch is built from the frame's resolved configuration
// while the constructed one may leave optional fields defaulted; Merge
// must compare wire identity, not raw parameters.
func TestCheckpointMergeOpened(t *testing.T) {
	const n = 12
	st := checkpointStream(n)
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.build(t, n, plan.Balanced)
			if err := stream.Apply(st, src); err != nil {
				t.Fatal(err)
			}
			opened, err := codec.Open(bytes.NewReader(frametest.Of(t, src)))
			if err != nil {
				t.Fatal(err)
			}
			dst := tc.build(t, n, plan.Balanced)
			if err := dst.Merge(opened); err != nil {
				t.Fatalf("merging the reopened sketch: %v", err)
			}
			if !frametest.Equal(t, dst, src) {
				t.Fatal("merged state differs from the source")
			}
		})
	}
}

// TestCheckpointRejectedReadFromLeavesReceiver: a checkpoint frame whose
// checksum and fingerprint are valid but whose state is cut short is
// rejected by ReadFrom before the receiver changes, for every
// implementation. States used to be merged vertex by vertex, so one cut in
// its last shares failed only after the earlier vertices were added.
func TestCheckpointRejectedReadFromLeavesReceiver(t *testing.T) {
	const n, cut = 12, 100
	st := checkpointStream(n)
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.build(t, n, plan.Balanced)
			if err := stream.Apply(st, src); err != nil {
				t.Fatal(err)
			}
			frame := frametest.Of(t, src)
			short := append(bytes.Clone(frame[:len(frame)-4-cut]), 0, 0, 0, 0)
			binary.LittleEndian.PutUint64(short[16:], uint64(len(short)-codec.FrameOverhead))
			dst := tc.build(t, n, plan.Balanced)
			if err := stream.Apply(st[:len(st)/2], dst); err != nil {
				t.Fatal(err)
			}
			before := frametest.Of(t, dst)
			if _, err := dst.ReadFrom(bytes.NewReader(fixCRC(short))); err == nil {
				t.Fatalf("ReadFrom accepted a state cut %d bytes short", cut)
			}
			if !bytes.Equal(frametest.Of(t, dst), before) {
				t.Fatal("a rejected ReadFrom changed the receiver")
			}
		})
	}
}

// TestCheckpointOpenInPlace pins the copy-what-you-keep contract: Open and
// ReadFrom read a frame held in a *bytes.Buffer where it lies, so no sketch
// may keep a window into the caller's bytes. For every implementation the
// frame is read from a buffer that holds it followed by trailing bytes; the
// buffer must advance past exactly the frame, and once its backing array
// is overwritten the sketch must still write the original frame.
func TestCheckpointOpenInPlace(t *testing.T) {
	const n = 12
	st := checkpointStream(n)
	trailing := []byte("trailing bytes")
	readInPlace := func(t *testing.T, frame []byte, read func(*bytes.Buffer) error) {
		t.Helper()
		backing := append(bytes.Clone(frame), trailing...)
		buf := bytes.NewBuffer(backing)
		if err := read(buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), trailing) {
			t.Fatalf("%d bytes left after the read, want the %d trailing ones", buf.Len(), len(trailing))
		}
		for i := range backing {
			backing[i] = 0xA5
		}
	}
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.build(t, n, plan.Balanced)
			if err := stream.Apply(st, src); err != nil {
				t.Fatal(err)
			}
			frame := frametest.Of(t, src)
			var opened graphsketch.Sketch
			readInPlace(t, frame, func(buf *bytes.Buffer) (err error) {
				opened, err = codec.Open(buf)
				return err
			})
			if !bytes.Equal(frametest.Of(t, opened), frame) {
				t.Fatal("the opened sketch changed with the buffer it was read from")
			}
			dst := tc.build(t, n, plan.Balanced)
			readInPlace(t, frame, func(buf *bytes.Buffer) error {
				_, err := dst.ReadFrom(buf)
				return err
			})
			if !bytes.Equal(frametest.Of(t, dst), frame) {
				t.Fatal("the restored sketch changed with the buffer it was read from")
			}
		})
	}
}

// failingWriter accepts k bytes, counting its Write calls, and then fails.
type failingWriter struct{ k, writes int }

var errWriteFailed = errors.New("write failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if len(p) <= w.k {
		w.k -= len(p)
		return len(p), nil
	}
	n := w.k
	w.k = 0
	return n, errWriteFailed
}

// TestCheckpointWriteFailure: a writer that fails partway through a frame
// makes every structure's WriteTo return that error with the bytes it
// accepted — the receiver holds a truncated frame, as after one failed
// Write. The frames at this n span several writes of the streaming writer.
func TestCheckpointWriteFailure(t *testing.T) {
	const n = 20
	st := checkpointStream(n)
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t, n, plan.Balanced)
			if err := stream.Apply(st, s); err != nil {
				t.Fatal(err)
			}
			var all failingWriter
			all.k = 1 << 40
			size, err := s.WriteTo(&all)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d-byte frame in %d writes", size, all.writes)
			for _, k := range []int64{0, 1, 100, size / 3, size / 2, size - 5, size - 1} {
				n, err := s.WriteTo(&failingWriter{k: int(k)})
				if !errors.Is(err, errWriteFailed) || n != k {
					t.Fatalf("writer failing after %d of %d bytes: WriteTo = (%d, %v), want (%d, the write error)",
						k, size, n, err, k)
				}
			}
		})
	}
}

// TestCheckpointStreamAllocation pins the streaming writer at vconn-dense's
// shape (vertexconn n = 64, K = 3, 48 subgraphs, after churn): WriteTo
// passes the frame (9.3 MB of nonzero cells; 48 MB when every allocated
// cell was written) through one buffer of a few hundred KiB, the flush
// threshold plus the longest batch of shares, so it allocates under 1 MiB.
func TestCheckpointStreamAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 48 MB sketch")
	}
	load, cycle := denseChurn(1)
	s, err := vertexconn.New(vertexconn.Params{N: 64, K: 3, Subgraphs: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateBatch(load); err != nil {
		t.Fatal(err)
	}
	for _, batch := range cycle[:len(cycle)/2] {
		if err := s.UpdateBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	count := failingWriter{k: 1 << 40}
	size, err := s.WriteTo(&count)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := s.WriteTo(io.Discard)
	runtime.ReadMemStats(&after)
	if err != nil || n != size {
		t.Fatalf("WriteTo = (%d, %v), want (%d, nil)", n, err, size)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("WriteTo allocated %d bytes, %.4f× its %d-byte frame", alloc, float64(alloc)/float64(n), n)
	if alloc > 1<<20 {
		t.Fatalf("WriteTo allocated %d bytes for a %d-byte frame, want <= 1 MiB", alloc, n)
	}
}
