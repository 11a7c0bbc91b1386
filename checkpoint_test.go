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
	"graphsketch/internal/testutil/frametest"
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
		s, err := edgeconn.New(edgeconn.Params{
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
		s, err := reconstruct.New(reconstruct.Params{
			N: n, K: 2, Spanning: plan.Spanning(n, prof), Seed: 7,
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
		}, "f9d20214136cfb4365a95e2121a8ed8cf8969088adf317659753e6f39922a6b5"},
		{"vertexconn", func(t *testing.T) graphsketch.Checkpointer {
			return checkpointCases[3].build(t, n, plan.Balanced)
		}, nil, "2f6318f83f0c2d14136956d561ff16ba647caabe6058012c2d95b0413d0db649"},
		{"edgeconn", func(t *testing.T) graphsketch.Checkpointer {
			return checkpointCases[2].build(t, n, plan.Balanced)
		}, nil, "88287181fc3537118fc681b1cf2dcc0e68c99b489292d043f9fadeda8b299a1c"},
		{"estimator", func(t *testing.T) graphsketch.Checkpointer {
			return checkpointCases[4].build(t, n, plan.Balanced)
		}, nil, "667f19d438bc55e5e4d9ca8e20976e965a3fcd11eda00e968830bcf126a45517"},
		{"reconstruct", func(t *testing.T) graphsketch.Checkpointer {
			return checkpointCases[5].build(t, n, plan.Balanced)
		}, nil, "d2795294cd27301d4d480190510306e125eb19dbf9c66f294fa37806f60b525e"},
		{"sparsify", func(t *testing.T) graphsketch.Checkpointer {
			return checkpointCases[6].build(t, n, plan.Balanced)
		}, nil, "3a299b724bc42557bc8b6d21fc4528cb515f69778c1b22f9f87c3f0a86d60c95"},
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
// merges, so their bytes are wire format too.
func TestShareFrameDigests(t *testing.T) {
	want := map[string]string{
		"spanning":    "b5cde05a5f81af272559314c769f80acbcce5d7c1157fd77de5ed30f1a399be9",
		"skeleton":    "391fda6538f43454a4abc24a5b5af2936228aea10f14007429d28ba423ea8ea1",
		"vertexconn":  "4afa00c978ade6276d31a2efbf92c84c3f1377391965ed23a950fdc1894167d7",
		"edgeconn":    "bd9bf5dd668bf495ff9a25132124492d22818045dc19ca35f11cff9f3c0089f6",
		"reconstruct": "2b970a61a773e4b78463edfb30f268fa6987f165a53314cbdb010eb74ff6bbfc",
		"sparsify":    "3925930d5cd657689107012a930e0ec1c74837d48c472623a6040a41b8de0f53",
		"becker":      "866c9ebf150bee44421e28b07eb13597b25f3a1d6ce12117b6090ad87dfeafd2",
	}
	for i, frame := range shareFrames(t) {
		name := shareCases[i].name
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

// FuzzShareFrame feeds share frames to the receiver their tag names,
// seeded from the pinned share frames and their out-of-range twins. Each
// input is tried as given and with its checksum recomputed, so mutations
// reach the vertex index and the share parsers instead of stopping at the
// CRC. No input may panic, and an accepted share must frame again.
func FuzzShareFrame(f *testing.F) {
	for _, frame := range shareFrames(f) {
		f.Add(frame)
		f.Add(reframe(frame, 1000))
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
// passes the ~48 MB frame through one buffer of a few hundred KiB, about
// one vertex share, so it allocates far less than the frame.
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
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("WriteTo allocated %.4f× its %d-byte frame", ratio, n)
	if ratio > 1.0/16 {
		t.Fatalf("WriteTo allocated %.4f× its %d-byte frame, want <= 1/16", ratio, n)
	}
}
