package shardplane

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
)

// TCPOptions tunes a TCP plane. The zero value is usable.
type TCPOptions struct {
	// CheckpointEvery pulls a fresh checkpoint from every shard after this
	// many routed batches, bounding both the coordinator's replay buffer
	// and the work lost to a shard failure. 0 means 64; negative disables
	// periodic pulls (the replay buffer then grows with the stream).
	CheckpointEvery int
}

const (
	// dialTimeout bounds one dial attempt.
	dialTimeout = 5 * time.Second
	// maxRetries is how many reconnect attempts follow a shard failure
	// before Route/Gather gives up.
	maxRetries = 3
	// retryBackoff is the base sleep between reconnect attempts, linearly
	// scaled by attempt.
	retryBackoff = 50 * time.Millisecond
)

// shardConn is the coordinator's view of one remote shard: the live
// connection plus everything needed to rebuild the shard from scratch —
// the last pulled checkpoint frame and the batch frames routed since.
type shardConn struct {
	addr     string
	conn     net.Conn
	lastCkpt []byte   // restore point: checkpoint frame for hello on reconnect
	pending  [][]byte // encoded batch frames since lastCkpt, replayed on reconnect
}

// TCPTransport routes batches to cmd/gsd shard processes over stdlib TCP,
// one strict request-response connection per shard, every message a codec
// frame under the prototype sketch's identity.
//
// Failure model: a shard (or its link) dying surfaces as a transport error
// on write or ack. The coordinator then re-dials, replays the hello with
// the shard's last pulled checkpoint — which resets the remote member to
// the restore point — and re-sends every batch frame routed since. The
// reset-then-replay order makes delivery exactly-once by construction: an
// ack lost in flight cannot double-apply its batch, because the restore
// discarded the first application. Periodic checkpoint pulls
// (CheckpointEvery) advance the restore point and trim the replay buffer.
type TCPTransport struct {
	tag    codec.Tag
	fp     uint64
	bounds []int
	every  int // CheckpointEvery with its default applied

	mu     sync.Mutex // serializes Route/Gather/Close and guards the fields below
	closed bool
	shards []*shardConn
	rt     *router
	errs   []error
	routed int // batches since the last periodic checkpoint pull
	stats  *shardStats
}

// DialTCP connects a coordinator to one shard server per address. Shard s
// owns vertices [s*n/k, (s+1)*n/k) of proto's vertex space and is
// initialized from proto's checkpoint frame — so proto must be freshly
// constructed (empty): it is the construction template (type, parameters,
// seed) shipped in each hello, and any state it carried would be counted
// once per shard at gather time.
func DialTCP(proto Member, addrs []string, opt TCPOptions) (*TCPTransport, error) {
	if len(addrs) == 0 {
		return nil, ErrNoAddrs
	}
	var buf bytes.Buffer
	if _, err := proto.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("shardplane: checkpointing prototype: %w", err)
	}
	h, _, _, err := codec.DecodeFrame(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("shardplane: prototype frame: %w", err)
	}
	t := &TCPTransport{
		tag:    h.Tag,
		fp:     h.Fingerprint,
		bounds: SplitBounds(proto.NumVertices(), len(addrs)),
		every:  opt.CheckpointEvery,
		shards: make([]*shardConn, len(addrs)),
		errs:   make([]error, len(addrs)),
		stats:  newShardStats(obs.Default(), len(addrs)),
	}
	if t.every == 0 {
		t.every = 64
	}
	t.rt = newRouter(t.bounds)
	for s, addr := range addrs {
		t.shards[s] = &shardConn{addr: addr, lastCkpt: buf.Bytes()}
		if err := t.reconnect(t.shards[s], s); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// Shards returns the number of remote shards.
func (t *TCPTransport) Shards() int { return len(t.shards) }

// Bounds returns the fixed shard boundaries.
func (t *TCPTransport) Bounds() []int { return t.bounds }

// Route splits the batch into per-shard sub-batches and sends each to its
// shard concurrently, blocking until every shard has acked. A shard's
// application error (bad edge, fingerprint reject) is returned as-is; a
// transport failure triggers reconnect-and-replay first and only surfaces
// if the shard stays unreachable. The first error by shard index wins.
func (t *TCPTransport) Route(batch []graph.WeightedEdge) error {
	if len(batch) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	sp := obs.StartSpan(routeSpan)
	defer sp.End(slog.Int("updates", len(batch)), slog.Int("shards", len(t.shards)))
	subs := t.rt.route(batch)
	var wg sync.WaitGroup
	for s := range t.shards {
		t.errs[s] = nil
		if len(subs[s]) == 0 {
			continue
		}
		frame := codec.AppendFrame(nil,
			codec.Header{Version: codec.Version, Kind: codec.KindBatch, Tag: t.tag, Fingerprint: t.fp},
			appendBatch(nil, subs[s]))
		wg.Add(1)
		go func(s int, frame []byte) {
			defer wg.Done()
			//lint:ignore lockatomic each sender owns slot errs[s] exclusively; Route reads the slots only after wg.Wait, which is the happens-before edge
			t.errs[s] = t.sendBatch(t.shards[s], s, frame)
		}(s, frame)
	}
	if t.stats != nil {
		t.stats.countOwned(batch, t.bounds)
	}
	wg.Wait()
	for _, err := range t.errs {
		if err != nil {
			return err
		}
	}
	t.routed++
	if t.every > 0 && t.routed%t.every == 0 {
		return t.pullAll(nil)
	}
	return nil
}

// sendBatch delivers one encoded batch frame. The frame joins the shard's
// replay buffer before the send, so a mid-flight failure is recovered by
// reconnect (restore + full replay) rather than a blind resend — the
// restore makes the delivery exactly-once even when the ack was lost.
func (t *TCPTransport) sendBatch(sc *shardConn, shard int, frame []byte) error {
	sc.pending = append(sc.pending, frame)
	err := writeRawFrame(sc.conn, frame)
	if err == nil {
		err = readAck(sc.conn)
	}
	if err == nil || errors.Is(err, ErrRemote) {
		return err // delivered, or the shard rejected it deterministically
	}
	return t.reconnect(sc, shard)
}

// Gather pulls every shard's current checkpoint frame and merges it into
// dst via its fingerprint-checked ReadFrom — dst must therefore be a
// Checkpointer constructed identically to the dial prototype (codec.Open
// on the prototype's frame is the canonical way). Gathering twice into
// one destination double-counts, so gather into a fresh sketch per
// decode. Each successful pull also advances the shard's restore point.
func (t *TCPTransport) Gather(dst graphsketch.Sketch) error {
	rf, ok := dst.(io.ReaderFrom)
	if !ok {
		return fmt.Errorf("shardplane: gather destination %T cannot read checkpoint frames: %w", dst, ErrGatherMismatch)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	sp := obs.StartSpan(gatherSpan)
	defer sp.End(slog.Int("shards", len(t.shards)))
	return t.pullAll(rf)
}

// pullAll pulls a checkpoint from every shard, all shards at once since
// each builds and sends its frame independently. When rf is non-nil the
// frames are then merged into it in shard order. Callers hold t.mu.
func (t *TCPTransport) pullAll(rf io.ReaderFrom) error {
	frames := make([][]byte, len(t.shards))
	errs := make([]error, len(t.shards))
	var wg sync.WaitGroup
	for s, sc := range t.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frames[s], errs[s] = t.pull(sc, s)
		}()
	}
	wg.Wait()
	for s, sc := range t.shards {
		if errs[s] != nil {
			return fmt.Errorf("shardplane: shard %d (%s): %w", s, sc.addr, errs[s])
		}
	}
	if rf == nil {
		return nil
	}
	// ReadFrom reads each frame in place and copies what it keeps, so the
	// frames stay intact as the shards' restore points. pullOnce verified
	// them, CRC included, so the merge skips a second checksum pass.
	for s, sc := range t.shards {
		if _, err := rf.ReadFrom(codec.Verified{Buffer: bytes.NewBuffer(frames[s])}); err != nil {
			spm.gatherRejects.Inc()
			return fmt.Errorf("shardplane: merging shard %d (%s): %w", s, sc.addr, err)
		}
	}
	return nil
}

// pull fetches one shard's checkpoint frame, reconnecting once on a
// transport failure, and advances the shard's restore point on success.
func (t *TCPTransport) pull(sc *shardConn, shard int) ([]byte, error) {
	raw, err := t.pullOnce(sc)
	if err != nil && !errors.Is(err, ErrRemote) {
		if rerr := t.reconnect(sc, shard); rerr != nil {
			return nil, rerr
		}
		raw, err = t.pullOnce(sc)
	}
	if err != nil {
		return nil, err
	}
	sc.lastCkpt = raw
	sc.pending = sc.pending[:0]
	return raw, nil
}

func (t *TCPTransport) pullOnce(sc *shardConn) ([]byte, error) {
	h := codec.Header{Version: codec.Version, Kind: codec.KindPull, Tag: t.tag, Fingerprint: t.fp}
	if err := writeFrame(sc.conn, h, nil); err != nil {
		return nil, err
	}
	// The received frame, CRC-verified and exact-size, is kept as is: it
	// is the shard's next restore point.
	ch, frame, n, err := codec.ReadFrameBytes(sc.conn)
	spm.rxBytes.Add(n)
	if err != nil {
		return nil, err
	}
	return frame, expectKind(ch, codec.KindCheckpoint)
}

// reconnect re-dials a shard, restores it from the last pulled checkpoint
// via hello, and replays every batch frame routed since. On success the
// shard's state is exactly as if no failure had happened.
func (t *TCPTransport) reconnect(sc *shardConn, shard int) error {
	redial := sc.conn != nil // distinguishes recovery from the initial dial
	if sc.conn != nil {
		sc.conn.Close()
		sc.conn = nil
	}
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * retryBackoff)
		}
		conn, err := net.DialTimeout("tcp", sc.addr, dialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		if err := t.restore(conn, sc, shard); err != nil {
			conn.Close()
			if errors.Is(err, ErrRemote) {
				return err // deterministic rejection; retrying cannot help
			}
			lastErr = err
			continue
		}
		sc.conn = conn
		if redial {
			spm.reconnects.Inc()
		}
		return nil
	}
	return fmt.Errorf("shardplane: shard %d (%s) unreachable after %d attempts: %w",
		shard, sc.addr, maxRetries+1, lastErr)
}

// restore runs the hello handshake and replay on a fresh connection.
func (t *TCPTransport) restore(conn net.Conn, sc *shardConn, shard int) error {
	payload := appendHello(nil, helloPayload{
		Shard:  uint32(shard),
		Shards: uint32(len(t.shards)),
		Lo:     uint32(t.bounds[shard]),
		Hi:     uint32(t.bounds[shard+1]),
		Ckpt:   sc.lastCkpt,
	})
	h := codec.Header{Version: codec.Version, Kind: codec.KindHello, Tag: t.tag, Fingerprint: t.fp}
	if err := writeFrame(conn, h, payload); err != nil {
		return err
	}
	if err := readAck(conn); err != nil {
		return err
	}
	for _, frame := range sc.pending {
		if err := writeRawFrame(conn, frame); err != nil {
			return err
		}
		if err := readAck(conn); err != nil {
			return err
		}
	}
	return nil
}

// Close hangs up every shard connection. The shards keep serving other
// sessions; only this coordinator's sessions end. Idempotent.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	for _, sc := range t.shards {
		if sc != nil && sc.conn != nil {
			sc.conn.Close()
			sc.conn = nil
		}
	}
	return nil
}

func writeRawFrame(w io.Writer, frame []byte) error {
	n, err := w.Write(frame)
	spm.txBytes.Add(int64(n))
	return err
}

func readAck(r io.Reader) error {
	h, payload, err := readFrame(r)
	if err != nil {
		return err
	}
	if err := expectKind(h, codec.KindAck); err != nil {
		return err
	}
	return parseAck(payload)
}

var _ Transport = (*TCPTransport)(nil)
