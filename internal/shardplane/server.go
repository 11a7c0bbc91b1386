package shardplane

import (
	"bytes"
	"fmt"
	"log/slog"
	"net"
	"sync"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
)

// Server is one shard of a TCP plane: it accepts coordinator sessions and,
// per session, reconstructs a member sketch from the hello frame's
// embedded checkpoint, applies the session's batch frames range-restricted,
// and answers pull requests with its current checkpoint frame.
//
// The server itself is stateless across sessions by design: a shard's
// authoritative state rides the session, and a restarted shard is restored
// by the coordinator's hello carrying the last pulled checkpoint (the PR 4
// from-cold path). That makes kill-and-restore a pure protocol exercise —
// nothing on the shard host needs to survive the crash.
type Server struct {
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a shard server over an already-bound listener. The
// caller picks the address (pass a ":0" listener for an ephemeral port and
// read it back from Addr); Serve starts accepting.
func NewServer(ln net.Listener) *Server {
	return &Server{ln: ln, conns: make(map[net.Conn]struct{})}
}

// Addr returns the listener's bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts coordinator sessions until Close. It returns nil when the
// listener was closed by Close, the accept error otherwise.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.session(conn)
	}
}

// Close stops accepting, tears down every active session, and waits for
// the session goroutines to exit. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) done(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

func writeAck(conn net.Conn, tag codec.Tag, fp uint64, aerr error) error {
	h := codec.Header{Version: codec.Version, Kind: codec.KindAck, Tag: tag, Fingerprint: fp}
	return writeFrame(conn, h, appendAck(nil, aerr))
}

// session runs one coordinator connection: hello, then batch/pull frames
// until the peer hangs up. Every application failure is reported in an ack
// and the session continues where that is safe (a bad batch leaves the
// member intact up to the failing edge; the coordinator decides whether to
// proceed); a failed hello ends the session, since there is no member to
// serve.
func (s *Server) session(conn net.Conn) {
	defer s.done(conn)
	defer conn.Close()
	sp := obs.StartSpan(sessionSpan)
	defer sp.End(slog.String("peer", conn.RemoteAddr().String()))

	h, payload, err := readFrame(conn)
	if err != nil {
		return // peer vanished before hello; nothing to report to
	}
	member, lo, hi, err := openHello(h, payload)
	if ackErr := writeAck(conn, h.Tag, h.Fingerprint, err); ackErr != nil || err != nil {
		return
	}
	tag, fp := h.Tag, member.Fingerprint()
	sp.SetAttrs(slog.String("tag", tag.String()), slog.Int("lo", lo), slog.Int("hi", hi))

	var batch []graph.WeightedEdge
	applied := 0
	for {
		h, payload, err := readFrame(conn)
		if err != nil {
			sp.SetAttrs(slog.Int("batches", applied))
			return // includes clean EOF: the coordinator hung up
		}
		switch h.Kind {
		case codec.KindBatch:
			var aerr error
			if h.Tag != tag || h.Fingerprint != fp {
				aerr = fmt.Errorf("codec: batch is %v/%016x, session is %v/%016x: %w",
					h.Tag, h.Fingerprint, tag, fp, codec.ErrFingerprint)
			} else {
				batch, aerr = parseBatch(batch[:0], payload)
				if aerr == nil {
					aerr = member.UpdateBatchRange(batch, lo, hi)
					applied++
				}
			}
			if writeAck(conn, tag, fp, aerr) != nil {
				return
			}
		case codec.KindPull:
			n, werr := member.WriteTo(conn)
			spm.txBytes.Add(n)
			if werr != nil {
				return
			}
		default:
			writeAck(conn, tag, fp, fmt.Errorf("shardplane: unexpected frame kind %d in session: %w", h.Kind, codec.ErrUnknownType))
			return
		}
	}
}

// openHello validates a hello frame and reconstructs the session member
// from its embedded checkpoint.
func openHello(h codec.Header, payload []byte) (Member, int, int, error) {
	if err := expectKind(h, codec.KindHello); err != nil {
		return nil, 0, 0, err
	}
	hello, err := parseHello(payload)
	if err != nil {
		return nil, 0, 0, err
	}
	sk, err := codec.Open(bytes.NewBuffer(hello.Ckpt))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("shardplane: opening hello checkpoint: %w", err)
	}
	member, ok := sk.(Member)
	if !ok {
		return nil, 0, 0, fmt.Errorf("shardplane: %T is not vertex-sharded: %w", sk, ErrNotMember)
	}
	if n := member.NumVertices(); int(hello.Hi) > n {
		return nil, 0, 0, fmt.Errorf("shardplane: hello range [%d,%d) exceeds member vertex space [0,%d): %w",
			hello.Lo, hello.Hi, n, graphsketch.ErrVertexRange)
	}
	if h.Fingerprint != member.Fingerprint() {
		return nil, 0, 0, fmt.Errorf("shardplane: hello header %016x, member %016x: %w",
			h.Fingerprint, member.Fingerprint(), codec.ErrFingerprint)
	}
	return member, int(hello.Lo), int(hello.Hi), nil
}
