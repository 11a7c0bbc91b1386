package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/oracle"
	"graphsketch/internal/shardplane"
	"graphsketch/internal/sketch"
)

// The workloads' sketch parameters.
const (
	vconnK         = 3
	vconnSubgraphs = 48
	hybridBudget   = 32
	tcpShards      = 2
)

// newSketch constructs an empty sketch of the workload's kind.
func newSketch(kind string, n int, seed uint64) (shardplane.Member, error) {
	switch kind {
	case "vconn":
		return vertexconn.New(vertexconn.Params{N: n, K: vconnK, Subgraphs: vconnSubgraphs, Seed: seed})
	case "hybrid":
		inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: seed})
		if err != nil {
			return nil, err
		}
		return hybrid.New(inner, hybridBudget)
	case "tcp":
		return sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: seed})
	}
	return nil, fmt.Errorf("unknown sketch kind %q", kind)
}

// stateWords is the paper's space measure of a sketch: its words minus
// the interned shared randomness.
func stateWords(s graphsketch.Sketch) int {
	switch s := s.(type) {
	case *hybrid.Sketch:
		return s.StateWords()
	case *vertexconn.Sketch:
		return s.Words() - s.SharedWords()
	case *sketch.SpanningSketch:
		return s.Words() - s.SharedWords()
	}
	return 0
}

// shardServer is one in-process TCP shard.
type shardServer struct {
	srv  *shardplane.Server
	done chan error
}

// stack is one built serving stack: sketch, shard plane, engine and
// oracle, driven only through their public functions.
type stack struct {
	n     int
	sk    shardplane.Member // the local sketch, or the TCP prototype
	eng   *engine.Engine
	orc   *oracle.Oracle
	tcp   *shardplane.TCPTransport
	proto []byte // TCP prototype frame, reopened as each gather destination
	srvs  []shardServer
	wire  *byteCount // bytes on the shard connections; traced TCP stacks only
}

// build constructs the stack for kind. A non-nil tracer wraps the sharded
// target handed to the local transport, or the listeners handed to the
// TCP shard servers, so per-shard work and wire bytes are seen from
// outside the library.
func build(kind string, n int, seed uint64, tr *tracer) (*stack, error) {
	sk, err := newSketch(kind, n, seed)
	if err != nil {
		return nil, err
	}
	st := &stack{n: n, sk: sk}
	if kind != "tcp" {
		var target graphsketch.Sharded = sk
		if tr != nil {
			target = &shardProbe{Sharded: sk, tr: tr}
		}
		st.eng = engine.NewWithTransport(shardplane.NewLocal(target, shardplane.Options{}))
		switch s := sk.(type) {
		case *vertexconn.Sketch:
			st.orc = oracle.ForVertexConn(s)
		case *hybrid.Sketch:
			st.orc = oracle.ForHybrid(s)
		}
		if tr != nil {
			if st.orc, err = tracedOracle(st, tr); err != nil {
				st.close()
				return nil, err
			}
		}
		return st, nil
	}
	if tr != nil {
		st.wire = &byteCount{}
	}
	addrs := make([]string, 0, tcpShards)
	for i := 0; i < tcpShards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		if st.wire != nil {
			ln = &countingListener{Listener: ln, c: st.wire, tr: tr, shard: i}
		}
		srv := shardplane.NewServer(ln)
		done := make(chan error, 1)
		go func() { done <- srv.Serve() }()
		st.srvs = append(st.srvs, shardServer{srv: srv, done: done})
		addrs = append(addrs, srv.Addr().String())
	}
	var buf bytes.Buffer
	if _, err := sk.WriteTo(&buf); err != nil {
		st.close()
		return nil, err
	}
	st.proto = buf.Bytes()
	st.tcp, err = shardplane.DialTCP(sk, addrs, shardplane.TCPOptions{})
	if err != nil {
		st.close()
		return nil, err
	}
	st.eng = engine.NewWithTransport(st.tcp)
	if st.orc, err = oracle.ForCoordinator(st.tcp, sk); err != nil {
		st.close()
		return nil, err
	}
	if tr != nil {
		if st.orc, err = tracedOracle(st, tr); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// close releases the engine (and with it the transport) and stops the
// shard servers, waiting for each to exit.
func (st *stack) close() {
	if st.eng != nil {
		st.eng.Close()
	} else if st.tcp != nil {
		st.tcp.Close()
	}
	for _, s := range st.srvs {
		s.srv.Close()
		<-s.done
	}
	st.srvs = nil
}

// ask sends one query to the oracle.
func (st *stack) ask(q query) (bool, error) {
	if q.remove != nil {
		return st.orc.DisconnectedBy(q.remove)
	}
	return st.orc.Connected(q.u, q.v)
}

// state returns the sketch holding the stack's full state: the local
// sketch itself, or for TCP a fresh sketch the shards were gathered into.
func (st *stack) state() (shardplane.Member, error) {
	if st.tcp == nil {
		return st.sk, nil
	}
	fresh, err := codec.Open(bytes.NewReader(st.proto))
	if err != nil {
		return nil, err
	}
	if err := st.tcp.Gather(fresh); err != nil {
		return nil, err
	}
	m, ok := fresh.(shardplane.Member)
	if !ok {
		return nil, fmt.Errorf("gathered %T is not a shard member", fresh)
	}
	return m, nil
}

// frameOf checkpoints s into memory.
func frameOf(s io.WriterTo) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// shardProbe wraps the sketch handed to a LocalTransport and records one
// span per shard per batch: the shard's busy time.
type shardProbe struct {
	graphsketch.Sharded
	tr *tracer
}

func (p *shardProbe) UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error {
	start := time.Now()
	err := p.Sharded.UpdateBatchRange(batch, lo, hi)
	p.tr.shard(lo, start, time.Now())
	return err
}

// byteCount totals the bytes the TCP shard servers read and write.
type byteCount struct{ rx, tx atomic.Int64 }

func (c *byteCount) total() int64 { return c.rx.Load() + c.tx.Load() }

// countingListener wraps the listener handed to a TCP shard server. Its
// connections count bytes and report the server's busy time per request:
// from the read that completed a request to the first write of the reply,
// which is when the server parses and applies a batch.
type countingListener struct {
	net.Listener
	c     *byteCount
	tr    *tracer
	shard int
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, l: l}, nil
}

// countingConn is used by one server session goroutine at a time, so
// lastRead needs no lock.
type countingConn struct {
	net.Conn
	l        *countingListener
	lastRead time.Time
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.c.rx.Add(int64(n))
	c.lastRead = time.Now()
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if !c.lastRead.IsZero() {
		c.l.tr.shard(c.l.shard, c.lastRead, time.Now())
		c.lastRead = time.Time{}
	}
	// Count before writing: the peer may act on the bytes before Write
	// returns here, and the count must already include them.
	c.l.c.tx.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	c.l.c.tx.Add(int64(n - len(p)))
	return n, err
}
