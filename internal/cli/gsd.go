package cli

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/oracle"
	"graphsketch/internal/shardplane"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
)

// RunGSD implements cmd/gsd, the graph-sketch daemon: the same binary runs
// as one shard of a TCP shard plane (-serve) or as the coordinator that
// drives a set of shards through a dynamic stream and decodes the gathered
// state (-coordinator).
func RunGSD(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	serve := fs.Bool("serve", false, "run as a shard server")
	addr := fs.String("addr", "127.0.0.1:0", "listen address for -serve (':0' picks an ephemeral port; the bound address is reported on stdout)")
	coord := fs.Bool("coordinator", false, "run as a coordinator: ingest a stream across -shards and decode the gathered state")
	shards := fs.String("shards", "", "comma-separated shard server addresses (coordinator mode)")
	kind := fs.String("sketch", "spanning", "member sketch: spanning | skeleton | hybrid")
	n := fs.Int("n", 0, "number of vertices (coordinator mode; required)")
	k := fs.Int("k", 4, "skeleton layers (-sketch skeleton)")
	budget := fs.Int("budget", 32, "per-vertex exact-buffer words (-sketch hybrid)")
	seed := fs.Uint64("seed", 1, "random seed — the cluster's shared public randomness")
	file := fs.String("stream", "-", "stream file ('-' = stdin)")
	batch := fs.Int("batch", engine.DefaultBatchSize, "updates per routed batch")
	ckptEvery := fs.Int("checkpoint-every", 0, "pull shard checkpoints every this many batches (0 = 64; negative disables periodic pulls)")
	verify := fs.Bool("verify", false, "re-ingest the stream serially and require the gathered coordinator state to byte-match the serial baseline")
	connected := fs.String("connected", "", "report whether the pair 'u,v' is connected, served from the coordinator oracle")
	obsAddr := obsAddrFlag(fs)
	traceOut := traceOutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := startObs(*obsAddr, stderr); err != nil {
		return err
	}
	closeTrace, err := startTraceOut(*traceOut, stderr)
	if err != nil {
		return err
	}
	defer closeTrace()

	if *serve == *coord {
		return errors.New("need exactly one of -serve or -coordinator")
	}
	if *serve {
		return runShardServer(*addr, stdout)
	}
	return runCoordinator(coordOptions{
		shards: *shards, kind: *kind, n: *n, k: *k, budget: *budget,
		seed: *seed, file: *file, batch: *batch, ckptEvery: *ckptEvery,
		verify: *verify, connected: *connected,
	}, stdin, stdout, stderr)
}

// runShardServer listens on addr and serves shard sessions until the
// process is interrupted. The bound address goes to stdout first, so a
// driver passing ':0' can read the ephemeral port back.
func runShardServer(addr string, stdout io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := shardplane.NewServer(ln)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		srv.Close()
	}()
	fmt.Fprintf(stdout, "gsd: shard listening on %s\n", srv.Addr())
	return srv.Serve()
}

type coordOptions struct {
	shards, kind     string
	n, k, budget     int
	seed             uint64
	file             string
	batch, ckptEvery int
	verify           bool
	connected        string
}

// runCoordinator dials the shard servers, streams the input through the
// TCP plane, gathers the shards' state into a fresh sketch, and decodes it.
func runCoordinator(o coordOptions, stdin io.Reader, stdout, stderr io.Writer) error {
	if o.n < 2 {
		return errors.New("coordinator mode needs -n >= 2")
	}
	var u, v int
	if o.connected != "" {
		var err error
		if u, v, err = parsePair(o.connected, o.n); err != nil {
			return err
		}
	}
	addrs := splitAddrs(o.shards)
	if len(addrs) == 0 {
		return errors.New("coordinator mode needs -shards host:port[,host:port...]")
	}
	proto, err := clusterProto(o.kind, o.n, o.k, o.budget, o.seed)
	if err != nil {
		return err
	}
	in, closeFn, err := openStream(o.file, stdin)
	if err != nil {
		return err
	}
	st, err := stream.ReadText(in)
	closeFn()
	if err != nil {
		return err
	}
	tr, gathered, err := ingestCluster(st, proto, addrs,
		shardplane.TCPOptions{CheckpointEvery: o.ckptEvery}, o.batch, o.verify, stdout)
	if err != nil {
		return err
	}
	defer tr.Close()
	h, err := gathered.(oracle.Decoder).Decode(nil)
	if err != nil {
		return err
	}
	comps := graphalg.ComponentsOf(h).Components()
	fmt.Fprintf(stderr, "gsd: %d updates over %d shards (%s); certificate: %d edges\n",
		len(st), tr.Shards(), o.kind, h.EdgeCount())
	fmt.Fprintf(stdout, "components: %d\n", comps)
	if o.connected != "" {
		orc, err := oracle.ForCoordinator(tr, proto)
		if err != nil {
			return err
		}
		ok, err := orc.Connected(u, v)
		if err != nil {
			return err
		}
		if ok {
			fmt.Fprintf(stdout, "%d and %d are connected\n", u, v)
		} else {
			fmt.Fprintf(stdout, "%d and %d are NOT connected\n", u, v)
		}
	}
	return nil
}

// ingestCluster is the coordinator pipeline gsd and genstream's loadgen
// share: dial one TCP shard per address, stream st through the plane in
// batches of batch updates, and gather the shards' state into a fresh copy
// of proto. With verify set, the gathered state must also match a serial
// replay of st (verifyCluster). On success the caller closes the returned
// transport.
func ingestCluster(st stream.Stream, proto shardplane.Member, addrs []string, opt shardplane.TCPOptions, batch int, verify bool, stdout io.Writer) (*shardplane.TCPTransport, graphsketch.Checkpointer, error) {
	tr, err := shardplane.DialTCP(proto, addrs, opt)
	if err != nil {
		return nil, nil, err
	}
	gathered, err := freshFrom(proto)
	if err == nil {
		err = engine.NewWithTransport(tr).Consume(st, batch)
	}
	if err == nil {
		err = tr.Gather(gathered)
	}
	if err == nil && verify {
		err = verifyCluster(st, proto, gathered, stdout)
	}
	if err != nil {
		tr.Close()
		return nil, nil, err
	}
	return tr, gathered, nil
}

// splitAddrs parses a comma-separated address list, dropping empty entries.
func splitAddrs(spec string) []string {
	var addrs []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// clusterProto builds the cluster's construction template: a fresh member
// sketch whose checkpoint frame carries the type, parameters, and seed every
// shard reconstructs from. Restricted to the connectivity sketches the
// coordinator knows how to decode.
func clusterProto(kind string, n, k, budget int, seed uint64) (shardplane.Member, error) {
	switch kind {
	case "spanning":
		return sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: seed})
	case "skeleton":
		return sketch.NewSkeletonSketch(sketch.SkeletonParams{N: n, K: k, Seed: seed})
	case "hybrid":
		inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: seed})
		if err != nil {
			return nil, err
		}
		return hybrid.New(inner, budget)
	}
	return nil, fmt.Errorf("unknown -sketch %q (want spanning|skeleton|hybrid)", kind)
}

// freshFrom reconstructs a pristine copy of proto from its own checkpoint
// frame — the canonical gather destination and serial baseline.
func freshFrom(proto shardplane.Member) (graphsketch.Checkpointer, error) {
	var buf bytes.Buffer
	if _, err := proto.WriteTo(&buf); err != nil {
		return nil, err
	}
	s, err := codec.Open(&buf)
	if err != nil {
		return nil, err
	}
	// The frame came from a Checkpointer, and Open rebuilds the same type.
	return s.(graphsketch.Checkpointer), nil
}

// frameOf returns s's checkpoint frame. Two sketches built from one
// prototype hold the same state iff their frames are byte-identical.
func frameOf(s graphsketch.Checkpointer) ([]byte, error) {
	var buf bytes.Buffer
	_, err := s.WriteTo(&buf)
	return buf.Bytes(), err
}

// componentLabels labels every vertex with the smallest vertex of its
// connected component — a canonical form independent of DSU root choice.
func componentLabels(h *graph.Hypergraph) []int {
	d := graphalg.ComponentsOf(h)
	labels := make([]int, h.N())
	first := make(map[int]int, h.N())
	for v := 0; v < h.N(); v++ {
		root := d.Find(v)
		if _, ok := first[root]; !ok {
			first[root] = v
		}
		labels[v] = first[root]
	}
	return labels
}

// verifyCluster checks the coordinator's gathered state against a serial
// baseline: a second sketch reconstructed from the same prototype frame
// ingests the stream serially, and both the checkpoint frames and the
// decoded component labels must match exactly. This is the linearity check that
// makes the cluster trustworthy — sharding and transport must be invisible
// in the final state.
func verifyCluster(st stream.Stream, proto shardplane.Member, gathered graphsketch.Checkpointer, out io.Writer) error {
	serial, err := freshFrom(proto)
	if err != nil {
		return err
	}
	if err := stream.Apply(st, serial); err != nil {
		return err
	}
	want, err := frameOf(serial)
	if err != nil {
		return err
	}
	got, err := frameOf(gathered)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("gsd: verify FAILED: gathered state (%d bytes) differs from serial baseline (%d bytes)",
			len(got), len(want))
	}
	sh, err := serial.(oracle.Decoder).Decode(nil)
	if err != nil {
		return err
	}
	gh, err := gathered.(oracle.Decoder).Decode(nil)
	if err != nil {
		return err
	}
	sl, gl := componentLabels(sh), componentLabels(gh)
	for v := range sl {
		if sl[v] != gl[v] {
			return fmt.Errorf("gsd: verify FAILED: vertex %d component label differs (serial %d, coordinator %d)",
				v, sl[v], gl[v])
		}
	}
	fmt.Fprintf(out, "verify: OK — coordinator state byte-matches serial baseline (%d frame bytes, %d components)\n",
		len(got), graphalg.ComponentsOf(gh).Components())
	return nil
}

// runLoadgen is genstream's cluster mode: spawn shard servers as real gsd
// processes on loopback, stream the generated workload through a TCP plane,
// and verify the coordinator's gathered state against the serial baseline.
func runLoadgen(st stream.Stream, n, shards int, gsdBin, kind string, k int, seed uint64, stdout, stderr io.Writer) error {
	if n < 2 {
		return errors.New("loadgen needs n >= 2")
	}
	if shards < 1 {
		return errors.New("loadgen needs -shards >= 1")
	}
	procs := make([]*exec.Cmd, 0, shards)
	defer func() {
		for _, c := range procs {
			c.Process.Signal(os.Interrupt)
		}
		for _, c := range procs {
			c.Wait()
		}
	}()
	// Every shard process copies its stderr into the same writer; serialize
	// the copies (stderr need not be concurrency-safe — tests pass buffers).
	shardErr := &lockedWriter{w: stderr}
	addrs := make([]string, 0, shards)
	for i := 0; i < shards; i++ {
		addr, cmd, err := spawnShard(gsdBin, shardErr)
		if err != nil {
			return err
		}
		procs = append(procs, cmd)
		addrs = append(addrs, addr)
	}
	fmt.Fprintf(stderr, "loadgen: %d gsd shards up: %s\n", shards, strings.Join(addrs, " "))

	proto, err := clusterProto(kind, n, k, 32, seed)
	if err != nil {
		return err
	}
	tr, _, err := ingestCluster(st, proto, addrs, shardplane.TCPOptions{}, engine.DefaultBatchSize, true, stdout)
	if err != nil {
		return err
	}
	tr.Close()
	fmt.Fprintf(stdout, "loadgen: %d updates over %d TCP shards match the serial decode\n", len(st), shards)
	return nil
}

// lockedWriter serializes writes from concurrent shard-process stderr pipes.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// spawnShard launches one gsd -serve process on an ephemeral loopback port
// and parses the bound address back from its first stdout line.
func spawnShard(gsdBin string, stderr io.Writer) (string, *exec.Cmd, error) {
	cmd := exec.Command(gsdBin, "-serve", "-addr", "127.0.0.1:0")
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	sc := bufio.NewScanner(out)
	if !sc.Scan() || len(strings.Fields(sc.Text())) == 0 {
		cmd.Process.Kill()
		cmd.Wait()
		return "", nil, fmt.Errorf("loadgen: shard %q reported no listen address (scan error: %v)", gsdBin, sc.Err())
	}
	fields := strings.Fields(sc.Text())
	go io.Copy(io.Discard, out)
	return fields[len(fields)-1], cmd, nil
}
