// Package cli implements the command-line tools' logic behind thin main
// wrappers, so the tools are unit-testable: every Run* function takes its
// argument list and explicit streams and returns an error instead of
// exiting.
package cli

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/core/edgeconn"
	"graphsketch/internal/core/reconstruct"
	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/obs"
	"graphsketch/internal/oracle"
	"graphsketch/internal/plan"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
)

// obsAddrFlag registers the shared -obs-addr flag on a tool's flag set.
func obsAddrFlag(fs *flag.FlagSet) *string {
	return fs.String("obs-addr", "",
		"enable metrics and serve /metrics, /debug/vars, /debug/pprof on this address (e.g. 127.0.0.1:9090)")
}

// startObs acts on a parsed -obs-addr value: a non-empty address enables
// collection and serves the observability endpoints for the life of the
// process, reporting the bound address (useful with ':0') on stderr.
func startObs(addr string, stderr io.Writer) error {
	if addr == "" {
		return nil
	}
	bound, err := obs.Setup(addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "obs: serving http://%s/metrics\n", bound)
	return nil
}

// traceOutFlag registers the shared -trace-out flag on a tool's flag set.
func traceOutFlag(fs *flag.FlagSet) *string {
	return fs.String("trace-out", "",
		"append sampled trace spans and flight-recorder events to this file as JSON lines (enables collection)")
}

// startTraceOut acts on a parsed -trace-out value: it enables collection
// and streams every sampled span and recorded event to the named file as
// one JSON line each. The returned closer detaches the sink and closes the
// file; callers defer it around the workload.
func startTraceOut(path string, stderr io.Writer) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	obs.Enable()
	obs.SetTraceOutput(f)
	fmt.Fprintf(stderr, "trace: appending JSONL spans/events to %s\n", path)
	return func() error {
		obs.SetTraceOutput(nil)
		return f.Close()
	}, nil
}

// printHealth writes a sketch's health introspection report (obs.Inspector)
// as indented JSON.
func printHealth(w io.Writer, i obs.Inspector) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(i.Health())
}

// checkpointFlags registers the shared -checkpoint/-restore flags on a
// tool's flag set. Both move framed, self-describing codec checkpoints.
func checkpointFlags(fs *flag.FlagSet) (ckpt, restore *string) {
	ckpt = fs.String("checkpoint", "",
		"write a framed checkpoint of the sketch to this file after consuming the stream")
	restore = fs.String("restore", "",
		"reconstruct the sketch from a framed checkpoint file before consuming the stream (construction flags are ignored; the frame is self-describing)")
	return ckpt, restore
}

// restoreSketch opens a framed checkpoint and reconstructs the sketch it
// describes via codec.Open, asserting the tool's concrete type.
func restoreSketch[T graphsketch.Sketch](path string, stderr io.Writer) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, err
	}
	defer f.Close()
	s, err := codec.Open(f)
	if err != nil {
		return zero, fmt.Errorf("restoring %s: %w", path, err)
	}
	t, ok := s.(T)
	if !ok {
		return zero, fmt.Errorf("checkpoint %s holds a %T, this tool wants %T", path, s, zero)
	}
	fmt.Fprintf(stderr, "restored sketch from %s\n", path)
	return t, nil
}

// writeCheckpoint writes a framed checkpoint of the sketch to path and
// reports the framed size on stderr. The frame is written to path+".tmp"
// in the same directory, synced, and renamed over path, so a write that
// fails or is cut short leaves the previous checkpoint at path whole.
func writeCheckpoint(path string, s io.WriterTo, stderr io.Writer) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	n, err := s.WriteTo(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	fmt.Fprintf(stderr, "checkpoint: %d framed bytes written to %s\n", n, path)
	return nil
}

// parseProfile maps a -profile flag value to a plan.Profile.
func parseProfile(name string) (plan.Profile, error) {
	switch name {
	case "lean":
		return plan.Lean, nil
	case "", "balanced":
		return plan.Balanced, nil
	case "theory":
		return plan.Theory, nil
	default:
		return 0, fmt.Errorf("unknown profile %q (want lean|balanced|theory)", name)
	}
}

// openStream returns the stream input: stdin for "-", else the named file.
func openStream(path string, stdin io.Reader) (io.Reader, func() error, error) {
	if path == "-" {
		return stdin, func() error { return nil }, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// readAndApply parses a stream and feeds it to the sink, returning the
// parsed stream for stats.
func readAndApply(path string, stdin io.Reader, sink stream.Sink) (stream.Stream, error) {
	in, closeFn, err := openStream(path, stdin)
	if err != nil {
		return nil, err
	}
	defer closeFn()
	st, err := stream.ReadText(in)
	if err != nil {
		return nil, err
	}
	// Sharded sketches ingest through the parallel engine; anything else
	// falls back to the serial per-update path.
	if sh, ok := sink.(graphsketch.Sharded); ok {
		eng := engine.New(sh, engine.Options{})
		defer eng.Close()
		if err := eng.Consume(st, engine.DefaultBatchSize); err != nil {
			return nil, err
		}
		return st, nil
	}
	if err := stream.Apply(st, sink); err != nil {
		return nil, err
	}
	return st, nil
}

// parsePair parses "u,v" into two vertices, validating against n.
func parsePair(spec string, n int) (int, int, error) {
	f := strings.Split(spec, ",")
	if len(f) != 2 {
		return 0, 0, fmt.Errorf("want 'u,v', got %q", spec)
	}
	u, err1 := strconv.Atoi(strings.TrimSpace(f[0]))
	v, err2 := strconv.Atoi(strings.TrimSpace(f[1]))
	if err1 != nil || err2 != nil || u < 0 || u >= n || v < 0 || v >= n {
		return 0, 0, fmt.Errorf("bad pair %q (want vertices 0..%d)", spec, n-1)
	}
	return u, v, nil
}

// sortedVertices flattens a vertex set into an ascending slice without
// iterating the map (ordering stays deterministic for free).
func sortedVertices(set map[int]bool, n int) []int {
	out := make([]int, 0, len(set))
	for v := 0; v < n; v++ {
		if set[v] {
			out = append(out, v)
		}
	}
	return out
}

// parseVertexSet parses "1,2,3" into a set, validating against n.
func parseVertexSet(spec string, n int) (map[int]bool, error) {
	set := map[int]bool{}
	for _, f := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 0 || v >= n {
			return nil, fmt.Errorf("bad vertex %q (want 0..%d)", f, n-1)
		}
		set[v] = true
	}
	return set, nil
}

// RunVconn implements cmd/vconn.
func RunVconn(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vconn", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 0, "number of vertices (required unless -restore)")
	r := fs.Int("r", 2, "maximum hyperedge cardinality")
	k := fs.Int("k", 1, "connectivity parameter / max query size")
	subgraphs := fs.Int("subgraphs", 0, "number of vertex-subsampled subgraphs (0 = use -profile)")
	profile := fs.String("profile", "balanced", "parameter profile: lean | balanced | theory")
	seed := fs.Uint64("seed", 1, "random seed")
	query := fs.String("query", "", "comma-separated vertex set to test for disconnection")
	connected := fs.String("connected", "", "report whether the pair 'u,v' is connected, served from the oracle's cached decode")
	estimate := fs.Bool("estimate", false, "estimate vertex connectivity (graphs only)")
	file := fs.String("stream", "-", "stream file ('-' = stdin)")
	health := fs.Bool("health", false, "print the sketch's health introspection report as JSON after consuming the stream")
	ckpt, restore := checkpointFlags(fs)
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
	if *restore == "" && *n < 2 {
		return errors.New("need -n >= 2")
	}
	if *query == "" && *connected == "" && !*estimate && *ckpt == "" && !*health {
		return errors.New("need -query, -connected, -estimate, -checkpoint, or -health")
	}

	var s *vertexconn.Sketch
	if *restore != "" {
		s, err = restoreSketch[*vertexconn.Sketch](*restore, stderr)
	} else {
		var p vertexconn.Params
		if *subgraphs > 0 {
			p = vertexconn.Params{N: *n, R: *r, K: *k, Subgraphs: *subgraphs, Seed: *seed}
		} else {
			prof, err := parseProfile(*profile)
			if err != nil {
				return err
			}
			if *estimate {
				p = plan.VertexConnEstimate(*n, *r, *k, 1.0, *seed, prof)
			} else {
				p = plan.VertexConnQuery(*n, *r, *k, *seed, prof)
			}
		}
		s, err = vertexconn.New(p)
	}
	if err != nil {
		return err
	}
	*n, *r, *k = s.NumVertices(), s.Params().R, s.MaxRemove() // a restored frame's, not the flags'
	obs.RegisterInspector("vertexconn", s)
	defer obs.RegisterInspector("vertexconn", nil)
	st, err := readAndApply(*file, stdin, s)
	if err != nil {
		return err
	}
	if stats, err := stream.Summarize(st, *n, *r); err == nil {
		fmt.Fprintf(stderr, "stream: %d updates (%d inserts, %d deletes); sketch: %d KiB over %d subgraphs\n",
			stats.Updates, stats.Inserts, stats.Deletes, s.Words()*8/1024, s.Subgraphs())
	} else if *restore != "" {
		// A resumed stream suffix may delete edges inserted before the
		// checkpoint, so the live-edge materialization can fail without
		// anything being wrong — the sketch itself is linear and absorbed
		// every update. Report counts only.
		fmt.Fprintf(stderr, "stream: %d updates (resumed); sketch: %d KiB over %d subgraphs\n",
			len(st), s.Words()*8/1024, s.Subgraphs())
	} else {
		return err
	}
	if *ckpt != "" {
		if err := writeCheckpoint(*ckpt, s, stderr); err != nil {
			return err
		}
	}
	if *health {
		if err := printHealth(stdout, s); err != nil {
			return err
		}
	}

	// Queries serve through the oracle layer: one decode builds the cached
	// H snapshot, and every query after it is answered from the cache.
	orc := oracle.For(s)
	if *query != "" {
		set, err := parseVertexSet(*query, *n)
		if err != nil {
			return err
		}
		disc, err := orc.DisconnectedBy(sortedVertices(set, *n))
		if err != nil {
			return err
		}
		if disc {
			fmt.Fprintf(stdout, "removing %v DISCONNECTS the graph\n", *query)
		} else {
			fmt.Fprintf(stdout, "removing %v leaves the graph connected\n", *query)
		}
	}
	if *connected != "" {
		u, v, err := parsePair(*connected, *n)
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
	if *estimate {
		est, err := s.EstimateConnectivity(int64(*k))
		if err != nil {
			return err
		}
		if est >= int64(*k) {
			fmt.Fprintf(stdout, "vertex connectivity >= %d (capped at k)\n", est)
		} else {
			fmt.Fprintf(stdout, "vertex connectivity = %d\n", est)
		}
	}
	return nil
}

// RunSparsify implements cmd/sparsify.
func RunSparsify(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sparsify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 0, "number of vertices (required unless -restore)")
	r := fs.Int("r", 2, "maximum hyperedge cardinality")
	eps := fs.Float64("eps", 0.5, "target cut approximation (sets K unless -K given)")
	kFlag := fs.Int("K", 0, "strength threshold (overrides -eps and -profile)")
	profile := fs.String("profile", "balanced", "parameter profile: lean | balanced | theory")
	levels := fs.Int("levels", 0, "subsampling levels (0 = 3·log2 n)")
	seed := fs.Uint64("seed", 1, "random seed")
	file := fs.String("stream", "-", "stream file ('-' = stdin)")
	ckpt, restore := checkpointFlags(fs)
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
	if *restore == "" && *n < 2 {
		return errors.New("need -n >= 2")
	}
	var s *sparsify.Sketch
	if *restore != "" {
		s, err = restoreSketch[*sparsify.Sketch](*restore, stderr)
	} else {
		var params sparsify.Params
		if *kFlag > 0 {
			params = sparsify.Params{N: *n, R: *r, K: *kFlag, Levels: *levels, Seed: *seed}
		} else {
			prof, err := parseProfile(*profile)
			if err != nil {
				return err
			}
			params = plan.Sparsify(*n, *r, *eps, *seed, prof)
			params.Levels = *levels
		}
		s, err = sparsify.New(params)
	}
	if err != nil {
		return err
	}
	obs.RegisterInspector("sparsify", s)
	defer obs.RegisterInspector("sparsify", nil)
	*n, *r = s.NumVertices(), s.Params().R // a restored frame's, not the flags'
	st, err := readAndApply(*file, stdin, s)
	if err != nil {
		return err
	}
	if *ckpt != "" {
		if err := writeCheckpoint(*ckpt, s, stderr); err != nil {
			return err
		}
	}
	sp, err := s.Decode(nil)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	stats, _ := stream.Summarize(st, *n, *r)
	fmt.Fprintf(stderr, "stream: %d updates → %d live edges; sparsifier: %d edges, total weight %d; K=%d; sketch %d KiB\n",
		stats.Updates, stats.MaxActive, sp.EdgeCount(), sp.TotalWeight(), s.Params().K, s.Words()*8/1024)

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	for _, we := range sp.WeightedEdges() {
		fmt.Fprintf(w, "%d", we.W)
		for _, v := range we.E {
			fmt.Fprintf(w, " %d", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunReconstruct implements cmd/reconstruct.
func RunReconstruct(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("reconstruct", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 0, "number of vertices (required unless -restore)")
	r := fs.Int("r", 2, "maximum hyperedge cardinality")
	k := fs.Int("k", 1, "cut-degeneracy parameter")
	seed := fs.Uint64("seed", 1, "random seed")
	light := fs.Bool("light", false, "print light_k(G) even if reconstruction is incomplete")
	file := fs.String("stream", "-", "stream file ('-' = stdin)")
	ckpt, restore := checkpointFlags(fs)
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
	if *restore == "" && *n < 2 {
		return errors.New("need -n >= 2")
	}
	var s *sketch.SkeletonSketch
	if *restore != "" {
		s, err = restoreSketch[*sketch.SkeletonSketch](*restore, stderr)
		if err == nil && s.K() < 2 {
			return fmt.Errorf("checkpoint %s holds a %d-skeleton; light_k needs a (k+1)-skeleton with k >= 1", *restore, s.K())
		}
	} else {
		s, err = sketch.NewSkeletonSketch(sketch.SkeletonParams{N: *n, R: *r, K: *k + 1, Seed: *seed})
	}
	if err != nil {
		return err
	}
	*k = s.K() - 1 // a restored frame's, not the flag's
	obs.RegisterInspector("reconstruct", s)
	defer obs.RegisterInspector("reconstruct", nil)
	if _, err := readAndApply(*file, stdin, s); err != nil {
		return err
	}
	if *ckpt != "" {
		if err := writeCheckpoint(*ckpt, s, stderr); err != nil {
			return err
		}
	}

	var out *graph.Hypergraph
	if *light {
		out, err = reconstruct.LightEdges(nil, s, nil)
		if err != nil {
			return err
		}
	} else {
		out, err = reconstruct.Reconstruct(s)
		if errors.Is(err, reconstruct.ErrIncomplete) {
			return fmt.Errorf("graph is not %d-cut-degenerate (use -light to print the recovered light_%d set)", *k, *k)
		}
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "recovered %d hyperedges; sketch %d KiB\n", out.EdgeCount(), s.Words()*8/1024)
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	for _, e := range out.Edges() {
		for i, v := range e {
			if i > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprintf(w, "%d", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunEconn implements cmd/econn.
func RunEconn(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("econn", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 0, "number of vertices (required unless -restore)")
	r := fs.Int("r", 2, "maximum hyperedge cardinality")
	k := fs.Int("k", 4, "cut values below k are exact; larger report '>= k'")
	seed := fs.Uint64("seed", 1, "random seed")
	st := fs.String("st", "", "report the s-t cut for this 'u,v' pair instead of the global min cut")
	connected := fs.String("connected", "", "report whether the pair 'u,v' is connected, served from the oracle's cached skeleton")
	health := fs.Bool("health", false, "print the sketch's health introspection report as JSON after consuming the stream")
	file := fs.String("stream", "-", "stream file ('-' = stdin)")
	ckpt, restore := checkpointFlags(fs)
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
	if *restore == "" && *n < 2 {
		return errors.New("need -n >= 2")
	}
	var s *sketch.SkeletonSketch
	if *restore != "" {
		s, err = restoreSketch[*sketch.SkeletonSketch](*restore, stderr)
	} else {
		s, err = sketch.NewSkeletonSketch(sketch.SkeletonParams{N: *n, R: *r, K: *k, Seed: *seed})
	}
	if err != nil {
		return err
	}
	*n, *k = s.NumVertices(), s.K() // a restored frame's, not the flags'
	// Pairs are checked before the stream is read, against the sketch's n.
	var cu, cv, su, sv int
	if *connected != "" {
		if cu, cv, err = parsePair(*connected, *n); err != nil {
			return err
		}
	}
	if *st != "" {
		if su, sv, err = parsePair(*st, *n); err != nil {
			return fmt.Errorf("-st: %w", err)
		}
		if su == sv {
			return fmt.Errorf("-st wants two distinct vertices, got %q", *st)
		}
	}
	obs.RegisterInspector("edgeconn", s)
	defer obs.RegisterInspector("edgeconn", nil)
	updates, err := readAndApply(*file, stdin, s)
	if err != nil {
		return err
	}
	if *ckpt != "" {
		if err := writeCheckpoint(*ckpt, s, stderr); err != nil {
			return err
		}
	}
	if *health {
		if err := printHealth(stdout, s); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "stream: %d updates; sketch %d KiB (k=%d skeleton)\n",
		len(updates), s.Words()*8/1024, *k)

	if *connected != "" {
		ok, err := oracle.For(s).Connected(cu, cv)
		if err != nil {
			return err
		}
		if ok {
			fmt.Fprintf(stdout, "%d and %d are connected\n", cu, cv)
		} else {
			fmt.Fprintf(stdout, "%d and %d are NOT connected\n", cu, cv)
		}
		return nil
	}
	if *st != "" {
		skel, err := s.Decode(nil)
		if err != nil {
			return err
		}
		if cut := graphalg.STEdgeCut(skel, su, sv, int64(*k)); cut >= int64(*k) {
			fmt.Fprintf(stdout, "λ(%s) >= %d (raise -k for the exact value)\n", *st, *k)
		} else {
			fmt.Fprintf(stdout, "λ(%s) = %d\n", *st, cut)
		}
		return nil
	}
	skel, err := s.Decode(nil)
	if err != nil {
		return err
	}
	lambda, side, err := edgeconn.Connectivity(skel, *k)
	if err != nil {
		return err
	}
	if lambda >= int64(*k) {
		fmt.Fprintf(stdout, "edge connectivity >= %d (raise -k for the exact value)\n", *k)
		return nil
	}
	fmt.Fprintf(stdout, "edge connectivity = %d\n", lambda)
	fmt.Fprintf(stdout, "witness side: %v\n", side)
	return nil
}
