package main

import (
	"os"

	"graphsketch/internal/bench"
	"graphsketch/internal/commsim"
	"graphsketch/internal/core/reconstruct"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/sketch"
	"graphsketch/internal/workload"
)

// runE9 exercises the Section 2 simultaneous communication model: n
// players (one per vertex, holding its incident edges) each send one
// message built from shared public randomness; the referee must answer
// from the n messages. Because every sketch here is vertex-based, player
// P_v sends exactly vertex v's serialized share. The table reports the
// maximum and mean message sizes as n grows — polylogarithmic per player —
// and confirms the referee's decode matches ground truth. Message sizes are
// share interiors (what the paper's bounds count); the framed-total column
// adds the codec envelope (codec.ShareOverhead per message) the wire
// actually carries.
func runE9(cfg Config, out *os.File) error {
	t := bench.NewTable("E9 — simultaneous communication protocols from vertex-based sketches",
		"protocol", "n", "m", "max msg", "mean msg", "total", "framed total", "referee decode")

	ns := []int{16, 32, 64}
	if cfg.Quick {
		ns = []int{16, 32}
	}
	for _, n := range ns {
		rng := hashutil.NewRand(cfg.Seed, uint64(n))
		h := workload.ErdosRenyi(rng, n, 0.2)
		dom := h.Domain()
		scfg := sketch.SpanningConfig{}
		seed := cfg.Seed ^ uint64(n*3)

		// Spanning / connectivity protocol.
		ref := sketch.NewSpanning(seed, dom, scfg)
		res, err := commsim.Run(h, func() commsim.Protocol { return sketch.NewSpanning(seed, dom, scfg) }, ref)
		if err != nil {
			return err
		}
		f, err := ref.Decode(nil)
		status := "FAILED"
		if err == nil && graphalg.Connected(f) == graphalg.Connected(h) {
			status = "ok"
		}
		t.AddRow("connectivity", n, h.EdgeCount(), bench.FmtBytes(res.MaxMessageBytes),
			bench.FmtBytes(int(res.MeanMessageBytes())), bench.FmtBytes(res.TotalBytes),
			bench.FmtBytes(res.FramedTotalBytes), status)

		// 2-skeleton protocol.
		skP := sketch.SkeletonParams{N: dom.N(), R: dom.R(), K: 2, Spanning: scfg, Seed: seed}
		refSk, err := sketch.NewSkeletonSketch(skP)
		if err != nil {
			return err
		}
		resSk, err := commsim.Run(h, skeletonPlayers(skP), refSk)
		if err != nil {
			return err
		}
		skel, err := refSk.Decode(nil)
		status = "FAILED"
		if err == nil && skel.EdgeCount() <= 2*(n-1) {
			status = "ok"
		}
		t.AddRow("2-skeleton", n, h.EdgeCount(), bench.FmtBytes(resSk.MaxMessageBytes),
			bench.FmtBytes(int(resSk.MeanMessageBytes())), bench.FmtBytes(resSk.TotalBytes),
			bench.FmtBytes(resSk.FramedTotalBytes), status)
	}

	// Reconstruction protocol on the paper's example (the exact setting of
	// Becker et al. that Section 4 generalizes).
	pe := workload.PaperExample()
	seed := cfg.Seed ^ 0xabc
	recP := sketch.SkeletonParams{N: pe.N(), R: pe.Domain().R(), K: 2 + 1, Seed: seed}
	refRec, err := sketch.NewSkeletonSketch(recP)
	if err != nil {
		return err
	}
	resRec, err := commsim.Run(pe, skeletonPlayers(recP), refRec)
	if err != nil {
		return err
	}
	got, err := reconstruct.Reconstruct(refRec)
	status := "FAILED"
	if err == nil && got.Equal(pe) {
		status = "exact"
	}
	t.AddRow("reconstruct d=2", pe.N(), pe.EdgeCount(), bench.FmtBytes(resRec.MaxMessageBytes),
		bench.FmtBytes(int(resRec.MeanMessageBytes())), bench.FmtBytes(resRec.TotalBytes),
		bench.FmtBytes(resRec.FramedTotalBytes), status)

	emitTable(t, out)
	return nil
}

// skeletonPlayers returns a factory of fresh players for p, which the
// referee's construction has already validated.
func skeletonPlayers(p sketch.SkeletonParams) func() commsim.Protocol {
	return func() commsim.Protocol {
		s, err := sketch.NewSkeletonSketch(p)
		if err != nil {
			panic(err)
		}
		return s
	}
}
