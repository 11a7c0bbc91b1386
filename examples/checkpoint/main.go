// Checkpoint: durable and distributed stream processing via linearity.
//
// Linear sketches have two superpowers beyond deletions: their state
// serializes to bytes (checkpoint/restore), and states from *different
// machines add* (sharded ingestion). This example demonstrates both on one
// workload:
//
//  1. a stream consumer checkpoints mid-stream through the versioned wire
//     format (WriteTo emits one self-describing frame: magic, version, type
//     tag, params+seed fingerprint, state, checksum), "crashes", and a
//     fresh process resumes via codec.Open — the frame alone reconstructs
//     the sketch, no out-of-band parameters;
//
//  2. the same stream is split across three "machines" whose checkpoint
//     frames are merged by a coordinator — decoding the merged state gives
//     exactly the single-machine answer.
//
//     go run ./examples/checkpoint
package main

import (
	"bytes"
	"fmt"
	"log"

	"graphsketch/internal/codec"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

func main() {
	rng := hashutil.NewRand(12, 34)
	final := workload.PreferentialAttachment(rng, 40, 2)
	churn := workload.ErdosRenyi(rng, 40, 0.1)
	st := stream.WithChurn(final, churn, rng)
	fmt.Printf("workload: %d vertices, %d live edges, %d stream updates\n",
		final.N(), final.EdgeCount(), len(st))

	const seed = 777 // shared public randomness for all participants
	dom := final.Domain()
	cfg := sketch.SpanningConfig{}

	// --- Part 1: checkpoint and resume ---------------------------------
	half := len(st) / 2
	first := sketch.NewSpanning(seed, dom, cfg)
	if err := stream.Apply(st[:half], first); err != nil {
		log.Fatal(err)
	}
	var checkpoint bytes.Buffer // stands in for a file on disk
	if _, err := first.WriteTo(&checkpoint); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint after %d updates: %d framed bytes\n", half, checkpoint.Len())

	// A fresh process: the frame is self-describing, so codec.Open
	// reconstructs the sketch — parameters, seed, and state — and verifies
	// the checksum and identity fingerprint along the way. A corrupted or
	// differently-constructed frame fails with a typed codec error here
	// instead of silently decoding to garbage.
	opened, err := codec.Open(&checkpoint)
	if err != nil {
		log.Fatal(err)
	}
	resumed := opened.(*sketch.SpanningSketch)
	if err := stream.Apply(st[half:], resumed); err != nil {
		log.Fatal(err)
	}
	f, err := resumed.Decode(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed consumer decodes a spanning graph with %d edges; connected = %v (truth: %v)\n",
		f.EdgeCount(), graphalg.Connected(f), graphalg.Connected(final))

	// --- Part 2: sharded ingestion --------------------------------------
	shards := make([]*sketch.SpanningSketch, 3)
	for i := range shards {
		shards[i] = sketch.NewSpanning(seed, dom, cfg)
	}
	for i, u := range st {
		if err := shards[i%3].Update(u.Edge, int64(u.Op)); err != nil {
			log.Fatal(err)
		}
	}
	// Each shard ships its checkpoint frame; the coordinator's ReadFrom
	// verifies the frame's identity fingerprint before adding the state.
	coordinator := sketch.NewSpanning(seed, dom, cfg)
	for i, sh := range shards {
		var frame bytes.Buffer
		if _, err := sh.WriteTo(&frame); err != nil {
			log.Fatal(err)
		}
		n, err := coordinator.ReadFrom(&frame)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("merged shard %d (%d framed bytes)\n", i, n)
	}
	fm, err := coordinator.Decode(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinator decode matches single-machine decode: %v\n", fm.Equal(f))
}
