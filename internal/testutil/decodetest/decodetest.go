// Package decodetest checks that one sketch can be decoded from several
// goroutines at once while obs records every span, and that each such
// decode returns what a serial decode returns.
package decodetest

import (
	"runtime"
	"sync"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
)

// Decoder is a sketch with a traced decode.
type Decoder interface {
	Decode(parent *obs.Span) (*graph.Hypergraph, error)
}

// Concurrent enables obs, disabling it again in cleanup, and at GOMAXPROCS
// 1 and 4 decodes a sketch from build in two goroutines at once, three
// times, comparing every result with a serial decode of another sketch
// from build. Run it under -race. At GOMAXPROCS 1 one decode usually
// finishes before the other starts and nothing orders the two, so state
// the first writes and the second reads is reported as a race (three
// pairs, since the scheduler may still interleave one); at 4 each
// decode's own fan-out starts child spans from several goroutines.
func Concurrent(t *testing.T, build func() Decoder) {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
	want, err := build().Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 1, 1, 4, 4, 4} {
		prev := runtime.GOMAXPROCS(procs)
		s := build()
		var got [2]*graph.Hypergraph
		var errs [2]error
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = s.Decode(nil)
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("GOMAXPROCS=%d, goroutine %d: %v", procs, i, errs[i])
			}
			if !got[i].Equal(want) {
				t.Fatalf("GOMAXPROCS=%d, goroutine %d: concurrent decode differs from the serial decode", procs, i)
			}
		}
	}
}
