package par_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"graphsketch/internal/par"
)

// TestForEach checks the fan-out helper: every index runs even after
// failures, and the returned error is the first by index, deterministically.
func TestForEach(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 2, 8} {
		var ran atomic.Int64
		err := par.ForEach(workers, 100, func(i int) error {
			ran.Add(1)
			switch i {
			case 90:
				return errA
			case 10:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errB) {
			t.Fatalf("workers=%d: got %v, want first-by-index error %v", workers, err, errB)
		}
		if ran.Load() != 100 {
			t.Fatalf("workers=%d: ran %d of 100 indices", workers, ran.Load())
		}
	}
	if err := par.ForEach(4, 0, func(int) error { return errA }); err != nil {
		t.Fatalf("n=0: got %v, want nil", err)
	}
}
