package graph

import (
	"slices"
	"testing"
)

// FuzzDomainDecode checks that Decode never panics on arbitrary keys and
// that every key it accepts re-encodes to itself — the bijection the
// sketches' certified decodes rely on to reject corrupt coordinates. It
// also checks that AppendDecode agrees with Decode on the raw key (out of
// range included) and on the in-range key, appending after a non-empty
// prefix without touching it.
func FuzzDomainDecode(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(^uint64(0))
	f.Add(uint64(0x0843))
	f.Fuzz(func(t *testing.T, key uint64) {
		for _, shape := range []struct{ n, r int }{{10, 3}, {1000, 2}, {64, 4}} {
			d := MustDomain(shape.n, shape.r)
			for _, k := range []uint64{key, key % d.Size()} {
				want, werr := d.Decode(k)
				prefix := Hyperedge{7, 3}
				got, gerr := d.AppendDecode(prefix, k)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("key %d: Decode err %v, AppendDecode err %v", k, werr, gerr)
				}
				if gerr != nil {
					if got != nil {
						t.Fatalf("key %d: AppendDecode returned %v with error %v", k, got, gerr)
					}
					continue
				}
				if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
					t.Fatalf("key %d: AppendDecode gave %v, want %v after %v", k, got, want, prefix)
				}
			}
			e, err := d.Decode(key % d.Size())
			if err != nil {
				continue
			}
			back, err := d.Encode(e)
			if err != nil {
				t.Fatalf("decoded edge %v rejected by encode: %v", e, err)
			}
			if back != key%d.Size() {
				t.Fatalf("key %d decoded to %v which encodes to %d", key%d.Size(), e, back)
			}
		}
	})
}

// FuzzHyperedgeConstruction checks NewHyperedge's validation never panics
// and always yields canonical edges.
func FuzzHyperedgeConstruction(f *testing.F) {
	f.Add(1, 2, 3, 4)
	f.Add(0, 0, 0, 0)
	f.Add(-1, 5, 2, 2)
	f.Fuzz(func(t *testing.T, a, b, c, d int) {
		e, err := NewHyperedge(a, b, c, d)
		if err != nil {
			return
		}
		for i := 1; i < len(e); i++ {
			if e[i-1] >= e[i] {
				t.Fatalf("non-canonical edge %v accepted", e)
			}
		}
		if e[0] < 0 {
			t.Fatalf("negative vertex accepted: %v", e)
		}
	})
}
