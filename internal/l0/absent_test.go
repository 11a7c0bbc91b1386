package l0

import (
	"bytes"
	"testing"
)

// TestAbsentSampler runs every Sampler method on an absent (never-updated)
// sampler. Queries, serialization, cloning and zero-valued merges must
// answer without materializing it; only a real update, or a merge that
// carries a level, allocates its levels.
func TestAbsentSampler(t *testing.T) {
	cfg := Config{S: 4, MaxLevels: 12}
	present := New(0xab5e, dom, cfg)
	present.Update(77, 3)
	cases := []struct {
		name   string
		run    func(t *testing.T, s *Sampler)
		absent bool // whether s must still be absent afterwards
	}{
		{"IsZero", func(t *testing.T, s *Sampler) {
			if !s.IsZero() {
				t.Fatal("absent sampler not zero")
			}
		}, true},
		{"Sample", func(t *testing.T, s *Sampler) {
			if _, _, ok := s.Sample(); ok {
				t.Fatal("absent sampler returned a sample")
			}
		}, true},
		{"Decode", func(t *testing.T, s *Sampler) {
			if vec, ok := s.Decode(); !ok || len(vec) != 0 {
				t.Fatalf("Decode = (%v, %v), want (empty, true)", vec, ok)
			}
		}, true},
		{"Hash", func(t *testing.T, s *Sampler) {
			if top, _ := s.Hash(77); top < 0 || top >= cfg.MaxLevels {
				t.Fatalf("Hash level %d outside [0, %d)", top, cfg.MaxLevels)
			}
		}, true},
		{"Accessors", func(t *testing.T, s *Sampler) {
			if s.Domain() != dom || s.Config().MaxLevels != cfg.MaxLevels {
				t.Fatal("accessors wrong on an absent sampler")
			}
			if s.StateWords() != 0 || s.SharedWords() != present.SharedWords() {
				t.Fatalf("StateWords %d, SharedWords %d", s.StateWords(), s.SharedWords())
			}
		}, true},
		{"AppendBinary", func(t *testing.T, s *Sampler) {
			if b := s.AppendBinary(nil); !bytes.Equal(b, []byte{0}) || s.BinarySize() != 1 {
				t.Fatalf("AppendBinary = %v, BinarySize = %d; want [0], 1", b, s.BinarySize())
			}
		}, true},
		{"Clone", func(t *testing.T, s *Sampler) {
			if c := s.Clone(); c.cells != nil || c.sh != s.sh {
				t.Fatal("clone of an absent sampler is not absent on the same randomness")
			}
			if row := CloneRow([]Sampler{*s}); row[0].cells != nil {
				t.Fatal("CloneRow materialized an absent sampler")
			}
		}, true},
		{"Health", func(t *testing.T, s *Sampler) {
			m := s.Health().Metrics
			if m["levels"] != float64(cfg.MaxLevels) || m["levels_allocated"] != 0 ||
				m["top_level"] != -1 || m["at_risk"] != 0 {
				t.Fatalf("Health metrics %v", m)
			}
		}, true},
		{"AddScaled/absent-source", func(t *testing.T, s *Sampler) {
			if err := s.AddScaled(New(0xab5e, dom, cfg), 1); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"AddScaled/incompatible", func(t *testing.T, s *Sampler) {
			if err := s.AddScaled(New(0xab5f, dom, cfg), 1); err == nil {
				t.Fatal("different seed accepted")
			}
		}, true},
		{"AddBinary/empty-share", func(t *testing.T, s *Sampler) {
			if rest, err := s.AddBinary([]byte{0, 9}); err != nil || !bytes.Equal(rest, []byte{9}) {
				t.Fatalf("AddBinary([0]) = (%v, %v)", rest, err)
			}
		}, true},
		{"AddBinary/out-of-range", func(t *testing.T, s *Sampler) {
			if _, err := s.AddBinary([]byte{byte(cfg.MaxLevels + 1)}); err == nil {
				t.Fatal("MaxLevels+1 levels accepted")
			}
		}, true},
		{"AddBinary/top-level", func(t *testing.T, s *Sampler) {
			share := New(0xab5e, dom, cfg)
			for k := uint64(1); share.levels() < cfg.MaxLevels; k++ {
				if top, _ := share.Hash(k); top == cfg.MaxLevels-1 {
					share.Update(k, 1)
				}
			}
			if _, err := s.AddBinary(share.AppendBinary(nil)); err != nil {
				t.Fatalf("a share at level %d rejected: %v", cfg.MaxLevels-1, err)
			}
		}, false},
		{"AddScaled/present-source", func(t *testing.T, s *Sampler) {
			if err := s.AddScaled(present, 1); err != nil {
				t.Fatal(err)
			}
			if i, v, ok := s.Sample(); !ok || i != 77 || v != 3 {
				t.Fatalf("Sample after merge = (%d, %d, %v)", i, v, ok)
			}
		}, false},
		{"Update", func(t *testing.T, s *Sampler) {
			s.Update(5, 1)
			if s.IsZero() {
				t.Fatal("updated sampler is zero")
			}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, s := range []*Sampler{New(0xab5e, dom, cfg), &NewRow(0xab5e, dom, cfg, 2)[1]} {
				tc.run(t, s)
				if got := s.cells == nil; got != tc.absent {
					t.Fatalf("absent after %s = %v, want %v", tc.name, got, tc.absent)
				}
			}
		})
	}
}
