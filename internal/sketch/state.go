package sketch

// State serializes the sketch's full contents — every vertex's share in
// order — for checkpointing a long-running stream consumer. The seed,
// domain, and config are NOT serialized: they are the structure's identity,
// and restoring requires constructing an identically-parameterized sketch
// first (exactly as the communication model's public randomness works).
func (s *SpanningSketch) State() []byte { return s.AppendState(make([]byte, 0, s.StateSize())) }

// AppendState appends State's bytes to dst; StateSize is their exact
// length, so a presized dst never regrows.
func (s *SpanningSketch) AppendState(dst []byte) []byte {
	for v := 0; v < s.dom.N(); v++ {
		dst = s.AppendVertexShare(dst, v)
	}
	return dst
}

// StateSize returns the length of State.
func (s *SpanningSketch) StateSize() int { return sumVertices(s.dom.N(), s.VertexShareSize) }

// AddState merges a serialized state into the sketch (linearly). Restoring
// a checkpoint means calling AddState on a freshly constructed sketch with
// the same seed, domain and config; calling it on a non-empty sketch adds
// the two streams' contents, which is itself meaningful by linearity.
func (s *SpanningSketch) AddState(data []byte) error {
	return noTrailing(addShares(s.dom.N(), data, s.AddVertexShareFrom))
}

// State serializes the skeleton sketch's full contents (see
// SpanningSketch.State).
func (s *SkeletonSketch) State() []byte { return s.AppendState(make([]byte, 0, s.StateSize())) }

// AppendState appends State's bytes to dst (see SpanningSketch.AppendState).
func (s *SkeletonSketch) AppendState(dst []byte) []byte {
	for v := 0; v < s.dom.N(); v++ {
		dst = s.AppendVertexShare(dst, v)
	}
	return dst
}

// StateSize returns the length of State.
func (s *SkeletonSketch) StateSize() int { return sumVertices(s.dom.N(), s.VertexShareSize) }

// AddState merges a serialized skeleton state (see SpanningSketch.AddState).
func (s *SkeletonSketch) AddState(data []byte) error {
	return noTrailing(addShares(s.dom.N(), data, s.AddVertexShareFrom))
}

// sumVertices sums size(v) over the n vertices.
func sumVertices(n int, size func(v int) int) int {
	total := 0
	for v := 0; v < n; v++ {
		total += size(v)
	}
	return total
}

// addShares merges n vertex shares, in vertex order, from the front of b.
func addShares(n int, b []byte, addFrom func(v int, b []byte) ([]byte, error)) ([]byte, error) {
	var err error
	for v := 0; v < n && err == nil; v++ {
		b, err = addFrom(v, b)
	}
	return b, err
}

// noTrailing requires a merge to have consumed its input exactly.
func noTrailing(rest []byte, err error) error {
	if err == nil && len(rest) != 0 {
		return ErrShare
	}
	return err
}
