package sketch

import "errors"

// ErrShare is returned when a serialized vertex share is malformed.
var ErrShare = errors.New("sketch: malformed vertex share")

// VertexShare serializes vertex v's share of the spanning sketch: its
// samplers across all rounds. This is exactly the message player P_v sends
// to the referee in the simultaneous communication model of Becker et al.
// (the sketch is vertex-based: v's samplers depend only on edges incident
// to v, which is precisely P_v's input).
func (s *SpanningSketch) VertexShare(v int) []byte {
	return s.AppendVertexShare(make([]byte, 0, s.VertexShareSize(v)), v)
}

// AppendVertexShare appends vertex v's share (VertexShare) to dst.
func (s *SpanningSketch) AppendVertexShare(dst []byte, v int) []byte {
	for t := range s.samplers {
		dst = s.samplers[t][v].AppendBinary(dst)
	}
	return dst
}

// VertexShareSize returns the length of vertex v's share.
func (s *SpanningSketch) VertexShareSize(v int) int {
	n := 0
	for t := range s.samplers {
		n += s.samplers[t][v].BinarySize()
	}
	return n
}

// AddVertexShare merges a serialized vertex share into this sketch
// (linearly). The share must come from a sketch with identical seed,
// domain, and config — the protocol's shared public randomness; that
// invariant is unchecked here. Transported shares should travel as codec
// share frames (VertexShareFrame / AddVertexShareFrame), which verify the
// identity fingerprint before delegating to this raw interior path.
func (s *SpanningSketch) AddVertexShare(v int, data []byte) error {
	return noTrailing(s.AddVertexShareFrom(v, data))
}

// AddVertexShareFrom merges a vertex share from the front of b and returns
// the remaining bytes, for composition into larger protocol messages.
func (s *SpanningSketch) AddVertexShareFrom(v int, b []byte) ([]byte, error) {
	var err error
	for t := range s.samplers {
		if b, err = s.samplers[t][v].AddBinary(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// VertexShare serializes vertex v's share across all skeleton layers.
func (s *SkeletonSketch) VertexShare(v int) []byte {
	return s.AppendVertexShare(make([]byte, 0, s.VertexShareSize(v)), v)
}

// AppendVertexShare appends vertex v's share (VertexShare) to dst.
func (s *SkeletonSketch) AppendVertexShare(dst []byte, v int) []byte {
	for _, l := range s.layers {
		dst = l.AppendVertexShare(dst, v)
	}
	return dst
}

// VertexShareSize returns the length of vertex v's share.
func (s *SkeletonSketch) VertexShareSize(v int) int {
	n := 0
	for _, l := range s.layers {
		n += l.VertexShareSize(v)
	}
	return n
}

// AddVertexShare merges a serialized skeleton vertex share.
func (s *SkeletonSketch) AddVertexShare(v int, data []byte) error {
	return noTrailing(s.AddVertexShareFrom(v, data))
}

// AddVertexShareFrom merges a skeleton vertex share from the front of b and
// returns the remaining bytes.
func (s *SkeletonSketch) AddVertexShareFrom(v int, b []byte) ([]byte, error) {
	var err error
	for _, l := range s.layers {
		if b, err = l.AddVertexShareFrom(v, b); err != nil {
			return nil, err
		}
	}
	return b, nil
}
