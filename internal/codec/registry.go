package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"

	"graphsketch"
	"graphsketch/internal/obs"
)

// Opener reconstructs a sketch from a checkpoint frame's params encoding
// and restores the frame's state, which state serves, into it. Each sketch
// package registers one per tag in an init function, backed by the same
// state merge as its ReadFrom, so raw state never crosses a package
// boundary; the registry is what lets Open rebuild a sketch from a
// checkpoint frame alone without this package importing (and cycling
// with) the sketch packages.
//
// An opener reads its params, asks state to buffer the bytes that back
// what the params declare before it builds anything (sketch.Fit), and
// then merges the state, which it must consume exactly. Its windows are
// views of the frame or of a reused buffer: an opener, like every
// ReadFrom, must copy whatever it keeps.
type Opener func(params []byte, state *StateReader) (graphsketch.Sketch, error)

var (
	regMu   sync.RWMutex
	openers = map[Tag]Opener{}
)

// Register installs the opener for a tag. It panics on duplicate
// registration — tags are wire format and each belongs to one package.
func Register(tag Tag, open Opener) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := openers[tag]; dup {
		panic(fmt.Sprintf("codec: duplicate registration for %v", tag))
	}
	openers[tag] = open
}

// RegisteredTags returns the tags with installed openers, sorted; the
// conformance tests use it to assert every structure participates.
func RegisteredTags() []Tag {
	regMu.RLock()
	defer regMu.RUnlock()
	tags := make([]Tag, 0, len(openers))
	//lint:ignore mapdeterminism collected tags are sorted before return; iteration order cannot reach the caller
	for t := range openers {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	return tags
}

func opener(tag Tag) Opener {
	regMu.RLock()
	defer regMu.RUnlock()
	return openers[tag]
}

// CheckpointSize returns the length of the checkpoint frame WriteCheckpoint
// writes for params and a stateSize-byte state.
func CheckpointSize(params []byte, stateSize int) int {
	return FrameOverhead + 4 + len(params) + stateSize
}

// WriteCheckpoint writes a checkpoint frame to w and records the write in
// the codec metrics. It is the single implementation behind every sketch's
// WriteTo method. The payload is the length-prefixed params encoding
// followed by the state writeState writes into fw, and the header
// fingerprint commits to (tag, params).
//
// The frame streams: the header goes out first, declaring a stateSize-byte
// state, and the state follows through fw's small buffer, checksummed a
// chunk at a time, so no frame-sized buffer exists. The declared length is
// therefore a promise. A state of any other length is an error, and no
// frame is completed: bytes past the declared length are never written,
// and a short state gets no CRC. A w.Write error is returned with the
// bytes w accepted, leaving the receiver a truncated frame.
func WriteCheckpoint(w io.Writer, tag Tag, params []byte, stateSize int, writeState func(fw *FrameWriter) error) (int64, error) {
	sp := obs.StartSpan(writeSpan)
	defer sp.End()
	fw := newFrameWriter(w, Header{Kind: KindCheckpoint, Tag: tag, Fingerprint: Fingerprint(tag, params)},
		CheckpointSize(params, stateSize))
	fw.buf = binary.LittleEndian.AppendUint32(fw.buf, uint32(len(params)))
	fw.buf = append(fw.buf, params...)
	if err := writeState(fw); err != nil && fw.err == nil {
		fw.err = err
	}
	n, err := fw.finish()
	if err == nil {
		cdm.ckptWriteBytes.Add(n)
	}
	return n, err
}

// ReadCheckpoint reads a checkpoint frame from r for a receiver whose
// identity is (wantTag, wantFP), verifies the frame matches, and hands its
// state to add: the typed replacement for "restore onto an
// identically-built instance and hope". It backs every sketch's ReadFrom,
// as WriteCheckpoint backs every WriteTo, and returns add's error as is.
// The frame is read whole and verified, CRC included, before add sees the
// state, which it serves in place (StateReader.Verified): a merge into a
// live sketch can check all of it before changing anything.
func ReadCheckpoint(r io.Reader, wantTag Tag, wantFP uint64, add func(state *StateReader) error) (int64, error) {
	sp := obs.StartSpan(readSpan)
	defer sp.End()
	h, frame, n, err := ReadFrameBytes(r)
	if err == nil {
		state := memState(h, frame)
		if _, err = state.params(); err == nil && (h.Tag != wantTag || h.Fingerprint != wantFP) {
			err = fmt.Errorf("codec: frame is %v/%016x, receiver is %v/%016x: %w",
				h.Tag, h.Fingerprint, wantTag, wantFP, ErrFingerprint)
		}
		if err == nil {
			cdm.ckptReadBytes.Add(n)
			return n, add(state)
		}
	}
	cdm.reject(err)
	return n, err
}

// Open reads one checkpoint frame from r, reconstructs the sketch it
// describes and restores its state via the registered opener, and returns
// the live sketch. This is the from-cold restore path: nothing about the
// sketch needs to be known in advance — the frame is self-describing.
//
// From a *bytes.Buffer or a Verified buffer the frame is verified where it
// lies and its state served in place. From any other reader it streams:
// the opener merges the state as it arrives, through one reused buffer
// (StateReader), and the CRC is compared after the last state byte. Open
// reads exactly one frame from r, and nothing past it.
//
// Every failure is a decode error (IsDecodeError): an opener's own error
// that is not one — params its constructor rejects, a state its structure
// cannot parse — is wrapped as ErrUnknownType, the cause kept in the chain.
// Whatever the opener made of the frame, a frame that ends early fails
// ErrTruncated and a corrupt one ErrChecksum, and a failed Open returns no
// sketch, so a partly restored one never escapes.
func Open(r io.Reader) (s graphsketch.Sketch, err error) {
	sp := obs.StartSpan(readSpan)
	defer sp.End()
	defer func() { cdm.reject(err) }()
	state, err := readState(r)
	if err != nil {
		return nil, err
	}
	s, err = state.open()
	if ferr := state.finish(); ferr != nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	cdm.ckptReadBytes.Add(state.n)
	return s, nil
}

// readState begins reading one frame from r: a buffer's frame verified
// whole where it lies, any other reader's streamed from its header on.
func readState(r io.Reader) (*StateReader, error) {
	switch r.(type) {
	case *bytes.Buffer, Verified:
		h, frame, _, err := ReadFrameBytes(r)
		if err != nil {
			return nil, err
		}
		return memState(h, frame), nil
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("codec: reading header: %w", ErrTruncated)
	}
	size, err := frameSize(hdr[:])
	if err != nil {
		return nil, err
	}
	return streamState(r, hdr[:], size)
}

// open takes the checkpoint's params and restores the sketch they describe
// through its tag's opener.
func (sr *StateReader) open() (graphsketch.Sketch, error) {
	params, err := sr.params()
	if err != nil {
		return nil, err
	}
	open := opener(sr.h.Tag)
	if open == nil {
		return nil, fmt.Errorf("codec: no decoder registered for %v: %w", sr.h.Tag, ErrUnknownType)
	}
	s, err := open(params, sr)
	if err != nil {
		if !IsDecodeError(err) {
			err = fmt.Errorf("%w: %w", ErrUnknownType, err)
		}
		return nil, fmt.Errorf("codec: opening %v: %w", sr.h.Tag, err)
	}
	return s, nil
}

// AppendShareFrame appends a share frame for vertex v to dst: the payload
// is the vertex index followed by the interior share appendShare appends
// in place, fingerprinted with the sender's identity so a mismatched
// receiver rejects it typed. shareSize is the exact length appendShare
// adds; a wrong size costs a regrow, never a wrong frame.
func AppendShareFrame(dst []byte, tag Tag, fp uint64, v, shareSize int, appendShare func([]byte) []byte) []byte {
	start := len(dst)
	dst = beginFrame(grow(dst, ShareOverhead+shareSize), Header{Kind: KindShare, Tag: tag, Fingerprint: fp}, 4+shareSize)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	return finishFrame(appendShare(dst), start)
}

// DecodeShareFrame reads a share frame from the front of b for a receiver
// whose identity is (wantTag, wantFP) and whose vertex space is [0, n), and
// returns the vertex, the interior share bytes, and any remaining bytes. A
// frame from a sketch with different parameters, profile, or seed fails
// with ErrFingerprint instead of decoding to garbage, one of a retired tag
// with ErrUnknownType; a vertex index outside [0, n) fails with
// graphsketch.ErrVertexRange.
func DecodeShareFrame(b []byte, wantTag Tag, wantFP uint64, n int) (v int, interior, rest []byte, err error) {
	defer func() { cdm.reject(err) }()
	h, payload, rest, err := DecodeFrame(b)
	switch {
	case err != nil:
		return 0, nil, nil, err
	case h.Kind != KindShare:
		return 0, nil, nil, fmt.Errorf("codec: expected a share frame, got kind %d: %w", h.Kind, ErrUnknownType)
	case h.Tag.retired():
		return 0, nil, nil, fmt.Errorf("codec: %v frames are retired: %w", h.Tag, ErrUnknownType)
	case h.Tag != wantTag || h.Fingerprint != wantFP:
		return 0, nil, nil, fmt.Errorf("codec: share is %v/%016x, receiver is %v/%016x: %w",
			h.Tag, h.Fingerprint, wantTag, wantFP, ErrFingerprint)
	case len(payload) < 4:
		return 0, nil, nil, fmt.Errorf("codec: share payload of %d bytes: %w", len(payload), ErrTruncated)
	}
	if v = int(binary.LittleEndian.Uint32(payload)); v >= n {
		return 0, nil, nil, fmt.Errorf("codec: share for vertex %d, receiver has %d: %w", v, n, graphsketch.ErrVertexRange)
	}
	return v, payload[4:], rest, nil
}
