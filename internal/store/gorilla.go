package store

import (
	"errors"
	"math"
	"math/bits"
)

// Sample is one reading: a Unix timestamp in seconds and a value in kWh.
type Sample struct {
	TS    int64   `json:"ts"`
	Value float64 `json:"v"`
}

// ErrOutOfOrder is returned when appending a sample at or before the chunk's
// last timestamp.
var ErrOutOfOrder = errors.New("store: sample timestamp not strictly increasing")

// ErrCorrupt is returned when decoding malformed chunk bytes.
var ErrCorrupt = errors.New("store: corrupt chunk")

// Encoder compresses an in-order stream of samples using the Gorilla scheme:
// the first timestamp is stored raw, the second as a delta, and subsequent
// ones as delta-of-delta with variable-length prefix codes; values are
// XORed against the previous value with leading/trailing-zero windows.
type Encoder struct {
	w       *bitWriter
	n       int
	t0      int64
	prevT   int64
	prevD   int64
	prevV   uint64
	leading uint8
	sigbits uint8 // meaningful bit count of the previous XOR window
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{w: newBitWriter(), leading: 0xff}
}

// reset empties the encoder for a new block, keeping its bit buffer.
func (e *Encoder) reset() {
	w := e.w
	w.reset()
	*e = Encoder{w: w, leading: 0xff}
}

// Len returns the number of encoded samples.
func (e *Encoder) Len() int { return e.n }

// LastTS returns the last appended timestamp, or 0 when empty.
func (e *Encoder) LastTS() int64 { return e.prevT }

// SizeBytes returns the current compressed payload size.
func (e *Encoder) SizeBytes() int { return e.w.size() }

// Append adds one sample; timestamps must be strictly increasing.
func (e *Encoder) Append(s Sample) error {
	if e.n > 0 && s.TS <= e.prevT {
		return ErrOutOfOrder
	}
	switch e.n {
	case 0:
		e.t0 = s.TS
		e.w.writeBits(uint64(s.TS), 64)
		e.writeFirstValue(s.Value)
	case 1:
		delta := s.TS - e.prevT
		e.writeVarDelta(delta)
		e.prevD = delta
		e.writeValue(s.Value)
	default:
		dod := (s.TS - e.prevT) - e.prevD
		e.writeVarDelta(dod)
		e.prevD = s.TS - e.prevT
		e.writeValue(s.Value)
	}
	e.prevT = s.TS
	e.n++
	return nil
}

// writeVarDelta emits Gorilla's prefix-coded signed integer:
//
//	0                     -> 0
//	10 + 7 bits           -> [-63, 64]
//	110 + 9 bits          -> [-255, 256]
//	1110 + 12 bits        -> [-2047, 2048]
//	1111 + 64 bits        -> anything else
func (e *Encoder) writeVarDelta(d int64) {
	switch {
	case d == 0:
		e.w.writeBit(false)
	case d >= -63 && d <= 64:
		e.w.writeBits(0b10, 2)
		e.w.writeBits(uint64(d+63)&0x7f, 7)
	case d >= -255 && d <= 256:
		e.w.writeBits(0b110, 3)
		e.w.writeBits(uint64(d+255)&0x1ff, 9)
	case d >= -2047 && d <= 2048:
		e.w.writeBits(0b1110, 4)
		e.w.writeBits(uint64(d+2047)&0xfff, 12)
	default:
		e.w.writeBits(0b1111, 4)
		e.w.writeBits(uint64(d), 64)
	}
}

func (e *Encoder) writeFirstValue(v float64) {
	e.prevV = math.Float64bits(v)
	e.w.writeBits(e.prevV, 64)
}

func (e *Encoder) writeValue(v float64) {
	cur := math.Float64bits(v)
	xor := cur ^ e.prevV
	e.prevV = cur
	if xor == 0 {
		e.w.writeBit(false)
		return
	}
	e.w.writeBit(true)
	lead := uint8(bits.LeadingZeros64(xor))
	if lead > 31 {
		lead = 31
	}
	trail := uint8(bits.TrailingZeros64(xor))
	sig := 64 - lead - trail
	// Reuse the previous window if the new XOR fits inside it.
	if e.leading != 0xff && lead >= e.leading && trail >= 64-e.leading-e.sigbits {
		e.w.writeBit(false)
		e.w.writeBits(xor>>(64-e.leading-e.sigbits), uint(e.sigbits))
		return
	}
	e.leading, e.sigbits = lead, sig
	e.w.writeBit(true)
	e.w.writeBits(uint64(lead), 5)
	// sig is in [1,64]; store sig-1 in 6 bits.
	e.w.writeBits(uint64(sig-1), 6)
	e.w.writeBits(xor>>trail, uint(sig))
}

// Bytes returns the compressed payload. The encoder remains usable.
func (e *Encoder) Bytes() []byte { return e.w.bytes() }

// Decode decompresses a payload produced by Encoder containing n samples.
func Decode(data []byte, n int) ([]Sample, error) {
	if n < 0 {
		return nil, ErrCorrupt
	}
	// Pre-size from n, but cap the up-front allocation: n may come from
	// untrusted chunk metadata, and a corrupt giant count must fail with
	// ErrCorrupt after decoding runs dry, not OOM on make().
	capHint := n
	if max := len(data)*4 + 2; capHint > max { // >= 2 bits per sample after the header
		capHint = max
	}
	out := make([]Sample, 0, capHint)
	var d blockReader
	d.reset(data, n)
	b := GetBatch()
	defer PutBatch(b)
	for !d.done() {
		b.Reset()
		d.decodeInto(b)
		out = b.appendTo(out)
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}
