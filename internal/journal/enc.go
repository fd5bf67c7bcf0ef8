// Package journal is the durability layer of the repair system: a
// CRC-framed append-only record log, atomically-committed versioned
// snapshot files, and a compact binary codec for the plain data that goes
// into them.
//
// The package knows nothing about repair semantics — internal/core
// defines what a snapshot contains; journal defines how it is framed,
// committed, validated, and recovered. The contract for every
// artifact written here is crash-safety under SIGKILL: a reader either
// sees a fully committed, checksummed artifact or rejects it with a clear
// error, never a silent partial load.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrTruncated is wrapped by decode errors caused by running out of bytes
// mid-value — the signature of a torn write that escaped framing (which
// atomic snapshot commits make impossible, but the decoder still refuses
// to fabricate values).
var ErrTruncated = errors.New("journal: truncated payload")

// Encoder builds a binary payload. Integers are varint-encoded (zigzag for
// signed), strings and byte slices are length-prefixed. The zero value is
// ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties the encoder while keeping its allocated buffer, so a
// periodic writer (the engine checkpointer) reuses one buffer across
// snapshots instead of regrowing it from nil every time.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U64 appends an unsigned varint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a signed (zigzag) varint.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends a signed integer.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a boolean.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends a float64 as its IEEE-754 bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Dur appends a duration in nanoseconds.
func (e *Encoder) Dur(d time.Duration) { e.I64(int64(d)) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends a length-prefixed byte slice.
func (e *Encoder) Raw(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder reads a payload produced by Encoder. The first malformed value
// sets a sticky error; subsequent reads return zero values, so decode
// sequences can run to completion and check Err once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over the payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Rest returns the undecoded remainder of the payload.
func (d *Decoder) Rest() []byte { return d.buf[d.off:] }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrTruncated, what, d.off)
	}
}

// U64 reads an unsigned varint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// I64 reads a signed (zigzag) varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed integer.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("bool")
		return false
	}
	b := d.buf[d.off]
	d.off++
	return b != 0
}

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Dur reads a duration.
func (d *Decoder) Dur() time.Duration { return time.Duration(d.I64()) }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.bytes("string")) }

// Raw reads a length-prefixed byte slice (aliasing the payload).
func (d *Decoder) Raw() []byte { return d.bytes("bytes") }

func (d *Decoder) bytes(what string) []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}
