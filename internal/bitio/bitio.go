// Package bitio provides LSB-first bit-level readers and writers used by
// the entropy coders in internal/compress.
//
// Bits are packed least-significant-bit first within each byte: the first
// bit written becomes bit 0 of the first output byte. This matches the
// packing order of DEFLATE and keeps the hot encode/decode loops branch
// friendly.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the input.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of input")

// Writer accumulates bits into an in-memory buffer.
//
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64 // bit accumulator, low bits first
	nAcc uint   // number of valid bits in acc
}

// NewWriter returns a Writer whose underlying buffer has the given
// capacity hint in bytes.
func NewWriter(capHint int) *Writer {
	if capHint < 0 {
		capHint = 0
	}
	return &Writer{buf: make([]byte, 0, capHint)}
}

// WriteBits appends the low n bits of v, least significant bit first.
// n must be in [0, 57]; larger writes must be split by the caller.
// (57 = 64-7 keeps the accumulator from overflowing before a flush.)
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 57 {
		panic(fmt.Sprintf("bitio: WriteBits n=%d out of range", n))
	}
	w.acc |= (v & ((1 << n) - 1)) << w.nAcc
	w.nAcc += n
	for w.nAcc >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.nAcc -= 8
	}
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b uint) {
	w.WriteBits(uint64(b&1), 1)
}

// WriteByte appends one full byte (aligned with the bit stream, i.e. it is
// equivalent to WriteBits(uint64(b), 8)).
func (w *Writer) WriteByte(b byte) error {
	w.WriteBits(uint64(b), 8)
	return nil
}

// Align pads the stream with zero bits to the next byte boundary.
func (w *Writer) Align() {
	if w.nAcc > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc = 0
		w.nAcc = 0
	}
}

// BitLen reports the total number of bits written so far.
func (w *Writer) BitLen() int {
	return len(w.buf)*8 + int(w.nAcc)
}

// Bytes flushes any partial byte (zero padded) and returns the buffer.
// The returned slice aliases the Writer's internal storage.
func (w *Writer) Bytes() []byte {
	w.Align()
	return w.buf
}

// Reset truncates the writer for reuse, keeping the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.nAcc = 0
}

// ResetBuf re-points the writer at buf: subsequent writes append after
// buf's existing contents, reusing its spare capacity. It lets callers
// run the bit stream over a caller-managed (e.g. pooled) buffer with a
// zero-value Writer, avoiding both the Writer and the buffer allocation:
//
//	var w bitio.Writer
//	w.ResetBuf(dst)
//	... writes ...
//	dst = w.Bytes()
func (w *Writer) ResetBuf(buf []byte) {
	w.buf = buf
	w.acc = 0
	w.nAcc = 0
}

// Reader consumes bits from a byte slice, LSB first.
type Reader struct {
	data []byte
	pos  int    // next byte to load
	acc  uint64 // bit accumulator
	nAcc uint   // valid bits in acc
}

// NewReader returns a Reader over data. The reader does not copy data.
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// Reset re-points the reader at data, discarding any buffered bits. It
// lets callers run the bit stream through a stack- or pool-resident
// zero-value Reader, avoiding the NewReader allocation on hot decode
// paths:
//
//	var r bitio.Reader
//	r.Reset(src)
//	... reads ...
func (r *Reader) Reset(data []byte) {
	r.data = data
	r.pos = 0
	r.acc = 0
	r.nAcc = 0
}

// fill loads bytes into the accumulator until it holds at least n bits or
// input is exhausted; callers need it only when fewer than n are buffered.
// Away from the end of the input it takes, in one load, every whole byte
// that fits above the buffered bits (57 bits or more afterwards, enough
// for any n).
func (r *Reader) fill(n uint) {
	if r.pos+8 <= len(r.data) {
		k := (64 - r.nAcc) >> 3
		v := binary.LittleEndian.Uint64(r.data[r.pos:])
		if k < 8 {
			v &= 1<<(8*k) - 1
		}
		r.acc |= v << r.nAcc
		r.pos += int(k)
		r.nAcc += 8 * k
		return
	}
	for r.nAcc < n && r.pos < len(r.data) {
		r.acc |= uint64(r.data[r.pos]) << r.nAcc
		r.pos++
		r.nAcc += 8
	}
}

// ReadBits reads n bits (n <= 57) and returns them in the low bits of the
// result. It returns ErrUnexpectedEOF if fewer than n bits remain.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 57 {
		panic(fmt.Sprintf("bitio: ReadBits n=%d out of range", n))
	}
	if r.nAcc < n {
		if r.fill(n); r.nAcc < n {
			return 0, ErrUnexpectedEOF
		}
	}
	v := r.acc & ((1 << n) - 1)
	r.acc >>= n
	r.nAcc -= n
	return v, nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// Peek returns up to n bits (n <= 57) without consuming them. If fewer
// than n bits remain the missing high bits are zero; ok reports how many
// bits are actually available.
func (r *Reader) Peek(n uint) (v uint64, avail uint) {
	if n > 57 {
		panic(fmt.Sprintf("bitio: Peek n=%d out of range", n))
	}
	if r.nAcc < n {
		r.fill(n)
	}
	avail = r.nAcc
	if avail > n {
		avail = n
	}
	return r.acc & ((1 << n) - 1), avail
}

// Skip consumes n bits that were previously Peeked. n must not exceed the
// number of buffered bits.
func (r *Reader) Skip(n uint) {
	if n > r.nAcc {
		panic("bitio: Skip past buffered bits")
	}
	r.acc >>= n
	r.nAcc -= n
}

// Align discards bits up to the next byte boundary.
func (r *Reader) Align() {
	drop := r.nAcc % 8
	r.acc >>= drop
	r.nAcc -= drop
}

// ReadByte reads one byte from the bit stream.
func (r *Reader) ReadByte() (byte, error) {
	v, err := r.ReadBits(8)
	return byte(v), err
}

// BitsRemaining reports how many unread bits remain (including buffered
// accumulator bits).
func (r *Reader) BitsRemaining() int {
	return (len(r.data)-r.pos)*8 + int(r.nAcc)
}
