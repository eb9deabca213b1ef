// Package lz4x implements an LZ4-block-format-style codec: token-encoded
// literal runs and matches with 16-bit offsets. It is the fastest and
// lowest-ratio codec in the suite (the paper's Lz4 reference point in
// Fig. 2).
//
// Sequence layout (per the LZ4 block format):
//
//	token: high nibble = literal count (15 ⇒ extended with 255-bytes),
//	       low nibble  = match length - 4 (15 ⇒ extended)
//	literals
//	2-byte little-endian match offset (absent in the final sequence)
//	extended match length bytes
package lz4x

import (
	"encoding/binary"

	"edc/internal/compress"
)

const (
	hashBits = 15
	hashSize = 1 << hashBits
	minMatch = 4
	maxOff   = 65535
	// skipTrigger implements LZ4's acceleration: after repeated match
	// misses the scan step grows, keeping worst-case (incompressible)
	// input fast.
	skipTrigger = 6
)

// Codec is the LZ4-style codec. The zero value is ready to use.
type Codec struct{}

// New returns the lz4x codec.
func New() *Codec { return &Codec{} }

// Name implements compress.Codec.
func (*Codec) Name() string { return "lz4" }

// Tag implements compress.Codec.
func (*Codec) Tag() compress.Tag { return compress.TagLZ4 }

func hash4(v uint32) uint32 {
	return (v * 2654435761) >> (32 - hashBits)
}

func load4(src []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(src[i:])
}

func writeLen(out []byte, n int) []byte {
	for n >= 255 {
		out = append(out, 255)
		n -= 255
	}
	return append(out, byte(n))
}

// AppendCompress implements compress.Codec: it appends the
// compressed form of src to dst (growing it as needed) and returns the
// extended slice. The hot replay path calls it with pooled buffers so a
// compression allocates nothing in steady state.
func (*Codec) AppendCompress(dst, src []byte) []byte {
	out := dst
	if len(src) == 0 {
		return out
	}
	var table [hashSize]int32
	for i := range table {
		table[i] = -1
	}
	anchor := 0
	i := 0
	searches := 0
	emit := func(litEnd, matchLen, offset int) {
		litLen := litEnd - anchor
		var token byte
		if litLen >= 15 {
			token = 0xf0
		} else {
			token = byte(litLen) << 4
		}
		ml := matchLen - minMatch
		if ml >= 15 {
			token |= 0x0f
		} else {
			token |= byte(ml)
		}
		out = append(out, token)
		if litLen >= 15 {
			out = writeLen(out, litLen-15)
		}
		out = append(out, src[anchor:litEnd]...)
		out = append(out, byte(offset), byte(offset>>8))
		if ml >= 15 {
			out = writeLen(out, ml-15)
		}
	}
	for i+minMatch <= len(src)-minMatch {
		h := hash4(load4(src, i))
		cand := table[h]
		table[h] = int32(i)
		if cand < 0 || i-int(cand) > maxOff || load4(src, int(cand)) != load4(src, i) {
			searches++
			i += 1 + searches>>skipTrigger
			continue
		}
		searches = 0
		ref := int(cand)
		mlen := minMatch
		for i+mlen < len(src) && src[ref+mlen] == src[i+mlen] {
			mlen++
		}
		emit(i, mlen, i-ref)
		i += mlen
		anchor = i
		if i+minMatch <= len(src) {
			table[hash4(load4(src, i-2))] = int32(i - 2)
		}
	}
	// Final literal-only sequence.
	litLen := len(src) - anchor
	var token byte
	if litLen >= 15 {
		token = 0xf0
	} else {
		token = byte(litLen) << 4
	}
	out = append(out, token)
	if litLen >= 15 {
		out = writeLen(out, litLen-15)
	}
	out = append(out, src[anchor:]...)
	return out
}

// DecompressAppend implements compress.Codec: it appends
// the decompressed form of src to dst (growing it as needed) and returns
// the extended slice. Match offsets are resolved relative to the bytes
// appended by this call, so a dst prefix never leaks into the output.
func (*Codec) DecompressAppend(dst, src []byte, origLen int) ([]byte, error) {
	base := len(dst)
	out := dst
	i := 0
	readLen := func(n int) (int, bool) {
		for {
			if i >= len(src) {
				return 0, false
			}
			b := src[i]
			i++
			n += int(b)
			if b != 255 {
				return n, true
			}
		}
	}
	for i < len(src) {
		token := src[i]
		i++
		litLen := int(token >> 4)
		if litLen == 15 {
			var ok bool
			litLen, ok = readLen(15)
			if !ok {
				return dst, compress.ErrCorrupt
			}
		}
		if i+litLen > len(src) || len(out)-base+litLen > origLen {
			return dst, compress.ErrCorrupt
		}
		out = append(out, src[i:i+litLen]...)
		i += litLen
		if i >= len(src) {
			break // final sequence carries no match
		}
		if i+2 > len(src) {
			return dst, compress.ErrCorrupt
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		mlen := int(token & 0x0f)
		if mlen == 15 {
			var ok bool
			mlen, ok = readLen(15)
			if !ok {
				return dst, compress.ErrCorrupt
			}
		}
		mlen += minMatch
		ref := len(out) - offset
		if offset == 0 || ref < base || len(out)-base+mlen > origLen {
			return dst, compress.ErrCorrupt
		}
		for k := 0; k < mlen; k++ {
			out = append(out, out[ref+k])
		}
	}
	if len(out)-base != origLen {
		return dst, compress.ErrSizeMismatch
	}
	return out, nil
}

func init() {
	compress.MustRegister(New())
}
