// Package lzf implements an LZF-style byte-oriented Lempel-Ziv codec
// (the fast/low-ratio end of the paper's codec spectrum, used by EDC
// during high-intensity periods).
//
// Stream format (compatible in spirit with libLZF):
//
//	ctrl < 0x20:  literal run, ctrl+1 literal bytes follow
//	ctrl >= 0x20: back reference
//	    length  = ctrl>>5 (+ next byte if the 3-bit field is 7) + 2
//	    offset  = ((ctrl&0x1f)<<8 | next byte) + 1, counted back from
//	              the current output position
//
// Matches are found with a 3-byte hash table; maximum offset is 8 KiB,
// maximum match length 264.
package lzf

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"edc/internal/compress"
)

const (
	hashBits  = 14
	hashSize  = 1 << hashBits
	maxOff    = 1 << 13 // 8192
	maxRef    = maxOff
	maxLit    = 32
	maxMatch  = 255 + 7 + 2 // extended length byte + field + base
	minMatch  = 3
	tailGuard = 4 // do not start matches within the final bytes
)

// Codec is the LZF codec. The zero value is ready to use.
type Codec struct{}

// New returns the LZF codec.
func New() *Codec { return &Codec{} }

// Name implements compress.Codec.
func (*Codec) Name() string { return "lzf" }

// Tag implements compress.Codec.
func (*Codec) Tag() compress.Tag { return compress.TagLZF }

func hash3(v uint32) uint32 {
	// Multiplicative hash of the low 3 bytes.
	return ((v & 0xffffff) * 2654435761) >> (32 - hashBits)
}

func load3(src []byte, i int) uint32 {
	return uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16
}

// matchTable is the encoder's hash table: for each 3-byte hash, the
// most recent position that had it. Entries are stored as base+position
// and base moves past every position of a finished call plus maxOff, so
// whatever an earlier call left behind reads as further back than any
// reference may reach and the table is never cleared between calls. A
// sync.Pool keeps the codec safe for concurrent use by replay workers.
type matchTable struct {
	pos  [hashSize]int32
	base int32
}

var tablePool = sync.Pool{New: func() interface{} { return &matchTable{base: maxOff + 1} }}

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) []byte {
	return c.AppendCompress(make([]byte, 0, len(src)+len(src)/16+16), src)
}

// appendLits appends lits as literal runs of at most maxLit bytes.
func appendLits(out, lits []byte) []byte {
	for len(lits) > maxLit {
		out = append(out, maxLit-1)
		out = append(out, lits[:maxLit]...)
		lits = lits[maxLit:]
	}
	if len(lits) > 0 {
		out = append(out, byte(len(lits)-1))
		out = append(out, lits...)
	}
	return out
}

// AppendCompress implements compress.Appender: it appends the
// compressed form of src to dst (growing it as needed) and returns the
// extended slice. The hot replay path calls it with pooled buffers so a
// compression allocates nothing in steady state.
func (*Codec) AppendCompress(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	t := tablePool.Get().(*matchTable)
	out := t.appendCompress(dst, src)
	tablePool.Put(t)
	return out
}

// appendCompress is AppendCompress over this table.
func (t *matchTable) appendCompress(out, src []byte) []byte {
	if int64(t.base)+int64(len(src))+maxOff > math.MaxInt32 {
		*t = matchTable{base: maxOff + 1}
	}
	table, base := &t.pos, int(t.base)
	litStart := 0 // start of the pending literal run
	i := 0
	// Every position the loop visits has at least tailGuard bytes after
	// its three, so one 32-bit load covers the hash and the comparison.
	for last := len(src) - tailGuard - minMatch; i <= last; {
		v := binary.LittleEndian.Uint32(src[i:])
		h := hash3(v)
		ref := int(table[h]) - base
		table[h] = int32(base + i)
		if i-ref > maxOff || (binary.LittleEndian.Uint32(src[ref:])^v)&0xffffff != 0 {
			i++
			continue
		}
		mlen := compress.MatchLen(src, ref, i, min(len(src)-i, maxMatch))
		out = appendLits(out, src[litStart:i])
		off := i - ref - 1
		l := mlen - 2
		if l < 7 {
			out = append(out, byte(l<<5)|byte(off>>8), byte(off))
		} else {
			out = append(out, 7<<5|byte(off>>8), byte(l-7), byte(off))
		}
		// Insert hashes inside the match so later matches can refer in.
		end := i + mlen
		j := i + 1
		for stop := min(end, len(src)-3); j < stop; j++ {
			table[hash3(binary.LittleEndian.Uint32(src[j:]))] = int32(base + j)
		}
		if j < end && j+minMatch <= len(src) {
			table[hash3(load3(src, j))] = int32(base + j)
		}
		i = end
		litStart = i
	}
	t.base = int32(base + len(src) + maxOff)
	return appendLits(out, src[litStart:])
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(src []byte, origLen int) ([]byte, error) {
	out, err := c.DecompressAppend(make([]byte, 0, origLen), src, origLen)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressAppend implements compress.DecompressAppender: it appends
// the decompressed form of src to dst (growing it as needed) and returns
// the extended slice. Back references are resolved relative to the bytes
// appended by this call, so a dst prefix never leaks into the output.
func (*Codec) DecompressAppend(dst, src []byte, origLen int) ([]byte, error) {
	base := len(dst)
	out := dst
	if origLen > 0 {
		// Size the output once; every append below then stays in place.
		out = slices.Grow(out, origLen)
	}
	i := 0
	for i < len(src) {
		ctrl := int(src[i])
		i++
		if ctrl < 0x20 {
			n := ctrl + 1
			if i+n > len(src) || len(out)-base+n > origLen {
				return dst, compress.ErrCorrupt
			}
			out = append(out, src[i:i+n]...)
			i += n
			continue
		}
		l := ctrl >> 5
		if l == 7 {
			if i >= len(src) {
				return dst, compress.ErrCorrupt
			}
			l += int(src[i])
			i++
		}
		mlen := l + 2
		if i >= len(src) {
			return dst, compress.ErrCorrupt
		}
		off := (ctrl&0x1f)<<8 | int(src[i])
		i++
		ref := len(out) - off - 1
		if ref < base || len(out)-base+mlen > origLen {
			return dst, compress.ErrCorrupt
		}
		if off+1 >= mlen {
			out = append(out, out[ref:ref+mlen]...)
			continue
		}
		// Overlapping reference: the copy must see its own output.
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
