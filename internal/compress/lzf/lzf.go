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

// AppendCompress implements compress.Codec: it appends the
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

// The decoder's fast zone runs while one worst-case token still fits
// before the end of both buffers, so inside it only a reference reaching
// back past the start of the output needs a check. Both are whole words
// because the fast copies move eight bytes at a time and may run up to
// seven bytes past a token's own end.
const (
	inSlack  = (1 + maxLit + 7) &^ 7   // control byte and the longest literal run
	outSlack = (maxMatch + 7 + 7) &^ 7 // the longest match, its word moves starting up to seven bytes in
)

// nearLead[d-1] is how many bytes of a match at distance d < 8 are
// copied singly before word moves take over: the least multiple of d
// that is 8 or more, less d.
var nearLead = [7]uint8{7, 6, 6, 4, 5, 6, 7}

// maxExpand bounds the output one input byte can stand for: the
// three-byte extended match token yields maxMatch bytes, every other
// token less per byte.
const maxExpand = maxMatch / 3

// copy8 copies eight bytes from src[s:] to dst[d:].
func copy8(dst []byte, d int, src []byte, s int) {
	binary.LittleEndian.PutUint64(dst[d:d+8:d+8], binary.LittleEndian.Uint64(src[s:s+8:s+8]))
}

// decodeFast decodes tokens of src into out from out[base] for as long
// as both buffers keep their slack, without length checks and eight
// bytes per move, and returns where it stopped in each; ok is false when
// a reference reaches back past base.
func decodeFast(out, src []byte, base int) (i, o int, ok bool) {
	o = base
	for i+inSlack <= len(src) && o+outSlack <= len(out) {
		s := src[i : i+inSlack : i+inSlack]
		ctrl := int(s[0])
		if ctrl < 0x20 {
			d := out[o : o+maxLit : o+maxLit]
			binary.LittleEndian.PutUint64(d[0:], binary.LittleEndian.Uint64(s[1:]))
			binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(s[9:]))
			if ctrl >= 16 {
				binary.LittleEndian.PutUint64(d[16:], binary.LittleEndian.Uint64(s[17:]))
				binary.LittleEndian.PutUint64(d[24:], binary.LittleEndian.Uint64(s[25:]))
			}
			i += ctrl + 2
			o += ctrl + 1
			continue
		}
		mlen := ctrl>>5 + 2
		low := int(s[1])
		i += 2
		if mlen == 7+2 {
			mlen += low
			low = int(s[2])
			i++
		}
		off := (ctrl&0x1f)<<8 | low
		ref := o - off - 1
		if ref < base {
			return i, o, false
		}
		if off < 7 {
			// Closer than a word: the output repeats with period off+1.
			// The first bytes go one at a time, until a whole number of
			// periods, eight bytes or more, lies behind the next one;
			// from there whole words can follow at that distance.
			lead := int(nearLead[off])
			for k := 0; k < lead; k++ {
				out[o+k] = out[ref+k]
			}
			for k := lead; k < mlen; k += 8 {
				copy8(out, o+k, out, ref+k-lead)
			}
			o += mlen
			continue
		}
		// Distance of a word or more: each load sees only bytes that
		// earlier moves have finished. Most matches fit the first word.
		copy8(out, o, out, ref)
		for k := 8; k < mlen; k += 8 {
			copy8(out, o+k, out, ref+k)
		}
		o += mlen
	}
	return i, o, true
}

// DecompressAppend implements compress.Codec: it appends
// the decompressed form of src to dst (growing it as needed) and returns
// the extended slice. Back references are resolved relative to the bytes
// appended by this call, so a dst prefix never leaks into the output.
//
// The output is sized once — to origLen, or to what len(src) bytes can
// expand to when that is less, so a lying origLen costs no memory — and
// written by index; nothing outside dst[len(dst):len(dst)+origLen] is
// touched, and on error dst comes back as it was passed.
func (*Codec) DecompressAppend(dst, src []byte, origLen int) ([]byte, error) {
	base := len(dst)
	grow := max(0, min(origLen, len(src)*maxExpand))
	out := slices.Grow(dst, grow)[:base+grow]

	i, o, ok := decodeFast(out, src, base)
	if !ok {
		return dst, compress.ErrCorrupt
	}

	// Careful tail: the last tokens, every length checked.
	for i < len(src) {
		ctrl := int(src[i])
		i++
		if ctrl < 0x20 {
			n := ctrl + 1
			if i+n > len(src) || o+n > len(out) {
				return dst, compress.ErrCorrupt
			}
			copy(out[o:], src[i:i+n])
			i += n
			o += n
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
		ref := o - off - 1
		if ref < base || o+mlen > len(out) {
			return dst, compress.ErrCorrupt
		}
		if off+1 >= mlen {
			copy(out[o:], out[ref:ref+mlen])
		} else {
			// Overlapping reference: the copy must see its own output.
			for k := 0; k < mlen; k++ {
				out[o+k] = out[ref+k]
			}
		}
		o += mlen
	}
	if o-base != origLen {
		return dst, compress.ErrSizeMismatch
	}
	return out, nil
}

func init() {
	compress.MustRegister(New())
}
