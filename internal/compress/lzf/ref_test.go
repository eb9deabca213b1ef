package lzf

import (
	"bytes"
	"math"
	"testing"

	"edc/internal/compress"
	"edc/internal/compress/codectest"
)

// refCodec is the encoder and decoder as they were before the loops in
// lzf.go were rewritten for speed: a table cleared per call, three byte
// loads per position, byte-at-a-time match extension and copy. It stays
// as the definition of the stream the fast loops must reproduce.
type refCodec struct{}

func (refCodec) AppendCompress(dst, src []byte) []byte {
	out := dst
	if len(src) == 0 {
		return out
	}
	var table [hashSize]int32
	for i := range table {
		table[i] = -1
	}
	litStart := 0 // start of the pending literal run
	i := 0
	flushLits := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > maxLit {
				n = maxLit
			}
			out = append(out, byte(n-1))
			out = append(out, src[litStart:litStart+n]...)
			litStart += n
		}
	}
	for i+minMatch <= len(src)-tailGuard {
		h := hash3(load3(src, i))
		cand := table[h]
		table[h] = int32(i)
		if cand < 0 || i-int(cand) > maxOff || load3(src, int(cand)) != load3(src, i) {
			i++
			continue
		}
		// Extend the match.
		ref := int(cand)
		mlen := minMatch
		limit := len(src) - i
		if limit > maxMatch {
			limit = maxMatch
		}
		for mlen < limit && src[ref+mlen] == src[i+mlen] {
			mlen++
		}
		flushLits(i)
		off := i - ref - 1
		l := mlen - 2
		if l < 7 {
			out = append(out, byte(l<<5)|byte(off>>8), byte(off))
		} else {
			out = append(out, 7<<5|byte(off>>8), byte(l-7), byte(off))
		}
		// Insert hashes inside the match so later matches can refer in.
		end := i + mlen
		for j := i + 1; j < end && j+minMatch <= len(src); j++ {
			table[hash3(load3(src, j))] = int32(j)
		}
		i = end
		litStart = i
	}
	flushLits(len(src))
	return out
}

func (refCodec) DecompressAppend(dst, src []byte, origLen int) ([]byte, error) {
	base := len(dst)
	out := dst
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
		// Byte-by-byte copy: overlapping references are legal.
		for k := 0; k < mlen; k++ {
			out = append(out, out[ref+k])
		}
	}
	if len(out)-base != origLen {
		return dst, compress.ErrSizeMismatch
	}
	return out, nil
}

func TestMatchesReference(t *testing.T) { codectest.RunDifferential(t, New(), refCodec{}) }

// TestTableSurvivesBaseWrap drives one table across the point where its
// base would overflow: the table is cleared there and output stays the
// reference's on both sides of it.
func TestTableSurvivesBaseWrap(t *testing.T) {
	src := []byte("abcabcabcabc-abcabcabcabc-0123456789")
	want := refCodec{}.AppendCompress(nil, src)
	step := int32(len(src)) + maxOff
	tb := &matchTable{base: math.MaxInt32 - 2*step - 1}
	for i := 0; i < 4; i++ {
		before := tb.base
		if got := tb.appendCompress(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("call %d (base %d): output differs from the reference", i, before)
		}
		if i == 2 && tb.base > before {
			t.Fatalf("call %d: base %d did not wrap", i, before)
		}
	}
}
