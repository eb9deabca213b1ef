package lzf

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"edc/internal/compress"
	"edc/internal/compress/codectest"
)

// refCodec is the encoder as it was before the loop in lzf.go was
// rewritten for speed — a table cleared per call, three byte loads per
// position, byte-at-a-time match extension — and the decoder as it was
// before the fast zone. It stays as the definition of the stream and of
// the decode the fast loops must reproduce.
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

// DecompressAppend is the decoder as it was before lzf.go's became two
// zones writing by index: one loop, every token checked, one append per
// token. It stays as the definition of the bytes and the error the fast
// decoder must return.
func (refCodec) DecompressAppend(dst, src []byte, origLen int) ([]byte, error) {
	base := len(dst)
	out := dst
	if origLen > 0 {
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

func TestMatchesReference(t *testing.T) { codectest.RunDifferential(t, New(), refCodec{}) }
func TestZoneBoundaries(t *testing.T)   { codectest.RunZoneBoundaries(t, New(), refCodec{}) }

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

// BenchmarkDecode pairs every decode row with the reference decoder.
func BenchmarkDecode(b *testing.B) { codectest.RunDecodeBench(b, New(), refCodec{}) }

// BenchmarkEncode pairs every encode row with the reference encoder.
func BenchmarkEncode(b *testing.B) { codectest.RunEncodeBench(b, New(), refCodec{}) }

// overlapDiff hand-builds a stream for every distance 1…16 and every
// match length 3…maxMatch — sixteen literals, the match, and then either
// nothing, so that the careful tail decodes it, or enough literal runs
// that the fast zone does — and returns the first one New() decodes
// differently from the reference (codectest.DiffDecode), or "". Matches
// closer than their length are the copies that must see their own output.
func overlapDiff(t *testing.T) string {
	t.Helper()
	var seed [16]byte
	for i := range seed {
		seed[i] = byte(0x41 + i)
	}
	pad := bytes.Repeat(append([]byte{maxLit - 1}, bytes.Repeat([]byte{'.'}, maxLit)...), (inSlack+outSlack)/maxLit+1)
	for dist := 1; dist <= len(seed); dist++ {
		for mlen := minMatch; mlen <= maxMatch; mlen++ {
			stream := append([]byte{byte(len(seed) - 1)}, seed[:]...)
			want := append([]byte(nil), seed[:]...)
			if l, off := mlen-2, dist-1; l < 7 {
				stream = append(stream, byte(l<<5|off>>8), byte(off))
			} else {
				stream = append(stream, byte(7<<5|off>>8), byte(l-7), byte(off))
			}
			for k := 0; k < mlen; k++ {
				want = append(want, want[len(want)-dist])
			}
			for _, tail := range [][]byte{nil, pad} {
				stream := append(stream[:len(stream):len(stream)], tail...)
				origLen := len(want) + len(tail)/(1+maxLit)*maxLit
				got, err := refCodec{}.DecompressAppend(nil, stream, origLen)
				if err != nil || !bytes.Equal(got[:len(want)], want) {
					t.Fatalf("distance %d, length %d: the reference does not decode the hand-built stream: %v", dist, mlen, err)
				}
				if d := codectest.DiffDecode(New(), refCodec{}, stream, origLen); d != "" {
					return fmt.Sprintf("distance %d, length %d, %d B after the match: %s", dist, mlen, len(tail), d)
				}
			}
		}
	}
	return ""
}

func TestOverlappingMatches(t *testing.T) {
	if d := overlapDiff(t); d != "" {
		t.Fatal(d)
	}
}

// TestOverlapSweepCatchesMutation shows the sweep above has teeth: with
// the lead-in of distance 7 removed, so that its word moves start before
// a word of the pattern exists, it reports a difference, and none once
// the fault is undone.
func TestOverlapSweepCatchesMutation(t *testing.T) {
	codectest.RunCatchesMutation(t, func() string { return overlapDiff(t) }, func() func() {
		old := nearLead[6]
		nearLead[6] = 0
		return func() { nearLead[6] = old }
	})
}
