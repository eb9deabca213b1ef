package gz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"edc/internal/bitio"
	"edc/internal/compress"
	"edc/internal/compress/codectest"
	"edc/internal/huffman"
)

// This file keeps the encoder as it was before the loops in gz.go were
// rewritten for speed — hash heads refilled with -1 per call, byte-wise
// match extension, linear scans for the length and distance codes, one
// WriteBits per field — as the definition of the stream the fast loops
// must reproduce, and the decoder as it was before its fast zone.

// refLengthToCode maps a match length (3..258) to (symbol, extra value, bits).
func refLengthToCode(l int) (sym, extraVal int, extraBits uint) {
	// Length 258 gets the top code in deflate; here codes cover 3..258 via
	// the table, with the last bucket {227,5} spanning 227..258.
	for i := len(lengthCodes) - 1; i >= 0; i-- {
		if l >= lengthCodes[i].base {
			return 257 + i, l - lengthCodes[i].base, lengthCodes[i].extra
		}
	}
	return 257, 0, 0
}

// refDistToCode maps a distance (1..32768) to (symbol, extra value, bits).
func refDistToCode(d int) (sym, extraVal int, extraBits uint) {
	for i := numDist - 1; i >= 0; i-- {
		if d >= distCodes[i].base {
			return i, d - distCodes[i].base, distCodes[i].extra
		}
	}
	return 0, 0, 0
}

// refParse runs hash-chain LZ77 with one-token lazy evaluation.
func refParse(src []byte) []token {
	var tokens []token
	if len(src) == 0 {
		return tokens
	}
	head := new([hashSize]int32)
	prev := make([]int32, len(src))
	for i := range head {
		head[i] = -1
	}
	insert := func(i int) {
		if i+4 > len(src) {
			return
		}
		h := hash4(binary.LittleEndian.Uint32(src[i:]))
		prev[i] = head[h]
		head[h] = int32(i)
	}
	// bestMatch finds the longest match for position i.
	bestMatch := func(i int) (dist, length int) {
		if i+minMatch > len(src) || i+4 > len(src) {
			return 0, 0
		}
		h := hash4(binary.LittleEndian.Uint32(src[i:]))
		cand := head[h]
		limit := len(src) - i
		if limit > maxMatch {
			limit = maxMatch
		}
		chain := maxChain
		for cand >= 0 && chain > 0 {
			c := int(cand)
			if i-c > maxDist {
				break
			}
			if src[c+length] == src[i+length] { // quick reject on current best
				l := 0
				for l < limit && src[c+l] == src[i+l] {
					l++
				}
				if l > length {
					length = l
					dist = i - c
					if l >= niceLength || l >= limit {
						break
					}
				}
			}
			cand = prev[c]
			chain--
		}
		if length < minMatch {
			return 0, 0
		}
		return dist, length
	}
	i := 0
	for i < len(src) {
		dist, length := bestMatch(i)
		if length >= minMatch {
			// Lazy: if the next position has a strictly better match, emit
			// a literal instead and take the longer match next round.
			if length < niceLength && i+1 < len(src) {
				insert(i)
				d2, l2 := bestMatch(i + 1)
				if l2 > length+1 {
					tokens = append(tokens, token{lit: src[i]})
					i++
					dist, length = d2, l2
				}
			} else {
				insert(i)
			}
			tokens = append(tokens, token{dist: int32(dist), len: int32(length)})
			for j := i + 1; j < i+length; j++ {
				insert(j)
			}
			i += length
			continue
		}
		insert(i)
		tokens = append(tokens, token{lit: src[i]})
		i++
	}
	return tokens
}

// refCodec is the kept AppendCompress/DecompressAppend pair.
type refCodec struct{}

func (refCodec) AppendCompress(dst, src []byte) []byte {
	mark := len(dst)
	out := refAppendHuffman(dst, src)
	if len(out)-mark >= len(src)+1 {
		// The Huffman form expanded: emit the stored container instead,
		// overwriting it in place.
		out = append(out[:mark], storedMagic)
		return append(out, src...)
	}
	return out
}

func refAppendHuffman(dst, src []byte) []byte { return refEncode(dst, refParse(src)) }

// refEncode appends the Huffman container for tokens to dst.
func refEncode(dst []byte, tokens []token) []byte {
	litFreq := make([]int64, numLitLen)
	distFreq := make([]int64, numDist)
	litFreq[eob] = 1
	for _, t := range tokens {
		if t.dist == 0 {
			litFreq[t.lit]++
			continue
		}
		s, _, _ := refLengthToCode(int(t.len))
		litFreq[s]++
		ds, _, _ := refDistToCode(int(t.dist))
		distFreq[ds]++
	}
	litLens, err := huffman.BuildLengths(litFreq, huffman.MaxBits)
	if err != nil {
		panic("gz: " + err.Error()) // unreachable: valid freqs by construction
	}
	distLens, err := huffman.BuildLengths(distFreq, huffman.MaxBits)
	if err != nil {
		panic("gz: " + err.Error())
	}
	litEnc, err := huffman.NewEncoderFromLengths(litLens)
	if err != nil {
		panic("gz: " + err.Error())
	}
	var distEnc *huffman.Encoder
	hasDist := false
	for _, l := range distLens {
		if l > 0 {
			hasDist = true
			break
		}
	}
	if hasDist {
		if distEnc, err = huffman.NewEncoderFromLengths(distLens); err != nil {
			panic("gz: " + err.Error())
		}
	}

	var w bitio.Writer
	w.ResetBuf(dst)
	w.WriteBits(compressedMagic, 8)
	huffman.WriteLengths(&w, litLens)
	huffman.WriteLengths(&w, distLens)
	for _, t := range tokens {
		if t.dist == 0 {
			_ = litEnc.Encode(&w, int(t.lit))
			continue
		}
		s, ev, eb := refLengthToCode(int(t.len))
		_ = litEnc.Encode(&w, s)
		if eb > 0 {
			w.WriteBits(uint64(ev), eb)
		}
		ds, dev, deb := refDistToCode(int(t.dist))
		_ = distEnc.Encode(&w, ds)
		if deb > 0 {
			w.WriteBits(uint64(dev), deb)
		}
	}
	_ = litEnc.Encode(&w, eob)
	return w.Bytes()
}

// DecompressAppend is the decoder as it was before gz.go's became two
// zones writing by index over a bit accumulator in locals: one loop, one
// bitio.Reader call per field, one append per token. It stays as the
// definition of the bytes and the error the fast decoder must return.
func (refCodec) DecompressAppend(dst, src []byte, origLen int) ([]byte, error) {
	if len(src) == 0 {
		return dst, compress.ErrCorrupt
	}
	if src[0] == storedMagic {
		if len(src)-1 != origLen {
			return dst, compress.ErrSizeMismatch
		}
		return append(dst, src[1:]...), nil
	}
	if src[0] != compressedMagic {
		return dst, compress.ErrCorrupt
	}
	st := decPool.Get().(*decState)
	defer decPool.Put(st)
	r := &st.r
	r.Reset(src)
	if _, err := r.ReadBits(8); err != nil {
		return dst, compress.ErrCorrupt
	}
	litLens, err := huffman.ReadLengthsInto(r, st.litLens, numLitLen)
	if err != nil {
		return dst, compress.ErrCorrupt
	}
	st.litLens = litLens
	distLens, err := huffman.ReadLengthsInto(r, st.distLens, numDist)
	if err != nil {
		return dst, compress.ErrCorrupt
	}
	st.distLens = distLens
	if err := st.litDec.Reset(litLens); err != nil {
		return dst, compress.ErrCorrupt
	}
	litDec := &st.litDec
	var distDec *huffman.Decoder
	hasDist := false
	for _, l := range distLens {
		if l > 0 {
			hasDist = true
			break
		}
	}
	if hasDist {
		if err := st.distDec.Reset(distLens); err != nil {
			return dst, compress.ErrCorrupt
		}
		distDec = &st.distDec
	}
	base := len(dst)
	out := dst
	if origLen > 0 {
		// Size the output once; every append below then stays in place.
		out = slices.Grow(out, origLen)
	}
	for {
		sym, err := litDec.Decode(r)
		if err != nil {
			return dst, compress.ErrCorrupt
		}
		switch {
		case sym < 256:
			if len(out)-base+1 > origLen {
				return dst, compress.ErrCorrupt
			}
			out = append(out, byte(sym))
		case sym == eob:
			if len(out)-base != origLen {
				return dst, compress.ErrSizeMismatch
			}
			return out, nil
		default:
			li := sym - 257
			if li >= len(lengthCodes) {
				return dst, compress.ErrCorrupt
			}
			length := lengthCodes[li].base
			if eb := lengthCodes[li].extra; eb > 0 {
				v, err := r.ReadBits(eb)
				if err != nil {
					return dst, compress.ErrCorrupt
				}
				length += int(v)
			}
			if distDec == nil {
				return dst, compress.ErrCorrupt
			}
			ds, err := distDec.Decode(r)
			if err != nil || ds >= numDist {
				return dst, compress.ErrCorrupt
			}
			dist := distCodes[ds].base
			if eb := distCodes[ds].extra; eb > 0 {
				v, err := r.ReadBits(eb)
				if err != nil {
					return dst, compress.ErrCorrupt
				}
				dist += int(v)
			}
			ref := len(out) - dist
			if ref < base || len(out)-base+length > origLen {
				return dst, compress.ErrCorrupt
			}
			if dist >= length {
				out = append(out, out[ref:ref+length]...)
				continue
			}
			// Overlapping reference: the copy must see its own output.
			for k := 0; k < length; k++ {
				out = append(out, out[ref+k])
			}
		}
	}
}

func TestMatchesReference(t *testing.T) { codectest.RunDifferential(t, New(), refCodec{}) }
func TestZoneBoundaries(t *testing.T)   { codectest.RunZoneBoundaries(t, New(), refCodec{}) }

// TestCodeTablesMatchReference holds the table and bits.Len forms to
// the linear scans over every length and distance.
func TestCodeTablesMatchReference(t *testing.T) {
	for l := minMatch; l <= maxMatch; l++ {
		s, ev, eb := lengthToCode(l)
		rs, rev, reb := refLengthToCode(l)
		if s != rs || ev != rev || eb != reb {
			t.Fatalf("length %d: (%d,%d,%d), reference (%d,%d,%d)", l, s, ev, eb, rs, rev, reb)
		}
	}
	for d := 1; d <= maxDist; d++ {
		s, ev, eb := distToCode(d)
		rs, rev, reb := refDistToCode(d)
		if s != rs || ev != rev || eb != reb {
			t.Fatalf("distance %d: (%d,%d,%d), reference (%d,%d,%d)", d, s, ev, eb, rs, rev, reb)
		}
	}
}

// BenchmarkDecode pairs every decode row with the reference decoder.
func BenchmarkDecode(b *testing.B) { codectest.RunDecodeBench(b, New(), refCodec{}) }

// overlapDiff hand-builds a stream for every distance 1…16 and every
// match length 3…maxMatch — sixteen literals, the match, and then either
// nothing, so that the careful loop decodes it, or enough literals that
// the fast zone does — and returns the first one New() decodes
// differently from the reference (codectest.DiffDecode), or "". Matches
// closer than their length are the copies that must see their own output.
func overlapDiff(t *testing.T) string {
	t.Helper()
	var seed [16]token
	for i := range seed {
		seed[i].lit = byte(0x41 + i)
	}
	pad := make([]token, outSlack+64)
	for i := range pad {
		pad[i].lit = '.'
	}
	for dist := 1; dist <= len(seed); dist++ {
		for length := minMatch; length <= maxMatch; length++ {
			for _, tail := range [][]token{nil, pad} {
				tokens := append(seed[:len(seed):len(seed)], token{dist: int32(dist), len: int32(length)})
				tokens = append(tokens, tail...)
				var want []byte
				for _, tk := range tokens {
					if tk.dist == 0 {
						want = append(want, tk.lit)
					}
					for k := int32(0); k < tk.len; k++ {
						want = append(want, want[len(want)-dist])
					}
				}
				stream := refEncode(nil, tokens)
				got, err := refCodec{}.DecompressAppend(nil, stream, len(want))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("distance %d, length %d: the reference does not decode the hand-built stream: %v", dist, length, err)
				}
				if d := codectest.DiffDecode(New(), refCodec{}, stream, len(want)); d != "" {
					return fmt.Sprintf("distance %d, length %d, %d literals after the match: %s", dist, length, len(tail), d)
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
// one length code's base off by one in the table both zones read, it
// reports a difference, and none once the fault is undone.
func TestOverlapSweepCatchesMutation(t *testing.T) {
	codectest.RunCatchesMutation(t, func() string { return overlapDiff(t) }, func() func() {
		old := litInfo[257+9]
		litInfo[257+9] += 1 << infoValue
		return func() { litInfo[257+9] = old }
	})
}
