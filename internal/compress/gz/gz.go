// Package gz implements a Gzip-class codec from scratch: greedy-lazy LZ77
// with hash-chain matching followed by canonical Huffman entropy coding
// over deflate-style literal/length and distance alphabets. It occupies
// the paper's middle ground — a noticeably better ratio than LZF/LZ4 at a
// noticeably lower speed (Fig. 2), and is the codec EDC selects during
// moderate-intensity periods.
//
// The container is one format byte then a single Huffman block:
//
//	0x00 [lit/len code lengths][dist code lengths][symbol stream ... EOB]
//	0x01 [raw bytes]   (stored: the Huffman form would have expanded)
//
// Code lengths are serialized with huffman.WriteLengths. The symbol
// stream uses the deflate alphabets: literals 0–255, end-of-block 256,
// length codes 257–284 (base+extra bits, match lengths 3–258) and 30
// distance codes (distances 1–32768).
package gz

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"

	"edc/internal/bitio"
	"edc/internal/compress"
	"edc/internal/huffman"
)

const (
	numLitLen  = 285 // 0..284
	numDist    = 30
	minMatch   = 3
	maxMatch   = 258
	maxDist    = 32768
	hashBits   = 15
	hashSize   = 1 << hashBits
	maxChain   = 48 // hash-chain search depth: ratio/speed knob
	niceLength = 96 // stop searching when a match this long is found
	eob        = 256
)

// lengthCodes[i] describes length code 257+i.
var lengthCodes = [28]struct {
	base  int
	extra uint
}{
	{3, 0}, {4, 0}, {5, 0}, {6, 0}, {7, 0}, {8, 0}, {9, 0}, {10, 0},
	{11, 1}, {13, 1}, {15, 1}, {17, 1},
	{19, 2}, {23, 2}, {27, 2}, {31, 2},
	{35, 3}, {43, 3}, {51, 3}, {59, 3},
	{67, 4}, {83, 4}, {99, 4}, {115, 4},
	{131, 5}, {163, 5}, {195, 5}, {227, 5},
}

// distCodes[i] describes distance code i.
var distCodes = [numDist]struct {
	base  int
	extra uint
}{
	{1, 0}, {2, 0}, {3, 0}, {4, 0},
	{5, 1}, {7, 1},
	{9, 2}, {13, 2},
	{17, 3}, {25, 3},
	{33, 4}, {49, 4},
	{65, 5}, {97, 5},
	{129, 6}, {193, 6},
	{257, 7}, {385, 7},
	{513, 8}, {769, 8},
	{1025, 9}, {1537, 9},
	{2049, 10}, {3073, 10},
	{4097, 11}, {6145, 11},
	{8193, 12}, {12289, 12},
	{16385, 13}, {24577, 13},
}

// lengthIndex[l] is the index into lengthCodes of match length l: the
// last entry whose base is not above l. Length 258 gets the top code in
// deflate; here the last bucket {227,5} spans 227..258.
var lengthIndex = func() (t [maxMatch + 1]uint8) {
	for i, c := range lengthCodes {
		for l := c.base; l <= maxMatch; l++ {
			t[l] = uint8(i)
		}
	}
	return t
}()

// lengthToCode maps a match length (3..258) to (symbol, extra value, bits).
func lengthToCode(l int) (sym, extraVal int, extraBits uint) {
	i := int(lengthIndex[l])
	return 257 + i, l - lengthCodes[i].base, lengthCodes[i].extra
}

// distToCode maps a distance (1..32768) to (symbol, extra value, bits).
// From code 4 on, each power of two of d-1 holds two codes, told apart
// by the bit below the leading one.
func distToCode(d int) (sym, extraVal int, extraBits uint) {
	sym = d - 1
	if d > 4 {
		n := bits.Len32(uint32(d-1)) - 1
		sym = 2*n + (d-1)>>(n-1)&1
	}
	return sym, d - distCodes[sym].base, distCodes[sym].extra
}

// token is one LZ77 output item.
type token struct {
	lit  byte
	dist int32 // 0 ⇒ literal, otherwise match distance
	len  int32
}

// Codec is the gz codec. The zero value is ready to use.
type Codec struct{}

// New returns the gz codec.
func New() *Codec { return &Codec{} }

// Name implements compress.Codec.
func (*Codec) Name() string { return "gz" }

// Tag implements compress.Codec.
func (*Codec) Tag() compress.Tag { return compress.TagGZ }

func hash4(v uint32) uint32 { return (v * 2654435761) >> (32 - hashBits) }

// parseState is the per-compression scratch: the hash-chain arrays, the
// token buffer, and the Huffman frequency tables. Pooling it removes the
// dominant allocations from the Compress hot path (the event-loop replay
// compresses thousands of runs per trace); a sync.Pool keeps the codec
// safe for concurrent use by parallel replay workers.
type parseState struct {
	// head holds, per hash, base plus the last position inserted with
	// it. base moves past every position of a finished call plus
	// maxDist, so whatever an earlier call left behind reads as further
	// back than a match may reach and head is never refilled.
	head [hashSize]int32
	base int32
	// prev[i] is how far back the position chained before i under i's
	// hash lies, or 0 when that is more than maxDist (or there is none):
	// the walk would stop there anyway. Distances fit 16 bits, which
	// halves the array the walk's dependent loads go through.
	prev     []uint16
	tokens   []token
	litFreq  [numLitLen]int64
	distFreq [numDist]int64
	counted  int // tokens already in litFreq/distFreq

	// Entropy-coding scratch: the code-length builder, the length
	// vectors, and the canonical encoders are all reused across
	// compressions, so the entropy stage allocates nothing in steady
	// state.
	builder  huffman.Builder
	litLens  []uint8
	distLens []uint8
	litEnc   huffman.Encoder
	distEnc  huffman.Encoder
}

var statePool = sync.Pool{New: func() interface{} { return &parseState{base: maxDist + 1} }}

// decState is the per-decompression scratch: the bit reader, the parsed
// code-length vectors, and the two canonical decoders (each owning its
// lookup table). Pooling it strips every per-call allocation from
// Decompress except the output itself; a sync.Pool keeps the codec safe
// for concurrent use by parallel replay workers.
type decState struct {
	r        bitio.Reader
	litLens  []uint8
	distLens []uint8
	litDec   huffman.Decoder
	distDec  huffman.Decoder
}

var decPool = sync.Pool{New: func() interface{} { return new(decState) }}

// insert chains position i, whose four bytes hash to h, under h. The
// last three positions have no four bytes to hash and are never
// inserted.
func (st *parseState) insert(prev []uint16, base, i int, h uint32) {
	d := base + i - int(st.head[h])
	if d > maxDist {
		d = 0 // too far back, or left by an earlier call: end of chain
	}
	prev[i] = uint16(d)
	st.head[h] = int32(base + i)
}

// bestMatch finds the longest match for position i, whose four bytes
// hash to h: the first of the maxChain most recent positions with that
// hash to reach that length. Only a match longer than seed counts; with
// none it returns (0, 0). The lazy search seeds the length its answer
// must beat to be taken. A seed below niceLength leaves the walk as it
// is unseeded: the same candidates, up to the same first one of
// niceLength or limit bytes.
func (st *parseState) bestMatch(src []byte, prev []uint16, base, i int, h uint32, seed int) (dist, length int) {
	limit := min(len(src)-i, maxMatch)
	if seed >= limit {
		return 0, 0
	}
	length = seed
	// A candidate can only beat the best so far if it agrees with i on
	// the bytes up to and including index length; test the last four of
	// those (the first three while there is no match yet: a shorter
	// agreement is no match at all) before counting. want and mask hold
	// i's side of that test and change only with length.
	off, want, mask := 0, binary.LittleEndian.Uint32(src[i:]), uint32(0xffffff)
	if length >= minMatch {
		off, mask = length-3, ^uint32(0)
		want = binary.LittleEndian.Uint32(src[i+off:])
	}
	c := int(st.head[h]) - base
	for chain := maxChain; chain > 0 && i-c <= maxDist; chain-- {
		if (binary.LittleEndian.Uint32(src[c+off:])^want)&mask == 0 {
			if l := compress.MatchLen(src, c, i, limit); l > length {
				length, dist = l, i-c
				if l >= niceLength || l >= limit {
					break
				}
				off, mask = l-3, ^uint32(0)
				want = binary.LittleEndian.Uint32(src[i+off:])
			}
		}
		d := prev[c]
		if d == 0 {
			break
		}
		c -= int(d)
	}
	if dist == 0 {
		return 0, 0
	}
	return dist, length
}

// parse runs hash-chain LZ77 with one-token lazy evaluation, reusing the
// state's scratch buffers. The returned token slice aliases st.tokens.
// With a budget (budget >= 0) it counts the tokens into st's frequency
// tables every proofStride input bytes and gives up, reporting false,
// as soon as those so far need more than budget bytes (prefixOver);
// with none it counts nothing and always finishes.
func (st *parseState) parse(src []byte, budget int) ([]token, bool) {
	tokens := st.tokens[:0]
	if len(src) == 0 {
		return tokens, true
	}
	if int64(st.base)+int64(len(src))+maxDist > math.MaxInt32 {
		st.head = [hashSize]int32{}
		st.base = maxDist + 1
	}
	base := int(st.base)
	st.base += int32(len(src)) + maxDist
	if cap(st.prev) < len(src) {
		st.prev = make([]uint16, len(src))
	}
	// Stale prev entries are unreachable: a position is only chained
	// from head after insert overwrites its prev slot.
	prev := st.prev[:len(src)]
	hashAt := func(i int) uint32 { return hash4(binary.LittleEndian.Uint32(src[i:])) }
	last := len(src) - 4 // the last position with four bytes to hash
	check := math.MaxInt // with no budget the check never fires
	if budget >= 0 {
		check = proofStride
	}
	i := 0
	for i <= last {
		if i >= check {
			if st.prefixOver(tokens, budget) {
				st.tokens = tokens
				return tokens, false
			}
			check = i + proofStride
		}
		h := hashAt(i)
		dist, length := st.bestMatch(src, prev, base, i, h, 0)
		st.insert(prev, base, i, h)
		if length == 0 {
			tokens = append(tokens, token{lit: src[i]})
			i++
			continue
		}
		// Lazy: if the next position has a strictly better match, emit a
		// literal instead and take the longer match next round. An answer
		// of length+1 or less is not taken, so the search starts there.
		if length < niceLength && i+1 <= last {
			if d2, l2 := st.bestMatch(src, prev, base, i+1, hashAt(i+1), min(length+1, niceLength-1)); l2 > length+1 {
				tokens = append(tokens, token{lit: src[i]})
				i++
				dist, length = d2, l2
			}
		}
		tokens = append(tokens, token{dist: int32(dist), len: int32(length)})
		for j := i + 1; j < min(i+length, last+1); j++ {
			st.insert(prev, base, j, hashAt(j))
		}
		i += length
	}
	for ; i < len(src); i++ {
		tokens = append(tokens, token{lit: src[i]})
	}
	st.tokens = tokens
	return tokens, true
}

// resetFreq empties the frequency tables but for the one end-of-block.
func (st *parseState) resetFreq() {
	st.litFreq = [numLitLen]int64{}
	st.distFreq = [numDist]int64{}
	st.litFreq[eob] = 1
	st.counted = 0
}

// count adds tokens to the frequency tables.
func (st *parseState) count(tokens []token) {
	for _, t := range tokens {
		if t.dist == 0 {
			st.litFreq[t.lit]++
			continue
		}
		s, _, _ := lengthToCode(int(t.len))
		st.litFreq[s]++
		ds, _, _ := distToCode(int(t.dist))
		st.distFreq[ds]++
	}
	st.counted += len(tokens)
}

// prefixOver counts the tokens parsed since its last call and reports
// whether those so far cannot fit budget bytes. The block's code lengths
// are not known yet, but whatever they turn out to be, each alphabet's
// code is a prefix code, and by Gibbs' inequality a prefix code spends
// at least the entropy of the counts on any multiset of its symbols —
// these tokens among them. Extra bits are exact, and the format byte
// comes first; the code-length header is left out, which only lowers
// the bound. While the entropies could not reach the budget even at
// their most — every symbol at the log of its alphabet's size — they
// are not computed.
func (st *parseState) prefixOver(tokens []token, budget int) bool {
	st.count(tokens[st.counted:])
	bits, matches := 8.0, 0.0
	for k, lc := range lengthCodes {
		bits += float64(st.litFreq[257+k]) * float64(lc.extra)
	}
	for s, f := range st.distFreq {
		bits += float64(f) * float64(distCodes[s].extra)
		matches += float64(f)
	}
	limit := 8 * float64(budget)
	if bits+float64(st.counted+1)*log2LitLen+matches*log2Dist <= limit {
		return false
	}
	return bits+entropyBits(st.litFreq[:])+entropyBits(st.distFreq[:]) > limit
}

// The most bits per symbol an entropy over either alphabet can reach.
var log2LitLen, log2Dist = math.Log2(numLitLen), math.Log2(numDist)

// entropyBits is a lower bound on the bits any prefix code spends on the
// symbols counted in freq: their number times the entropy of their
// distribution, less a margin far above the rounding error of the sum.
func entropyBits(freq []int64) float64 {
	n, sum := 0.0, 0.0
	for _, f := range freq {
		if f > 0 {
			x := float64(f)
			n += x
			sum += x * math.Log2(x)
		}
	}
	if n == 0 {
		return 0
	}
	nlog := n * math.Log2(n)
	return nlog - sum - (1e-9*nlog + 1)
}

// proofStride is how many input bytes a budgeted parse covers between
// two of its prefixOver checks.
const proofStride = 4096

// litHashBits sizes the forced-literal scan's bitmap: one bit per 3-byte
// hash, 2^20 bits.
const litHashBits = 20

// literalBitmap is the forced-literal scan's record of the 3-byte hashes
// it has seen. It has its own pool, apart from parseState, so that only
// budgeted encodes keep one alive.
type literalBitmap [1 << (litHashBits - 6)]uint64

var bitmapPool = sync.Pool{New: func() interface{} { return new(literalBitmap) }}

// hash3 is the bitmap index of the 3-gram at src[k:].
func hash3(src []byte, k int) uint32 {
	v := uint32(src[k]) | uint32(src[k+1])<<8 | uint32(src[k+2])<<16
	return (v * 2654435761) >> (32 - litHashBits)
}

// forcedLiteralsOver reports whether the literals every LZ77 parse of src
// must emit already need more than budget bytes. A match covers a byte
// only if some three of the match's bytes around it — the 3-gram starting
// at that byte or at one of the two before — also start earlier in src,
// so a byte none of those three 3-grams repeats is a literal in any parse.
// The scan tests repeats on a bitmap of 3-byte hashes: a collision, and
// ignoring the 32 KiB window, can only make a byte look coverable, which
// weakens the bound and keeps it sound. The forced literals are coded by
// the literal/length code, so they cost at least their entropy
// (entropyBits). The scan gives up as soon as the forced literals found,
// plus every byte not yet scanned at eight bits, could no longer exceed
// the budget.
func forcedLiteralsOver(src []byte, budget int) (over bool) {
	bm := bitmapPool.Get().(*literalBitmap)
	var freq [256]int64
	forced, lastRep := 0, -3 // lastRep: the last position whose 3-gram starts earlier too
	defer func() {
		*bm = literalBitmap{}
		bitmapPool.Put(bm)
	}()
	k := 0
	for check := proofStride; k+3 <= len(src); k++ {
		if k == check {
			if forced+len(src)-k+1 <= budget {
				return false
			}
			if forced+1 > budget && 8+entropyBits(freq[:]) > 8*float64(budget) {
				return true
			}
			check += proofStride
		}
		h := hash3(src, k)
		if w, b := &bm[h>>6], uint64(1)<<(h&63); *w&b != 0 {
			lastRep = k
		} else {
			*w |= b
		}
		if lastRep < k-2 {
			freq[src[k]]++
			forced++
		}
	}
	for i := k; i < len(src); i++ { // the last two bytes start no 3-gram
		if lastRep < i-2 {
			freq[src[i]]++
			forced++
		}
	}
	return 8+entropyBits(freq[:]) > 8*float64(budget)
}

// storedMagic marks a stored (uncompressed) container: emitted when the
// Huffman block would expand the input, bounding worst-case growth to
// one byte.
const storedMagic = 0x01

// compressedMagic marks a normal Huffman container.
const compressedMagic = 0x00

// Compress implements compress.Codec.
func (c *Codec) Compress(src []byte) []byte {
	return c.AppendCompress(make([]byte, 0, len(src)/2+64), src)
}

// AppendCompress implements compress.Appender: it appends the
// compressed form of src to dst (growing it as needed) and returns the
// extended slice. Combined with the pooled parse scratch this makes the
// replay hot path allocation-free in steady state.
func (*Codec) AppendCompress(dst, src []byte) []byte {
	st := statePool.Get().(*parseState)
	defer statePool.Put(st)
	return st.appendCompress(dst, src)
}

// appendCompress is AppendCompress with the scratch st.
func (st *parseState) appendCompress(dst, src []byte) []byte {
	if out, ok := st.appendHuffman(dst, src, -1); ok {
		return out
	}
	// The Huffman form would expand: emit the stored container instead.
	return append(append(dst, storedMagic), src...)
}

// AppendCompressWithin implements compress.BoundedAppender. An output
// over max bytes is ruled out as early as one of three lower bounds on
// it exceeds max: the forced literals' (forcedLiteralsOver, only where
// max is above half the input: below that it seldom decides), the parsed
// prefix's (prefixOver) and the exact size, taken before any bit is
// written. Output that fits is AppendCompress's, byte for byte.
func (c *Codec) AppendCompressWithin(dst, src []byte, max int) ([]byte, bool) {
	if max > len(src) {
		return c.AppendCompress(dst, src), true // even the stored form fits
	}
	if max <= 0 {
		return dst, false // every container starts with its format byte
	}
	if 2*max > len(src) && forcedLiteralsOver(src, max) {
		return dst, false
	}
	st := statePool.Get().(*parseState)
	defer statePool.Put(st)
	return st.appendHuffman(dst, src, max)
}

// appendHuffman appends the Huffman container (with its leading format
// byte) to dst. It reports false, leaving dst's length as it was, when
// that container would be longer than budget bytes or, with no budget
// (budget < 0), not shorter than the stored one, len(src)+1 bytes: the
// size is known exactly once the code lengths are, so such a block is
// never bit-written, and with a budget the parse may stop far earlier.
func (st *parseState) appendHuffman(dst, src []byte, budget int) ([]byte, bool) {
	limit := budget
	if budget < 0 {
		limit = len(src)
	}
	st.resetFreq()
	tokens, ok := st.parse(src, budget)
	if !ok {
		return dst, false
	}
	st.count(tokens[st.counted:])
	litFreq, distFreq := st.litFreq[:], st.distFreq[:]
	litLens, err := st.builder.Build(st.litLens, litFreq, huffman.MaxBits)
	if err != nil {
		panic("gz: " + err.Error()) // unreachable: valid freqs by construction
	}
	st.litLens = litLens
	distLens, err := st.builder.Build(st.distLens, distFreq, huffman.MaxBits)
	if err != nil {
		panic("gz: " + err.Error())
	}
	st.distLens = distLens

	var w bitio.Writer
	w.ResetBuf(dst)
	w.WriteBits(compressedMagic, 8)
	huffman.WriteLengths(&w, litLens)
	huffman.WriteLengths(&w, distLens)
	// The symbol stream is every symbol's code plus its extra bits.
	size := int64(w.BitLen() - 8*len(dst))
	for s, f := range litFreq {
		size += f * int64(litLens[s])
	}
	for k, lc := range lengthCodes {
		size += litFreq[257+k] * int64(lc.extra)
	}
	for s, f := range distFreq {
		size += f * int64(uint(distLens[s])+distCodes[s].extra)
	}
	if (size+7)/8 > int64(limit) {
		return dst, false
	}

	if err := st.litEnc.Reset(litLens); err != nil {
		panic("gz: " + err.Error())
	}
	litEnc := &st.litEnc
	var distEnc *huffman.Encoder
	hasDist := false
	for _, l := range distLens {
		if l > 0 {
			hasDist = true
			break
		}
	}
	if hasDist {
		if err := st.distEnc.Reset(distLens); err != nil {
			panic("gz: " + err.Error())
		}
		distEnc = &st.distEnc
	}
	for _, t := range tokens {
		if t.dist == 0 {
			c := litEnc.Code(int(t.lit))
			w.WriteBits(uint64(c.Bits), uint(c.Len))
			continue
		}
		// Length code, its extra bits, distance code and its extra bits
		// go out as one field: at most 15+5+15+13 bits.
		s, ev, eb := lengthToCode(int(t.len))
		c := litEnc.Code(s)
		v, n := uint64(c.Bits)|uint64(ev)<<c.Len, uint(c.Len)+eb
		ds, dev, deb := distToCode(int(t.dist))
		c = distEnc.Code(ds)
		v |= (uint64(c.Bits) | uint64(dev)<<c.Len) << n
		w.WriteBits(v, n+uint(c.Len)+deb)
	}
	c := litEnc.Code(eob)
	w.WriteBits(uint64(c.Bits), uint(c.Len))
	return w.Bytes(), true
}

// Decompress implements compress.Codec.
func (c *Codec) Decompress(src []byte, origLen int) ([]byte, error) {
	out, err := c.DecompressAppend(nil, src, origLen)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// symInfo is what the two decoders report for a symbol in place of its
// number (huffman.ResetValues), so that one table load tells the loops
// all they keep per symbol: the number of extra bits that follow the code
// in bits 0-3, the kind, and from bit infoValue the literal byte or the
// base of the length or distance. End-of-block has neither kind bit.
type symInfo uint32

const (
	infoLit   symInfo = 1 << 4
	infoMatch symInfo = 1 << 5
	infoValue         = 12
)

func (s symInfo) extra() uint { return uint(s) & 0xf }
func (s symInfo) value() int  { return int(s >> infoValue) }

// litInfo and distInfo describe every symbol of the two alphabets.
var litInfo, distInfo = func() (lit [numLitLen]uint32, dist [numDist]uint32) {
	for b := 0; b < 256; b++ {
		lit[b] = uint32(infoLit) | uint32(b)<<infoValue
	}
	for i, c := range lengthCodes {
		lit[257+i] = uint32(infoMatch) | uint32(c.extra) | uint32(c.base)<<infoValue
	}
	for i, c := range distCodes {
		dist[i] = uint32(c.extra) | uint32(c.base)<<infoValue
	}
	return lit, dist
}()

// The fast zone runs while a refill can load a whole word and the
// longest match, moved in whole words, still fits the output.
const outSlack = (maxMatch + 7) &^ 7

// maxExpand bounds the output one input byte can stand for: a match of
// maxMatch bytes needs a length code and a distance code, a bit each.
const maxExpand = maxMatch * 8 / 2

// copy8 copies eight bytes from b[s:] to b[d:].
func copy8(b []byte, d, s int) {
	binary.LittleEndian.PutUint64(b[d:d+8:d+8], binary.LittleEndian.Uint64(b[s:s+8:s+8]))
}

// decodeFast decodes tokens from bit offset bit of src into out[o:] for
// as long as the fast zone lasts, with the bit accumulator in locals —
// one refill per token: at most 11+5+11+13 bits of it are used — and no
// length checks, and returns where it stopped. It stops early, slow set,
// in front of a token it leaves to the careful loop: one whose code is
// longer than a table index, invalid, or end-of-block. ok is false when
// a match reaches back past base.
func (st *decState) decodeFast(out, src []byte, base, o, bit int) (oEnd, bitEnd int, slow, ok bool) {
	litTab, distTab := st.litDec.Table(), st.distDec.Table()
	pos := bit >> 3
	if len(litTab) == 0 || pos+8 > len(src) {
		return o, bit, false, true
	}
	litMask, distMask := uint64(len(litTab)-1), uint64(len(distTab)-1)
	acc := uint64(src[pos]) >> (bit & 7)
	nAcc := uint(8 - bit&7)
	pos++
	for pos+8 <= len(src) && o+outSlack <= len(out) {
		// Refill to 56 bits or more. Whole bytes only are counted in; what
		// the load brings above them is the stream's next bits, and the
		// next refill writes the same bits there again.
		acc |= binary.LittleEndian.Uint64(src[pos:pos+8:pos+8]) << (nAcc & 63)
		pos += int(63-nAcc) >> 3
		nAcc |= 56
		start := nAcc

		e := litTab[acc&litMask]
		n, s := uint(e&0xf), symInfo(e>>4)
		if s&infoLit != 0 {
			acc >>= n
			nAcc -= n
			out[o] = byte(s.value())
			o++
			continue
		}
		if s&infoMatch == 0 || len(distTab) == 0 {
			return o, pos*8 - int(start), true, true
		}
		acc >>= n
		nAcc -= n
		n = s.extra()
		length := s.value() + int(acc&(1<<n-1))
		acc >>= n
		nAcc -= n

		e = distTab[acc&distMask]
		n, s = uint(e&0xf), symInfo(e>>4)
		if n == 0 {
			return o, pos*8 - int(start), true, true
		}
		acc >>= n
		nAcc -= n
		n = s.extra()
		dist := s.value() + int(acc&(1<<n-1))
		acc >>= n
		nAcc -= n

		ref := o - dist
		if ref < base {
			return o, 0, false, false
		}
		if dist >= 8 {
			// Each load sees only bytes that earlier moves have finished.
			copy8(out, o, ref)
			for k := 8; k < length; k += 8 {
				copy8(out, o+k, ref+k)
			}
		} else {
			// Closer than a word: the copy must see its own output.
			for k := 0; k < length; k++ {
				out[o+k] = out[ref+k]
			}
		}
		o += length
	}
	return o, pos*8 - int(nAcc), false, true
}

// decodeCareful is the symbol loop with every length checked, reading
// through st.r: it decodes into out[o:] one token if one is set, else to
// the end of the block, and reports whether the block ended.
func (st *decState) decodeCareful(out []byte, base, o int, one bool) (oEnd int, done bool, err error) {
	r, litDec, distDec := &st.r, &st.litDec, &st.distDec
	for {
		v, err := litDec.Decode(r)
		if err != nil {
			return o, false, compress.ErrCorrupt
		}
		switch s := symInfo(v); {
		case s&infoLit != 0:
			if o+1 > len(out) {
				return o, false, compress.ErrCorrupt
			}
			out[o] = byte(s.value())
			o++
		case s&infoMatch == 0: // end of block
			return o, true, nil
		default:
			length := s.value()
			if eb := s.extra(); eb > 0 {
				v, err := r.ReadBits(eb)
				if err != nil {
					return o, false, compress.ErrCorrupt
				}
				length += int(v)
			}
			v, err := distDec.Decode(r)
			if err != nil {
				return o, false, compress.ErrCorrupt
			}
			s = symInfo(v)
			dist := s.value()
			if eb := s.extra(); eb > 0 {
				v, err := r.ReadBits(eb)
				if err != nil {
					return o, false, compress.ErrCorrupt
				}
				dist += int(v)
			}
			ref := o - dist
			if ref < base || o+length > len(out) {
				return o, false, compress.ErrCorrupt
			}
			if dist >= length {
				copy(out[o:], out[ref:ref+length])
			} else {
				// Overlapping reference: the copy must see its own output.
				for k := 0; k < length; k++ {
					out[o+k] = out[ref+k]
				}
			}
			o += length
		}
		if one {
			return o, false, nil
		}
	}
}

// DecompressAppend implements compress.DecompressAppender: it appends
// the decompressed form of src to dst (growing it as needed) and returns
// the extended slice. Combined with the pooled decode scratch this makes
// the read hot path allocation-free in steady state.
//
// The output is sized once — to origLen, or to what len(src) bytes can
// expand to when that is less, so a lying origLen costs no memory — and
// written by index; nothing outside dst[len(dst):len(dst)+origLen] is
// touched, and on error dst comes back as it was passed.
func (*Codec) DecompressAppend(dst, src []byte, origLen int) ([]byte, error) {
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
	if err := st.litDec.ResetValues(litLens, litInfo[:]); err != nil {
		return dst, compress.ErrCorrupt
	}
	// A stream of literals alone has no distance code: the decoder is then
	// empty, and a length symbol finds nothing to decode its distance with.
	if err := st.distDec.ResetValues(distLens, distInfo[:]); err != nil {
		return dst, compress.ErrCorrupt
	}

	base := len(dst)
	grow := max(0, min(origLen, len(src)*maxExpand))
	out := slices.Grow(dst, grow)[:base+grow]
	o, bit := base, 8*len(src)-r.BitsRemaining()
	for {
		var slow, ok bool
		if o, bit, slow, ok = st.decodeFast(out, src, base, o, bit); !ok {
			return dst, compress.ErrCorrupt
		}
		// Hand over at bit: one token the fast zone would not take, or,
		// the zone having ended, the rest.
		r.Reset(src[bit>>3:])
		_, _ = r.ReadBits(uint(bit & 7)) // cannot fail: a bit past a byte's first lies inside src
		var done bool
		if o, done, err = st.decodeCareful(out, base, o, slow); err != nil {
			return dst, err
		}
		if done {
			if o-base != origLen {
				return dst, compress.ErrSizeMismatch
			}
			return out, nil
		}
		bit = 8*len(src) - r.BitsRemaining()
	}
}

func init() {
	compress.MustRegister(New())
}
