// Package bwz implements a Bzip2-class block codec from scratch:
// Burrows–Wheeler transform (suffix array by prefix doubling), move-to-
// front, bzip2-style zero run-length coding (RUNA/RUNB bijective base-2)
// and canonical Huffman entropy coding. It is the slowest and highest-
// ratio codec in the suite — the paper's Bzip2 reference point, which EDC
// would reserve for deep-idle periods and which the fixed-Bzip2 baseline
// applies everywhere (Figs. 2, 8, 10).
//
// Container layout (bit stream, LSB first):
//
//	[24-bit primary index][code lengths for 258-symbol alphabet][symbols]
//
// The symbol alphabet after MTF+RLE is: RUNA=0, RUNB=1 (zero-run digits),
// 2..256 for MTF values 1..255, and EOB=257.
package bwz

import (
	"bytes"
	"slices"
	"sync"

	"edc/internal/bitio"
	"edc/internal/compress"
	"edc/internal/huffman"
)

const (
	symRunA = 0
	symRunB = 1
	symEOB  = 257
	numSyms = 258

	// MaxBlock bounds the BWT block size; larger inputs are split into
	// independent blocks (each with its own primary index and tables).
	MaxBlock = 1 << 20
)

// Codec is the bwz codec. The zero value is ready to use.
type Codec struct{}

// New returns the bwz codec.
func New() *Codec { return &Codec{} }

// Name implements compress.Codec.
func (*Codec) Name() string { return "bwz" }

// Tag implements compress.Codec.
func (*Codec) Tag() compress.Tag { return compress.TagBWZ }

// scratch is the per-block compression workspace: the suffix-array
// int32 arrays dominate bwz's allocation profile (4 slices of block
// length per block), so they are pooled and reused across
// AppendCompress calls. A sync.Pool keeps the codec safe for concurrent
// use by parallel replay workers.
type scratch struct {
	sa, rank, tmp, cnt []int32
	l                  []byte   // BWT last column
	mtfd               []byte   // move-to-front output
	syms               []uint16 // RLE symbol stream
	freqs              [numSyms]int64

	// Entropy-coding scratch, reused across blocks and AppendCompress calls.
	builder huffman.Builder
	lengths []uint8
	enc     huffman.Encoder
}

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

// decScratch is the per-decompression workspace: the bit reader, the
// Huffman decoder (owning its lookup table), the RLE/MTF intermediate
// buffers, and the LF-mapping array for the inverse BWT. Pooling it
// strips every per-call allocation from DecompressAppend except the
// output itself; a sync.Pool keeps the codec safe for concurrent use by
// parallel replay workers.
type decScratch struct {
	r       bitio.Reader
	lengths []uint8
	dec     huffman.Decoder
	syms    []uint16
	mtfd    []byte
	lf      []int32
}

var decPool = sync.Pool{New: func() interface{} { return new(decScratch) }}

// grow32 returns a len-n int32 slice reusing b's storage when possible.
// Contents are unspecified; callers fully overwrite (or zero) it.
func grow32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// suffixArray returns the suffix array of s+sentinel using prefix
// doubling with counting-sort passes (O(n log n)); index n (the
// sentinel) sorts first. The returned slice aliases st.sa.
func suffixArray(s []byte, st *scratch) []int32 {
	n := len(s) + 1 // including sentinel
	st.sa = grow32(st.sa, n)
	st.rank = grow32(st.rank, n)
	st.tmp = grow32(st.tmp, n)
	cntLen := n + 1
	if cntLen < 257 {
		cntLen = 257 // round 0 buckets span the byte alphabet + sentinel
	}
	st.cnt = grow32(st.cnt, cntLen)
	sa, rank, tmp, cnt := st.sa, st.rank, st.tmp, st.cnt
	for i := range cnt {
		cnt[i] = 0
	}

	// Round 0: counting sort by first character (sentinel = 0).
	key0 := func(i int) int32 {
		if i == n-1 {
			return 0
		}
		return int32(s[i]) + 1
	}
	for i := 0; i < n; i++ {
		cnt[key0(i)]++
	}
	for v := int32(1); v <= 256; v++ {
		cnt[v] += cnt[v-1]
	}
	for i := n - 1; i >= 0; i-- {
		k := key0(i)
		cnt[k]--
		sa[cnt[k]] = int32(i)
	}
	rank[sa[0]] = 0
	for i := 1; i < n; i++ {
		rank[sa[i]] = rank[sa[i-1]]
		if key0(int(sa[i])) != key0(int(sa[i-1])) {
			rank[sa[i]]++
		}
	}

	for k := 1; int(rank[sa[n-1]]) != n-1; k <<= 1 {
		// Sort by (rank[i], rank[i+k]) with two radix passes.
		// Pass 1 (second key): suffixes i >= n-k have empty second key
		// (smallest); they go first, followed by sa order shifted by -k.
		idx := 0
		for i := n - k; i < n; i++ {
			tmp[idx] = int32(i)
			idx++
		}
		for i := 0; i < n; i++ {
			if int(sa[i]) >= k {
				tmp[idx] = sa[i] - int32(k)
				idx++
			}
		}
		// Pass 2 (first key): stable counting sort by rank.
		for i := range cnt[:n] {
			cnt[i] = 0
		}
		for i := 0; i < n; i++ {
			cnt[rank[i]]++
		}
		for v := 1; v < n; v++ {
			cnt[v] += cnt[v-1]
		}
		for i := n - 1; i >= 0; i-- {
			r := rank[tmp[i]]
			cnt[r]--
			sa[cnt[r]] = tmp[i]
		}
		// Re-rank.
		second := func(i int32) int32 {
			if int(i)+k < n {
				return rank[int(i)+k] + 1
			}
			return 0
		}
		tmp[sa[0]] = 0
		for i := 1; i < n; i++ {
			tmp[sa[i]] = tmp[sa[i-1]]
			if rank[sa[i]] != rank[sa[i-1]] || second(sa[i]) != second(sa[i-1]) {
				tmp[sa[i]]++
			}
		}
		copy(rank, tmp)
	}
	return sa
}

// bwt computes the sentinel Burrows–Wheeler transform. It returns the
// last column (length len(s)) and the primary index: the sorted-rotation
// row occupied by the original string, whose last character (the
// sentinel) is omitted from the output. The returned slice aliases st.l.
func bwt(s []byte, st *scratch) ([]byte, int) {
	sa := suffixArray(s, st)
	if cap(st.l) < len(s) {
		st.l = make([]byte, 0, len(s))
	}
	out := st.l[:0]
	primary := 0
	for j, i := range sa {
		if i == 0 {
			primary = j
			continue
		}
		out = append(out, s[i-1])
	}
	st.l = out
	return out, primary
}

// unbwt inverts bwt.
func unbwt(l []byte, primary int) ([]byte, error) {
	if len(l) == 0 {
		if primary != 0 {
			return nil, compress.ErrCorrupt
		}
		return []byte{}, nil
	}
	out := make([]byte, len(l))
	st := decPool.Get().(*decScratch)
	err := unbwtInto(out, l, primary, st)
	decPool.Put(st)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// unbwtInto inverts bwt, writing the original bytes into out (which
// must have length len(l) and must not alias l). The LF-mapping array
// lives in st so repeated inversions allocate nothing.
func unbwtInto(out, l []byte, primary int, st *decScratch) error {
	n := len(l)
	if n == 0 {
		if primary != 0 {
			return compress.ErrCorrupt
		}
		return nil
	}
	if primary < 1 || primary > n {
		return compress.ErrCorrupt
	}
	var count [256]int
	for _, c := range l {
		count[c]++
	}
	// c0[b] = row of the first occurrence of byte b in the first column;
	// row 0 is the sentinel rotation.
	var c0 [256]int
	sum := 1
	for b := 0; b < 256; b++ {
		c0[b] = sum
		sum += count[b]
	}
	// lf[j] maps conceptual row j (sentinel inserted at row `primary`) to
	// the row beginning with that row's last character.
	st.lf = grow32(st.lf, n+1)
	lf := st.lf
	var occ [256]int
	for j := 0; j <= n; j++ {
		if j == primary {
			lf[j] = 0 // the $-terminated row maps to the $ rotation
			continue
		}
		jj := j
		if j > primary {
			jj = j - 1
		}
		c := l[jj]
		lf[j] = int32(c0[c] + occ[c])
		occ[c]++
	}
	j := 0 // start at the sentinel rotation, whose last char is s[n-1]
	for k := n - 1; k >= 0; k-- {
		if j == primary {
			return compress.ErrCorrupt
		}
		jj := j
		if j > primary {
			jj = j - 1
		}
		out[k] = l[jj]
		j = int(lf[j])
	}
	if j != primary {
		return compress.ErrCorrupt
	}
	return nil
}

// mtf applies the move-to-front transform (output length equals input
// length). The returned slice aliases st.mtfd.
func mtf(src []byte, st *scratch) []byte {
	var alpha [256]byte
	for i := range alpha {
		alpha[i] = byte(i)
	}
	if cap(st.mtfd) < len(src) {
		st.mtfd = make([]byte, len(src))
	}
	st.mtfd = st.mtfd[:len(src)]
	out := st.mtfd
	for i, c := range src {
		// IndexByte is the vectorized scan; every byte value is present in
		// alpha, so the result is always >= 0.
		j := bytes.IndexByte(alpha[:], c)
		out[i] = byte(j)
		copy(alpha[1:j+1], alpha[:j])
		alpha[0] = c
	}
	return out
}

// unmtf inverts mtf.
func unmtf(src []byte) []byte {
	out := make([]byte, len(src))
	copy(out, src)
	unmtfInPlace(out)
	return out
}

// unmtfInPlace inverts mtf in place: each output byte depends only on
// the input byte at the same position and the alphabet state, so the
// buffer can be rewritten as it is scanned.
func unmtfInPlace(b []byte) {
	var alpha [256]byte
	for i := range alpha {
		alpha[i] = byte(i)
	}
	for i, j := range b {
		c := alpha[j]
		b[i] = c
		copy(alpha[1:int(j)+1], alpha[:j])
		alpha[0] = c
	}
}

// rleEncode maps MTF output to the RUNA/RUNB symbol stream. The
// returned slice aliases st.syms.
func rleEncode(mtfd []byte, st *scratch) []uint16 {
	if cap(st.syms) < len(mtfd)/2+8 {
		st.syms = make([]uint16, 0, len(mtfd)/2+8)
	}
	out := st.syms[:0]
	i := 0
	for i < len(mtfd) {
		if mtfd[i] == 0 {
			run := 0
			for i < len(mtfd) && mtfd[i] == 0 {
				run++
				i++
			}
			// bijective base-2 digits of run
			for run > 0 {
				if run&1 == 1 {
					out = append(out, symRunA)
					run = (run - 1) / 2
				} else {
					out = append(out, symRunB)
					run = (run - 2) / 2
				}
			}
			continue
		}
		out = append(out, uint16(mtfd[i])+1)
		i++
	}
	st.syms = out
	return out
}

// rleDecode inverts rleEncode given the expected MTF length.
func rleDecode(syms []uint16, n int) ([]byte, error) {
	return rleDecodeInto(make([]byte, 0, n), syms, n)
}

// rleDecodeInto inverts rleEncode, appending exactly n bytes to dst
// (normally a reused scratch buffer passed as buf[:0]).
func rleDecodeInto(dst []byte, syms []uint16, n int) ([]byte, error) {
	base := len(dst)
	out := dst
	i := 0
	for i < len(syms) {
		s := syms[i]
		if s == symRunA || s == symRunB {
			run := 0
			shift := uint(0)
			for i < len(syms) && (syms[i] == symRunA || syms[i] == symRunB) {
				if syms[i] == symRunA {
					run += 1 << shift
				} else {
					run += 2 << shift
				}
				shift++
				i++
			}
			if len(out)-base+run > n {
				return nil, compress.ErrCorrupt
			}
			for k := 0; k < run; k++ {
				out = append(out, 0)
			}
			continue
		}
		if s < 2 || s > 256 || len(out)-base+1 > n {
			return nil, compress.ErrCorrupt
		}
		out = append(out, byte(s-1))
		i++
	}
	if len(out)-base != n {
		return nil, compress.ErrSizeMismatch
	}
	return out, nil
}

// compressBlock encodes one BWT block into w using st's scratch.
func compressBlock(w *bitio.Writer, block []byte, st *scratch) {
	l, primary := bwt(block, st)
	syms := rleEncode(mtf(l, st), st)

	freqs := st.freqs[:]
	for i := range freqs {
		freqs[i] = 0
	}
	freqs[symEOB] = 1
	for _, s := range syms {
		freqs[s]++
	}
	lengths, err := st.builder.Build(st.lengths, freqs, huffman.MaxBits)
	if err != nil {
		panic("bwz: " + err.Error())
	}
	st.lengths = lengths
	if err := st.enc.Reset(lengths); err != nil {
		panic("bwz: " + err.Error())
	}
	enc := &st.enc
	w.WriteBits(uint64(primary), 24)
	huffman.WriteLengths(w, lengths)
	for _, s := range syms {
		_ = enc.Encode(w, int(s))
	}
	_ = enc.Encode(w, symEOB)
}

// decompressBlock decodes one block of blockLen original bytes from r
// and appends them to out, using st for every intermediate buffer. out
// grows only once the block's symbols have decoded to blockLen bytes, so
// the length a header claims costs no memory until the input backs it.
func decompressBlock(r *bitio.Reader, out []byte, blockLen int, st *decScratch) ([]byte, error) {
	p64, err := r.ReadBits(24)
	if err != nil {
		return out, compress.ErrCorrupt
	}
	lengths, err := huffman.ReadLengthsInto(r, st.lengths, numSyms)
	if err != nil {
		return out, compress.ErrCorrupt
	}
	st.lengths = lengths
	if err := st.dec.Reset(lengths); err != nil {
		return out, compress.ErrCorrupt
	}
	// Every symbol takes at least one bit of input.
	if want := min(blockLen/2+8, r.BitsRemaining()+1); cap(st.syms) < want {
		st.syms = make([]uint16, 0, want)
	}
	syms := st.syms[:0]
	for {
		s, err := st.dec.Decode(r)
		if err != nil {
			return out, compress.ErrCorrupt
		}
		if s == symEOB {
			break
		}
		if len(syms) > 3*blockLen+16 {
			return out, compress.ErrCorrupt
		}
		syms = append(syms, uint16(s))
	}
	st.syms = syms
	mtfd, err := rleDecodeInto(st.mtfd[:0], syms, blockLen)
	if err != nil {
		return out, err
	}
	st.mtfd = mtfd
	unmtfInPlace(mtfd)
	pos := len(out)
	out = slices.Grow(out, blockLen)[:pos+blockLen]
	return out, unbwtInto(out[pos:], mtfd, int(p64), st)
}

// AppendCompress implements compress.Codec: it appends the
// compressed form of src to dst (growing it as needed) and returns the
// extended slice. The pooled scratch makes repeated compressions nearly
// allocation-free.
func (*Codec) AppendCompress(dst, src []byte) []byte {
	var w bitio.Writer
	w.ResetBuf(dst)
	st := scratchPool.Get().(*scratch)
	defer scratchPool.Put(st)
	for off := 0; off < len(src); off += MaxBlock {
		end := off + MaxBlock
		if end > len(src) {
			end = len(src)
		}
		compressBlock(&w, src[off:end], st)
	}
	if len(src) == 0 {
		compressBlock(&w, nil, st)
	}
	return w.Bytes()
}

// DecompressAppend implements compress.Codec: it appends
// the decompressed form of src to dst and returns the extended slice.
// Each BWT block is inverted directly into its final position, growing
// dst block by block as the input proves each one; all intermediate
// state comes from the pooled decScratch, so a steady-state call with a
// pre-sized dst allocates nothing.
func (*Codec) DecompressAppend(dst, src []byte, origLen int) ([]byte, error) {
	out := dst
	st := decPool.Get().(*decScratch)
	defer decPool.Put(st)
	r := &st.r
	r.Reset(src)
	remaining := origLen
	for {
		blockLen := min(remaining, MaxBlock)
		var err error
		if out, err = decompressBlock(r, out, blockLen, st); err != nil {
			return dst, err
		}
		remaining -= blockLen
		if remaining == 0 {
			break
		}
	}
	return out, nil
}

func init() {
	compress.MustRegister(New())
}
