// Package huffman implements length-limited canonical Huffman coding over
// byte-oriented alphabets. It is shared by the gz (LZ77+Huffman) and bwz
// (BWT+MTF+Huffman) codecs.
//
// Codes are canonical: symbols are assigned consecutive code values in
// (length, symbol) order, so a code table is fully described by the code
// length of each symbol. Encoded code words are written LSB-first after
// bit reversal so they can be decoded with the LSB-first bitio readers.
package huffman

import (
	"errors"
	"fmt"
	"math/bits"

	"edc/internal/bitio"
)

// MaxBits is the maximum supported code length.
const MaxBits = 15

var (
	// ErrInvalidLengths reports a code-length vector that does not
	// describe a valid (complete or empty) prefix code.
	ErrInvalidLengths = errors.New("huffman: invalid code lengths")
	// ErrBadSymbol reports an attempt to encode a symbol with no code.
	ErrBadSymbol = errors.New("huffman: symbol has no code")
)

// Code describes one symbol's canonical code.
type Code struct {
	Bits uint16 // code value, bit-reversed for LSB-first emission
	Len  uint8  // code length in bits; 0 means the symbol is unused
}

// Encoder maps symbols to canonical codes.
type Encoder struct {
	codes []Code
}

// node is an internal tree node used during construction. Nodes live in
// one flat slice and reference children by index, so building a tree
// costs two slice allocations instead of one per node. seq breaks
// frequency ties deterministically: leaves get 0..n-1 in symbol order,
// merged nodes continue the count, exactly as the original
// pointer-per-node construction did, so the resulting code lengths are
// unchanged.
type node struct {
	freq   int64
	symbol int32 // -1 for internal nodes
	left   int32
	right  int32
	seq    int32
}

// BuildLengths computes length-limited code lengths (<= maxBits) for the
// given symbol frequencies. Symbols with zero frequency get length 0.
// If only one symbol has nonzero frequency it is assigned length 1 so the
// code remains decodable. Hot paths that build many codes should hold a
// Builder and call its Build method instead, which reuses the tree
// scratch across calls.
func BuildLengths(freqs []int64, maxBits int) ([]uint8, error) {
	var b Builder
	return b.Build(nil, freqs, maxBits)
}

// Builder computes code lengths like BuildLengths but keeps the tree
// construction scratch (the node arena and the index heap) between
// calls, so steady-state builds allocate only when the caller passes a
// too-small dst. The zero value is ready to use. Not safe for
// concurrent use; pool Builders alongside the codec scratch instead.
type Builder struct {
	nodes []node
	hp    []int32
}

// Build computes length-limited code lengths (<= maxBits) for freqs into
// dst, growing it as needed (dst may be nil), and returns the slice.
// The result is identical to BuildLengths for the same inputs.
func (b *Builder) Build(dst []uint8, freqs []int64, maxBits int) ([]uint8, error) {
	if maxBits <= 0 || maxBits > MaxBits {
		return nil, fmt.Errorf("huffman: maxBits %d out of range", maxBits)
	}
	if cap(dst) < len(freqs) {
		dst = make([]uint8, len(freqs))
	}
	lengths := dst[:len(freqs)]
	for i := range lengths {
		lengths[i] = 0
	}
	n := 0
	for _, f := range freqs {
		if f > 0 {
			n++
		}
	}
	switch n {
	case 0:
		return lengths, nil
	case 1:
		for sym, f := range freqs {
			if f > 0 {
				lengths[sym] = 1
			}
		}
		return lengths, nil
	}
	if cap(b.nodes) < 2*n-1 {
		b.nodes = make([]node, 0, 2*n-1)
	}
	if cap(b.hp) < n {
		b.hp = make([]int32, 0, n)
	}
	nodes := b.nodes[:0]
	hp := b.hp[:0]
	seq := int32(0)
	for sym, f := range freqs {
		if f > 0 {
			nodes = append(nodes, node{freq: f, symbol: int32(sym), left: -1, right: -1, seq: seq})
			hp = append(hp, seq) // leaf index == seq
			seq++
		}
	}
	// Hand-rolled min-heap of node indices. The (freq, seq) comparison is
	// a total order, so the pop sequence — and therefore the merge order
	// and final code lengths — does not depend on heap internals.
	less := func(a, b int32) bool {
		if nodes[a].freq != nodes[b].freq {
			return nodes[a].freq < nodes[b].freq
		}
		return nodes[a].seq < nodes[b].seq
	}
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(hp) {
				return
			}
			j := l
			if r := l + 1; r < len(hp) && less(hp[r], hp[l]) {
				j = r
			}
			if !less(hp[j], hp[i]) {
				return
			}
			hp[i], hp[j] = hp[j], hp[i]
			i = j
		}
	}
	for i := len(hp)/2 - 1; i >= 0; i-- {
		down(i)
	}
	pop := func() int32 {
		min := hp[0]
		last := len(hp) - 1
		hp[0] = hp[last]
		hp = hp[:last]
		down(0)
		return min
	}
	push := func(x int32) {
		hp = append(hp, x)
		for i := len(hp) - 1; i > 0; {
			parent := (i - 1) / 2
			if !less(hp[i], hp[parent]) {
				break
			}
			hp[i], hp[parent] = hp[parent], hp[i]
			i = parent
		}
	}
	for len(hp) > 1 {
		x := pop()
		y := pop()
		nodes = append(nodes, node{freq: nodes[x].freq + nodes[y].freq, symbol: -1, left: x, right: y, seq: seq})
		push(int32(len(nodes) - 1))
		seq++
	}
	assignDepths(nodes, hp[0], 0, lengths)
	limitLengths(lengths, maxBits)
	b.nodes = nodes[:0]
	b.hp = hp[:0]
	return lengths, nil
}

func assignDepths(nodes []node, i int32, depth uint8, lengths []uint8) {
	nd := &nodes[i]
	if nd.symbol >= 0 {
		if depth == 0 {
			depth = 1
		}
		lengths[nd.symbol] = depth
		return
	}
	assignDepths(nodes, nd.left, depth+1, lengths)
	assignDepths(nodes, nd.right, depth+1, lengths)
}

// limitLengths rebalances a code-length vector so no length exceeds
// maxBits, using the classic Kraft-sum repair: overflowing codes are
// clamped, then lengths are adjusted until sum(2^-len) == 1.
func limitLengths(lengths []uint8, maxBits int) {
	overflow := false
	for _, l := range lengths {
		if int(l) > maxBits {
			overflow = true
			break
		}
	}
	if !overflow {
		return
	}
	// Count codes per length, clamping overlong codes (zlib-style repair:
	// each overflowing leaf is provisionally counted at maxBits, then leaf
	// pairs are rebalanced by moving an interior leaf one level down).
	var counts [MaxBits + 2]int
	over := 0
	for i, l := range lengths {
		if l == 0 {
			continue
		}
		if int(l) > maxBits {
			over++
			lengths[i] = uint8(maxBits)
		}
		counts[lengths[i]]++
	}
	for over > 0 {
		bits := maxBits - 1
		for counts[bits] == 0 {
			bits--
		}
		counts[bits]--      // move one leaf down the tree
		counts[bits+1] += 2 // move one overflow item as its brother
		counts[maxBits]--
		over -= 2
	}
	// Exact fix-up: force the Kraft sum (in units of 2^-maxBits) to be
	// exactly full by promoting/demoting codes at the deepest level, one
	// unit at a time.
	kraft := func() int {
		k := 0
		for l := 1; l <= maxBits; l++ {
			k += counts[l] << uint(maxBits-l)
		}
		return k
	}
	full := 1 << uint(maxBits)
	for k := kraft(); k != full; k = kraft() {
		if k < full && counts[maxBits] > 0 {
			counts[maxBits]--
			counts[maxBits-1]++ // promote: +1 unit
		} else if k > full && counts[maxBits-1] > 0 {
			counts[maxBits-1]--
			counts[maxBits]++ // demote: -1 unit
		} else if k > full {
			bits := maxBits - 2
			for bits > 0 && counts[bits] == 0 {
				bits--
			}
			counts[bits]--
			counts[bits+1]++
		} else {
			bits := maxBits - 1
			for bits > 1 && counts[bits] == 0 {
				bits--
			}
			counts[bits]--
			counts[bits-1]++
		}
	}
	// Re-assign lengths in order of increasing original length (stable):
	// collect symbols sorted by (origLen, symbol) and dole out new lengths
	// from the repaired histogram.
	type symLen struct {
		sym int
		len uint8
	}
	order := make([]symLen, 0, len(lengths))
	for s, l := range lengths {
		if l > 0 {
			order = append(order, symLen{s, l})
		}
	}
	// Insertion sort by (len, sym); alphabets are small (<300 symbols).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if a.len > b.len || (a.len == b.len && a.sym > b.sym) {
				order[j-1], order[j] = b, a
			} else {
				break
			}
		}
	}
	idx := 0
	for l := 1; l <= maxBits; l++ {
		for c := 0; c < counts[l]; c++ {
			lengths[order[idx].sym] = uint8(l)
			idx++
		}
	}
}

// reverseBits reverses the low n bits of v (1 <= n <= 16).
func reverseBits(v uint16, n uint8) uint16 { return bits.Reverse16(v) >> (16 - n) }

// NewEncoderFromLengths builds an Encoder from canonical code lengths.
func NewEncoderFromLengths(lengths []uint8) (*Encoder, error) {
	e := new(Encoder)
	if err := e.Reset(lengths); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset rebuilds the encoder for a new canonical code, reusing the code
// table storage. A pooled zero-value Encoder plus Reset makes repeated
// encodings allocation-free in steady state. On error the encoder is
// left unusable until a successful Reset.
func (e *Encoder) Reset(lengths []uint8) error {
	codes, err := canonicalCodesInto(e.codes, lengths)
	e.codes = codes
	return err
}

// canonicalCodes assigns canonical code values given lengths and verifies
// the Kraft inequality holds with equality (complete code) or that the
// code is empty/degenerate (single symbol).
func canonicalCodes(lengths []uint8) ([]Code, error) {
	return canonicalCodesInto(nil, lengths)
}

// canonicalCodesInto is canonicalCodes writing into dst (grown as
// needed; dst may be nil). All bookkeeping lives in fixed-size stack
// arrays so reuse with an adequately sized dst allocates nothing.
func canonicalCodesInto(dst []Code, lengths []uint8) ([]Code, error) {
	var counts [MaxBits + 1]int
	nonzero := 0
	for _, l := range lengths {
		if l == 0 {
			continue
		}
		if l > MaxBits {
			return nil, ErrInvalidLengths
		}
		counts[l]++
		nonzero++
	}
	if cap(dst) < len(lengths) {
		dst = make([]Code, len(lengths))
	}
	codes := dst[:len(lengths)]
	for i := range codes {
		codes[i] = Code{}
	}
	if nonzero == 0 {
		return codes, nil
	}
	// first code value for each length
	var firsts [MaxBits + 2]uint16
	code := uint16(0)
	for l := 1; l <= MaxBits; l++ {
		code = (code + uint16(counts[l-1])) << 1
		firsts[l] = code
	}
	// Verify completeness: sum of counts[l]*2^(MaxBits-l) must be
	// 2^MaxBits, except for the degenerate 1-symbol code (one length-1
	// code, half-full) which we accept.
	k := 0
	for l := 1; l <= MaxBits; l++ {
		k += counts[l] << uint(MaxBits-l)
	}
	if k > 1<<MaxBits {
		return nil, ErrInvalidLengths
	}
	if k < 1<<MaxBits && !(nonzero == 1 && counts[1] == 1) {
		return nil, ErrInvalidLengths
	}
	var next [MaxBits + 1]uint16
	copy(next[:], firsts[:MaxBits+1])
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		codes[sym] = Code{Bits: reverseBits(next[l], l), Len: l}
		next[l]++
	}
	return codes, nil
}

// Encode writes the code for symbol sym to w.
func (e *Encoder) Encode(w *bitio.Writer, sym int) error {
	if sym < 0 || sym >= len(e.codes) || e.codes[sym].Len == 0 {
		return fmt.Errorf("%w: %d", ErrBadSymbol, sym)
	}
	c := e.codes[sym]
	w.WriteBits(uint64(c.Bits), uint(c.Len))
	return nil
}

// Code returns sym's code, for callers that pack it with other fields
// into one bit-writer call; Len is 0 for an unused symbol. sym must be
// in [0, NumSymbols()).
func (e *Encoder) Code(sym int) Code { return e.codes[sym] }

// CodeLen returns the code length for sym (0 if unused or out of range).
func (e *Encoder) CodeLen(sym int) int {
	if sym < 0 || sym >= len(e.codes) {
		return 0
	}
	return int(e.codes[sym].Len)
}

// NumSymbols returns the alphabet size of the encoder.
func (e *Encoder) NumSymbols() int { return len(e.codes) }

// Decoder decodes canonical Huffman codes using a one-level lookup table.
type Decoder struct {
	// table maps the next tableBits input bits to value<<4 | code length,
	// value being the symbol or what ResetValues gave for it; 0 marks an
	// invalid or overlong entry. Codes longer than tableBits are resolved
	// by a slow path walk.
	table     []uint32
	tableBits uint
	maxLen    uint8
	// slow-path canonical data
	lengths []uint8
	values  []uint32 // nil: a symbol's value is the symbol
	// codes is Reset's scratch for the canonical code assignment.
	codes []Code
}

// maxTableBits caps the lookup table at 2048 entries.
const maxTableBits = 11

// NewDecoderFromLengths builds a Decoder for the canonical code described
// by lengths.
func NewDecoderFromLengths(lengths []uint8) (*Decoder, error) {
	d := new(Decoder)
	if err := d.Reset(lengths); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset rebuilds the decoder for a new canonical code, reusing the
// lookup table, the length copy, and the code scratch. A pooled
// zero-value Decoder plus Reset makes repeated decodings allocation-free
// in steady state. On error the decoder is left unusable until a
// successful Reset.
func (d *Decoder) Reset(lengths []uint8) error { return d.ResetValues(lengths, nil) }

// ResetValues is Reset for a caller that wants more from a lookup than
// the symbol: Decode returns values[sym] in place of sym, and Table
// hands out the lookup table itself, so that one load tells a decode
// loop everything it keeps per symbol. Values are below 1<<28; the
// decoder keeps the slice, which must outlive its use.
func (d *Decoder) ResetValues(lengths []uint8, values []uint32) error {
	codes, err := canonicalCodesInto(d.codes, lengths)
	if err != nil {
		d.maxLen = 0
		d.table = d.table[:0]
		return err
	}
	d.codes = codes
	d.values = values
	if cap(d.lengths) < len(lengths) {
		d.lengths = make([]uint8, len(lengths))
	}
	d.lengths = d.lengths[:len(lengths)]
	copy(d.lengths, lengths)
	var maxLen uint8
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	d.maxLen = maxLen
	d.tableBits = 0
	d.table = d.table[:0]
	if maxLen == 0 {
		return nil
	}
	tb := min(uint(maxLen), maxTableBits)
	d.tableBits = tb
	if cap(d.table) < 1<<tb {
		d.table = make([]uint32, 1<<tb)
	}
	d.table = d.table[:1<<tb]
	clear(d.table)
	for sym, c := range codes {
		if c.Len == 0 || uint(c.Len) > tb {
			continue
		}
		// Fill all table slots whose low c.Len bits equal the code.
		e := d.value(sym)<<4 | uint32(c.Len)
		for i := int(c.Bits); i < len(d.table); i += 1 << c.Len {
			d.table[i] = e
		}
	}
	return nil
}

// value returns what Decode reports for sym.
func (d *Decoder) value(sym int) uint32 {
	if d.values == nil {
		return uint32(sym)
	}
	return d.values[sym]
}

// Table returns the lookup table, for a caller that decodes from a bit
// accumulator of its own instead of paying a bitio.Reader call per
// symbol. It has a power of two of slots (none for an empty code); the
// slot indexed by that many next input bits holds value<<4 | n for the
// symbol whose n-bit code begins them, or 0 when their code is longer
// than the index or no code at all — Decode resolves those. The table
// is the decoder's own: valid until the next Reset, not to be written.
func (d *Decoder) Table() []uint32 { return d.table }

// Decode reads one symbol from r and returns it (its value, after
// ResetValues).
func (d *Decoder) Decode(r *bitio.Reader) (int, error) {
	if d.maxLen == 0 {
		return 0, ErrInvalidLengths
	}
	v, avail := r.Peek(d.tableBits)
	if avail > 0 {
		e := d.table[v]
		if n := uint(e & 0xf); n > 0 && n <= avail {
			r.Skip(n)
			return int(e >> 4), nil
		}
	}
	sym, err := d.decodeSlow(r)
	if err != nil {
		return 0, err
	}
	return int(d.value(sym)), nil
}

// decodeSlow walks the canonical code bit by bit. It handles codes longer
// than the lookup table and reads near the end of input.
func (d *Decoder) decodeSlow(r *bitio.Reader) (int, error) {
	// Reconstruct canonical firsts/counts each call; this path is rare.
	var counts [MaxBits + 1]int
	for _, l := range d.lengths {
		if l > 0 {
			counts[l]++
		}
	}
	code := 0
	first := 0
	for l := 1; l <= int(d.maxLen); l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | int(b)
		count := counts[l]
		if code-first < count {
			// Find the (code-first)-th symbol of length l in symbol order
			// (canonical assignment order).
			k := code - first
			for sym, sl := range d.lengths {
				if int(sl) == l {
					if k == 0 {
						return sym, nil
					}
					k--
				}
			}
			return 0, ErrInvalidLengths
		}
		first = (first + count) << 1
	}
	return 0, ErrInvalidLengths
}

// WriteLengths serializes a code-length vector compactly: 4 bits per
// length with a simple zero run-length escape. Layout per item:
//
//	0xF, runLen(8 bits)  -> runLen+1 zeros (runLen in [0,254])
//	otherwise            -> literal length 0..14
//
// Lengths of 15 are stored as 0xE+flag; since MaxBits is 15 and 0xF is the
// escape, length 15 is encoded as escape value 0xF,0xFF.
func WriteLengths(w *bitio.Writer, lengths []uint8) {
	for i := 0; i < len(lengths); {
		l := lengths[i]
		if l == 0 {
			run := 1
			for i+run < len(lengths) && lengths[i+run] == 0 && run < 255 {
				run++
			}
			w.WriteBits(0xF, 4)
			w.WriteBits(uint64(run-1), 8)
			i += run
			continue
		}
		if l == 15 {
			w.WriteBits(0xF, 4)
			w.WriteBits(0xFF, 8)
			i++
			continue
		}
		w.WriteBits(uint64(l), 4)
		i++
	}
}

// ReadLengths parses a vector of n code lengths written by WriteLengths.
func ReadLengths(r *bitio.Reader, n int) ([]uint8, error) {
	return ReadLengthsInto(r, nil, n)
}

// ReadLengthsInto parses n code lengths into dst, growing it as needed
// (dst may be nil), and returns the slice. Hot decode paths pass a
// pooled buffer so steady-state parses allocate nothing.
func ReadLengthsInto(r *bitio.Reader, dst []uint8, n int) ([]uint8, error) {
	if cap(dst) < n {
		dst = make([]uint8, n)
	}
	lengths := dst[:n]
	for i := range lengths {
		lengths[i] = 0
	}
	for i := 0; i < n; {
		v, err := r.ReadBits(4)
		if err != nil {
			return nil, err
		}
		if v == 0xF {
			run, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			if run == 0xFF {
				lengths[i] = 15
				i++
				continue
			}
			cnt := int(run) + 1
			if i+cnt > n {
				return nil, ErrInvalidLengths
			}
			i += cnt // zeros already there
			continue
		}
		lengths[i] = uint8(v)
		i++
	}
	return lengths, nil
}
