// Package datagen generates synthetic payloads with controlled,
// realistic compressibility — the role SDGen [Gracia-Tinedo et al.,
// FAST'15] plays in the paper's evaluation. Block traces carry no data,
// so write contents are synthesized per volume offset from a dataset
// profile: a mixture of content classes (text, source code, structured
// binary, already-compressed media, zero pages) whose proportions set the
// dataset's compressibility distribution, including the ~30 % of chunks
// that do not compress at all (El-Shimi et al., USENIX ATC'12).
//
// Generation is deterministic in (profile, seed, offset, version), so a
// trace replay always sees the same bytes for the same block.
package datagen

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// Class identifies one content family.
type Class int

// Content classes, ordered roughly by decreasing compressibility.
const (
	ClassZero   Class = iota // zero-filled pages (metadata slack)
	ClassText                // natural-language text
	ClassCode                // source code
	ClassBinary              // structured binary records
	ClassMedia               // already-compressed (incompressible)
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassZero:
		return "zero"
	case ClassText:
		return "text"
	case ClassCode:
		return "code"
	case ClassBinary:
		return "binary"
	case ClassMedia:
		return "media"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ClassWeight is one mixture component.
type ClassWeight struct {
	Class  Class
	Weight float64
}

// Profile is a dataset model: a named mixture of content classes, plus
// an optional duplication knob controlling how much of the volume is
// populated from a shared pool of clone regions.
type Profile struct {
	Name    string
	Mixture []ClassWeight

	// DupRatio is the fraction of content regions (classGrain-sized)
	// whose bytes are drawn from a shared clone pool instead of being
	// unique to the region. Clone content ignores both the region number
	// and the overwrite version, so two writes covering clone regions of
	// the same clone at the same intra-region alignment are
	// byte-identical — the duplicates a content-addressed dedup layer
	// collapses. 0 (the default) reproduces the historical generator
	// byte-for-byte.
	DupRatio float64

	// DupUniverse is the number of distinct clones in the pool (default
	// 64 when DupRatio > 0). Smaller universes mean heavier duplication.
	DupUniverse int
}

// WithDup returns a copy of p with the duplication knob set; a
// convenience for tooling that layers duplicates over a stock profile.
func (p Profile) WithDup(ratio float64, universe int) Profile {
	p.DupRatio = ratio
	p.DupUniverse = universe
	return p
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if len(p.Mixture) == 0 {
		return fmt.Errorf("datagen %s: empty mixture", p.Name)
	}
	if p.DupRatio < 0 || p.DupRatio > 1 {
		return fmt.Errorf("datagen %s: dup ratio %v outside [0,1]", p.Name, p.DupRatio)
	}
	if p.DupUniverse < 0 {
		return fmt.Errorf("datagen %s: negative dup universe", p.Name)
	}
	sum := 0.0
	for _, cw := range p.Mixture {
		if cw.Class < 0 || cw.Class >= numClasses {
			return fmt.Errorf("datagen %s: unknown class %d", p.Name, cw.Class)
		}
		if cw.Weight < 0 {
			return fmt.Errorf("datagen %s: negative weight", p.Name)
		}
		sum += cw.Weight
	}
	if sum <= 0 {
		return fmt.Errorf("datagen %s: zero total weight", p.Name)
	}
	return nil
}

// LinuxSrc models a source tree (the paper's "Linux source files"
// dataset in Fig. 2): highly compressible.
func LinuxSrc() Profile {
	return Profile{Name: "linux-src", Mixture: []ClassWeight{
		{ClassCode, 0.50}, {ClassText, 0.30}, {ClassBinary, 0.12},
		{ClassZero, 0.05}, {ClassMedia, 0.03},
	}}
}

// FirefoxBin models an application install tree (the paper's "Mozilla
// Firefox files" dataset): moderately compressible.
func FirefoxBin() Profile {
	return Profile{Name: "firefox-bin", Mixture: []ClassWeight{
		{ClassBinary, 0.45}, {ClassCode, 0.15}, {ClassText, 0.12},
		{ClassMedia, 0.25}, {ClassZero, 0.03},
	}}
}

// Media models photo/video/audio volumes: essentially incompressible.
func Media() Profile {
	return Profile{Name: "media", Mixture: []ClassWeight{
		{ClassMedia, 0.92}, {ClassBinary, 0.06}, {ClassZero, 0.02},
	}}
}

// Enterprise models a general-purpose file-server volume with the
// published skew: roughly 30 % of chunks incompressible.
func Enterprise() Profile {
	return Profile{Name: "enterprise", Mixture: []ClassWeight{
		{ClassText, 0.25}, {ClassCode, 0.18}, {ClassBinary, 0.22},
		{ClassMedia, 0.30}, {ClassZero, 0.05},
	}}
}

// Generator produces deterministic content for volume offsets. It is
// safe for concurrent use: per-call scratch (the reseedable source and the
// binary-class match pool) lives in an internal sync.Pool, so steady-
// state generation through AppendBlock allocates nothing.
type Generator struct {
	p       Profile
	seed    int64
	cum     []float64
	cumSum  float64
	scratch sync.Pool // of *genScratch

	// dupRatio/dupUniverse are the resolved duplication knob (universe
	// defaulted when the profile leaves it zero).
	dupRatio    float64
	dupUniverse uint64
}

// genScratch is the reusable per-call state: one source, reseeded per
// content chunk, and pooled because its register is ~5 KiB.
type genScratch struct {
	rng  source
	pool [256]byte // appendBinary's per-region match pool
}

// New returns a generator for profile p. It panics on an invalid
// profile; validate first if the profile is user-supplied.
func New(p Profile, seed int64) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{p: p, seed: seed, dupRatio: p.DupRatio, dupUniverse: uint64(p.DupUniverse)}
	if g.dupUniverse == 0 {
		g.dupUniverse = 64
	}
	g.scratch.New = func() interface{} { return new(genScratch) }
	for _, cw := range p.Mixture {
		g.cumSum += cw.Weight
		g.cum = append(g.cum, g.cumSum)
	}
	return g
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

// classGrain is the region size sharing one content class: 64 KiB, so a
// file-sized extent has a consistent type.
const classGrain = 64 << 10

// mix64 is SplitMix64, used to derive per-region seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dupSalt decorrelates the clone-selection hash from the class hash.
const dupSalt = 0xd1b54a32d192ed03

// cloneID reports whether region is a clone region and, if so, which of
// the profile's DupUniverse clones it replicates. Clone selection is a
// pure function of (seed, region), so the same region is always the
// same clone across versions and runs.
func (g *Generator) cloneID(region int64) (uint64, bool) {
	if g.dupRatio <= 0 {
		return 0, false
	}
	h := mix64(uint64(region) ^ uint64(g.seed)*dupSalt)
	if float64(h>>11)/float64(1<<53) >= g.dupRatio {
		return 0, false
	}
	return mix64(h) % g.dupUniverse, true
}

// classOf maps a region hash onto the mixture.
func (g *Generator) classOf(h uint64) Class {
	v := float64(h>>11) / float64(1<<53) * g.cumSum
	for i, c := range g.cum {
		if v <= c {
			return g.p.Mixture[i].Class
		}
	}
	return g.p.Mixture[len(g.p.Mixture)-1].Class
}

// chunk resolves what fills the region containing pos: its content class
// and the seed of the chunk that starts at pos under overwrite version.
// Clone regions take both from the clone identity, not the region or the
// version: every replica of a clone yields identical bytes at the same
// intra-region alignment, and overwriting one rewrites the same bytes.
func (g *Generator) chunk(pos int64, version uint32) (Class, int64) {
	region := pos / classGrain
	seed, at := uint64(g.seed), uint64(pos%classGrain)<<1
	if id, ok := g.cloneID(region); ok {
		return g.classOf(mix64(id*0x9e3779b97f4a7c15 ^ seed ^ dupSalt)),
			int64(mix64(id*0x2545f4914f6cdd1d ^ seed ^ at))
	}
	return g.classOf(mix64(uint64(region) ^ seed*0x9e3779b97f4a7c15)),
		int64(mix64(uint64(region)*0x2545f4914f6cdd1d ^ seed ^ uint64(version)<<32 ^ at))
}

// ClassAt returns the content class of the region containing offset.
// Clone regions take their class from the clone identity, not the
// region, so every replica of a clone has the same class.
func (g *Generator) ClassAt(offset int64) Class {
	cls, _ := g.chunk(offset, 0)
	return cls
}

// Alphabet returns how many distinct byte values any version of the
// size bytes at offset can hold: the union of the alphabets of the
// classes of the regions they span (0 when size <= 0). A region's class
// does not depend on the version, so neither does the union.
func (g *Generator) Alphabet(offset int64, size int) int {
	var set byteSet
	for done := 0; done < size; {
		pos := offset + int64(done)
		set.union(&classAlphabets[g.ClassAt(pos)])
		done += min(int(classGrain-pos%classGrain), size-done)
	}
	return set.len()
}

// byteSet is a set of byte values, one bit each.
type byteSet [4]uint64

func (s *byteSet) add(p []byte) {
	for _, b := range p {
		s[b>>6] |= 1 << (b & 63)
	}
}

func (s *byteSet) union(o *byteSet) {
	for i := range s {
		s[i] |= o[i]
	}
}

func (s *byteSet) len() (n int) {
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// classAlphabets[c] is every byte value class c's content can hold, read
// off the tables its generator copies from: text's units, code's
// template literals and identifiers, zero's 0. Binary and media bytes
// are random, so they can be anything.
var classAlphabets = func() (a [numClasses]byteSet) {
	a[ClassZero].add([]byte{0})
	for _, u := range textUnits {
		a[ClassText].add(u.b[:u.n])
	}
	for _, u := range append(slices.Concat(codeLits[:]...), codeIdentUnits[:]...) {
		a[ClassCode].add(u.b[:u.n])
	}
	a[ClassBinary] = byteSet{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	a[ClassMedia] = a[ClassBinary]
	return a
}()

// Block returns size bytes of content for the given volume offset.
// version distinguishes successive overwrites of the same block.
func (g *Generator) Block(offset int64, size int, version uint32) []byte {
	return g.AppendBlock(make([]byte, 0, size), offset, size, version)
}

// AppendBlock appends size bytes of content for the given volume offset
// to dst and returns the extended slice. Output is byte-identical to
// Block; callers on hot paths pass a recycled buffer (as buf[:0]) so
// generation is allocation-free in steady state. Only dst[len(dst):
// len(dst)+size] is written, and dst is reallocated only when its spare
// capacity is below size.
func (g *Generator) AppendBlock(dst []byte, offset int64, size int, version uint32) []byte {
	if size <= 0 {
		return dst
	}
	dst = slices.Grow(dst, size) // once, not per region
	st := g.scratch.Get().(*genScratch)
	for done := 0; done < size; {
		pos := offset + int64(done)
		// Bytes remaining in this region.
		n := min(int(classGrain-pos%classGrain), size-done)
		cls, seed := g.chunk(pos, version)
		dst = appendContent(dst, cls, n, seed, st)
		done += n
	}
	g.scratch.Put(st)
	return dst
}

// extend grows dst by n bytes without initializing them and returns the
// extended slice together with the n-byte window the caller must fill
// completely. It reallocates only when dst has fewer than n bytes of spare
// capacity.
func extend(dst []byte, n int) (whole, window []byte) {
	whole = slices.Grow(dst, n)[:len(dst)+n]
	return whole, whole[len(dst):]
}

// appendContent appends n bytes of class cls content seeded by seed:
// exactly the bytes the reference bodies in ref_test.go produce from
// rand.New(rand.NewSource(seed)). Zero chunks read no random numbers, so
// they seed nothing.
func appendContent(dst []byte, cls Class, n int, seed int64, st *genScratch) []byte {
	if cls == ClassZero {
		dst, out := extend(dst, n)
		clear(out)
		return dst
	}
	rng := &st.rng
	rng.Seed(seed)
	switch cls {
	case ClassText:
		return appendText(dst, rng, n)
	case ClassCode:
		return appendCode(dst, rng, n)
	case ClassBinary:
		return appendBinary(dst, rng, n, &st.pool)
	case ClassMedia:
		dst, out := extend(dst, n)
		rng.Read(out)
		return dst
	default:
		panic(fmt.Sprintf("datagen: unknown class %d", cls))
	}
}

// A padded is a short string followed by padding, so a hot loop can copy
// a fixed number of bytes — wide stores instead of a variable-length
// memmove — and advance by n. The padding lands on bytes the next put
// overwrites.
type padded struct {
	b [32]byte
	n int
}

func pad(s string) (p padded) {
	if p.n = copy(p.b[:], s); p.n < len(s) {
		panic("datagen: " + s + " overflows a padded unit")
	}
	return p
}

// put writes p at out[i:] and returns the index after it. Near the end
// of out it falls back to an exact copy, cut where out ends, so nothing
// outside out is ever written; the returned index may then lie past it.
func put(out []byte, i int, p *padded) int {
	if len(out)-i >= len(p.b) {
		*(*[len(p.b)]byte)(out[i:]) = p.b
	} else if i < len(out) {
		copy(out[i:], p.b[:p.n])
	}
	return i + p.n
}

var textWords = [...]string{
	"storage", "system", "flash", "data", "compression", "elastic",
	"performance", "space", "efficiency", "request", "response", "write",
	"read", "block", "device", "queue", "latency", "throughput", "the",
	"and", "with", "for", "that", "this", "from", "into", "over",
	"workload", "intensity", "idle", "burst", "period", "algorithm",
}

// textSeps are the separators a word is followed by: the first two on
// draws 0 and 1 of 16, the space on every other.
var textSeps = [...]string{".\n", ", ", " "}

// textUnits[w*len(textSeps)+s] is word w followed by separator s.
var textUnits = func() (u [len(textWords) * len(textSeps)]padded) {
	for w, word := range textWords {
		for s, sep := range textSeps {
			u[w*len(textSeps)+s] = pad(word + sep)
		}
	}
	return u
}()

// appendText appends n bytes of words, each followed by a separator; the
// last unit is cut at n.
func appendText(dst []byte, rng *source, n int) []byte {
	dst, out := extend(dst, n)
	for i := 0; i < len(out); {
		w := below(rng.word(), len(textWords))
		for w < 0 {
			w = below(rng.word(), len(textWords))
		}
		s := min(below(rng.word(), 16), len(textSeps)-1) // 16 rejects no draw
		i = put(out, i, &textUnits[w*len(textSeps)+s])
	}
	return dst
}

var codeIdents = [...]string{
	"req", "dev", "buf", "err", "ctx", "cfg", "size", "offset", "page",
	"block", "queue", "state", "stats", "count", "index", "level",
}

var codeTemplates = [...]string{
	"func %s(%s int) error {\n",
	"\tif %s != nil {\n\t\treturn %s\n\t}\n",
	"\tfor %s := 0; %s < %s; %s++ {\n",
	"\t\t%s += %s\n\t}\n",
	"\treturn nil\n}\n\n",
	"\t%s := make([]byte, %s)\n",
	"// %s computes the %s of the %s.\n",
	"\tswitch %s {\n\tcase %s:\n\t\tbreak\n\t}\n",
}

// codeIdentUnits are codeIdents, padded.
var codeIdentUnits = func() (u [len(codeIdents)]padded) {
	for i, id := range codeIdents {
		u[i] = pad(id)
	}
	return u
}()

// codeLits[t] is codeTemplates[t] split at its %s verbs (the templates
// contain no other verbs): the literal text before the first identifier,
// between identifiers, and after the last.
var codeLits = func() (lits [len(codeTemplates)][]padded) {
	for t, tpl := range codeTemplates {
		for _, lit := range strings.Split(tpl, "%s") {
			lits[t] = append(lits[t], pad(lit))
		}
	}
	return lits
}()

// appendCode appends n bytes of expanded templates — fmt.Sprintf's output
// with a random identifier per %s verb, drawn in verb order — cutting the
// last one at n.
func appendCode(dst []byte, rng *source, n int) []byte {
	dst, out := extend(dst, n)
	// Both tables have a power-of-two length, so below rejects no draw.
	for i := 0; i < len(out); {
		lits := codeLits[below(rng.word(), len(codeTemplates))]
		i = put(out, i, &lits[0])
		for k := 1; k < len(lits); k++ {
			i = put(out, i, &codeIdentUnits[below(rng.word(), len(codeIdents))])
			i = put(out, i, &lits[k])
		}
	}
	return dst
}

// appendBinary appends n bytes of 64-byte records: a 16-byte random key
// plus 48 bytes drawn from a small per-region pool, giving LZ matches
// across records (ratio ~1.5–2.5 under gz, like serialized application
// state). The last record is cut at n.
func appendBinary(dst []byte, rng *source, n int, pool *[256]byte) []byte {
	dst, out := extend(dst, n)
	rng.Read(pool[:])
	for ; len(out) >= binaryRecord; out = out[binaryRecord:] {
		fillRecord((*[binaryRecord]byte)(out), rng, pool)
	}
	if len(out) > 0 {
		var rec [binaryRecord]byte
		fillRecord(&rec, rng, pool)
		copy(out, rec[:])
	}
	return dst
}

const binaryRecord = 64

func fillRecord(rec *[binaryRecord]byte, rng *source, pool *[256]byte) {
	rng.Read(rec[:16])
	for i := 16; i < len(rec); i += 8 {
		off := below(rng.word(), len(pool)-8)
		for off < 0 {
			off = below(rng.word(), len(pool)-8)
		}
		copy(rec[i:i+8], pool[off:off+8])
	}
}
