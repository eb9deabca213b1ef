// Package compress defines the common block-codec contract shared by the
// EDC compression engine and the four concrete codec families (lzf, lz4x,
// gz, bwz), together with the 3-bit on-flash tag registry from the paper
// (Fig. 5: the Tag field records which algorithm compressed a block, with
// "000" meaning no compression) and a small self-describing frame format
// used by tools and tests.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync"
)

// Tag is the 3-bit per-block compression-algorithm identifier stored in
// the EDC mapping metadata.
type Tag uint8

// Well-known tags. TagNone is fixed to 0 per the paper ("000" indicates
// no compression).
const (
	TagNone Tag = 0
	TagLZF  Tag = 1
	TagLZ4  Tag = 2
	TagGZ   Tag = 3
	TagBWZ  Tag = 4

	// MaxTag is the largest representable tag (3 bits).
	MaxTag Tag = 7
)

// Errors shared by codec implementations.
var (
	ErrCorrupt      = errors.New("compress: corrupt input")
	ErrUnknownTag   = errors.New("compress: unknown codec tag")
	ErrTagInUse     = errors.New("compress: tag already registered")
	ErrSizeMismatch = errors.New("compress: decompressed size mismatch")
)

// Codec is a block compressor. Implementations must be safe for
// concurrent use by multiple goroutines.
type Codec interface {
	// Name returns a short lowercase identifier ("lzf", "gz", ...).
	Name() string
	// Tag returns the codec's 3-bit on-flash tag.
	Tag() Tag
	// Compress returns the compressed form of src as a fresh slice.
	// The output may be larger than the input for incompressible data;
	// callers (the EDC engine) decide whether to keep it.
	Compress(src []byte) []byte
	// Decompress reverses Compress. origLen is the exact decompressed
	// length recorded by the block layer; implementations use it to size
	// the output and to validate the stream.
	Decompress(src []byte, origLen int) ([]byte, error)
}

// Appender is an optional Codec extension for allocation-conscious hot
// paths: AppendCompress appends the compressed form of src to dst
// (usually a pooled buffer passed as buf[:0]) and returns the extended
// slice, which may be a reallocation of dst. Output bytes are identical
// to Compress. All codecs in this repository implement it.
type Appender interface {
	AppendCompress(dst, src []byte) []byte
}

// AppendCompress compresses src with c, appending to dst when c
// implements Appender and falling back to Compress (plus a copy into
// dst) otherwise. The result is byte-identical to c.Compress(src).
func AppendCompress(c Codec, dst, src []byte) []byte {
	if a, ok := c.(Appender); ok {
		return a.AppendCompress(dst, src)
	}
	return append(dst, c.Compress(src)...)
}

// BoundedAppender is an optional Codec extension for encodes that are
// only worth keeping below a size: AppendCompressWithin returns the
// AppendCompress output and true when that output is at most max bytes,
// and otherwise dst unextended and false. An implementation may stop as
// soon as it can prove the output would be longer, so an encode that
// cannot fit costs less than a whole one. gz implements it.
type BoundedAppender interface {
	AppendCompressWithin(dst, src []byte, max int) ([]byte, bool)
}

// AppendCompressWithin is AppendCompress kept only within max bytes: it
// returns the extended dst and true when c's output for src is at most
// max bytes long, and dst unextended and false otherwise. A codec that
// does not implement BoundedAppender runs the whole encode, then checks
// the length.
func AppendCompressWithin(c Codec, dst, src []byte, max int) ([]byte, bool) {
	if b, ok := c.(BoundedAppender); ok {
		return b.AppendCompressWithin(dst, src, max)
	}
	out := AppendCompress(c, dst, src)
	if len(out)-len(dst) > max {
		return dst, false
	}
	return out, true
}

// DecompressAppender is the read-side twin of Appender: DecompressAppend
// appends the decompressed form of src to dst (usually a pooled buffer
// passed as buf[:0]) and returns the extended slice, which may be a
// reallocation of dst. Appended bytes are identical to Decompress, and
// the same stream validation applies. All codecs in this repository
// implement it with pooled decode scratch, so a steady-state
// decompression allocates nothing beyond (at most) one growth of dst.
type DecompressAppender interface {
	DecompressAppend(dst, src []byte, origLen int) ([]byte, error)
}

// DecompressAppend decompresses src with c, appending to dst when c
// implements DecompressAppender and falling back to Decompress (plus a
// copy into dst) otherwise. On error dst is returned unextended.
func DecompressAppend(c Codec, dst, src []byte, origLen int) ([]byte, error) {
	if da, ok := c.(DecompressAppender); ok {
		return da.DecompressAppend(dst, src, origLen)
	}
	out, err := c.Decompress(src, origLen)
	if err != nil {
		return dst, err
	}
	return append(dst, out...), nil
}

// none is the write-through pseudo-codec (tag 0).
type none struct{}

func (none) Name() string { return "none" }
func (none) Tag() Tag     { return TagNone }
func (none) Compress(src []byte) []byte {
	out := make([]byte, len(src))
	copy(out, src)
	return out
}
func (none) AppendCompress(dst, src []byte) []byte { return append(dst, src...) }
func (none) Decompress(src []byte, origLen int) ([]byte, error) {
	if len(src) != origLen {
		return nil, ErrSizeMismatch
	}
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}
func (none) DecompressAppend(dst, src []byte, origLen int) ([]byte, error) {
	if len(src) != origLen {
		return dst, ErrSizeMismatch
	}
	return append(dst, src...), nil
}

// None is the shared write-through codec instance.
var None Codec = none{}

// Registry maps tags to codecs. The package-level default registry is
// populated by the codec packages' init functions (and always contains
// None); independent registries can be created for tests.
type Registry struct {
	mu     sync.RWMutex
	byTag  [MaxTag + 1]Codec
	byName map[string]Codec
}

// NewRegistry returns a registry pre-populated with the None codec.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]Codec)}
	r.byTag[TagNone] = None
	r.byName[None.Name()] = None
	return r
}

// Register adds c to the registry. It fails if the tag or name is taken.
func (r *Registry) Register(c Codec) error {
	if c.Tag() > MaxTag {
		return fmt.Errorf("compress: tag %d exceeds 3 bits", c.Tag())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byTag[c.Tag()] != nil {
		return fmt.Errorf("%w: tag %d", ErrTagInUse, c.Tag())
	}
	if _, ok := r.byName[c.Name()]; ok {
		return fmt.Errorf("%w: name %q", ErrTagInUse, c.Name())
	}
	r.byTag[c.Tag()] = c
	r.byName[c.Name()] = c
	return nil
}

// ByTag looks a codec up by tag.
func (r *Registry) ByTag(t Tag) (Codec, error) {
	if t > MaxTag {
		return nil, ErrUnknownTag
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := r.byTag[t]
	if c == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownTag, t)
	}
	return c, nil
}

// ByName looks a codec up by name.
func (r *Registry) ByName(name string) (Codec, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTag, name)
	}
	return c, nil
}

// Names returns the registered codec names (unspecified order).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	return out
}

// defaultRegistry is populated by codec package init functions.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// MustRegister registers c in the default registry and panics on
// conflict. It is intended for codec package init functions.
func MustRegister(c Codec) {
	if err := defaultRegistry.Register(c); err != nil {
		panic(err)
	}
}

// Ratio returns origLen/compLen as defined in the paper (original size
// divided by compressed size; higher is better). A non-positive compLen
// yields 0.
func Ratio(origLen, compLen int) float64 {
	if compLen <= 0 {
		return 0
	}
	return float64(origLen) / float64(compLen)
}

// MatchLen returns how many leading bytes src[a:] and src[b:] share, up
// to limit, comparing eight bytes at a time; a < b and b+limit <=
// len(src). The LZ match finders (lzf, gz) extend candidates with it.
func MatchLen(src []byte, a, b, limit int) int {
	l := 0
	for l+8 <= limit {
		if x := binary.LittleEndian.Uint64(src[a+l:]) ^ binary.LittleEndian.Uint64(src[b+l:]); x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
		l += 8
	}
	for l < limit && src[a+l] == src[b+l] {
		l++
	}
	return l
}

// Frame format
//
// A frame is a self-describing compressed blob used by the CLI tools and
// round-trip tests (the block store itself keeps tag/size in its mapping
// table instead and stores raw codec output):
//
//	offset size  field
//	0      4     magic "EDCF"
//	4      1     tag
//	5      4     original length (LE)
//	9      4     payload length (LE)
//	13     4     CRC32 (IEEE) of payload
//	17     n     payload
const (
	frameMagic      = "EDCF"
	frameHeaderSize = 17
)

// EncodeFrame compresses src with c and wraps it in a frame.
func EncodeFrame(c Codec, src []byte) []byte {
	payload := c.Compress(src)
	out := make([]byte, frameHeaderSize+len(payload))
	copy(out, frameMagic)
	out[4] = byte(c.Tag())
	binary.LittleEndian.PutUint32(out[5:], uint32(len(src)))
	binary.LittleEndian.PutUint32(out[9:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[13:], crc32.ChecksumIEEE(payload))
	copy(out[frameHeaderSize:], payload)
	return out
}

// DecodeFrame validates and decompresses a frame using reg.
func DecodeFrame(reg *Registry, frame []byte) ([]byte, error) {
	if len(frame) < frameHeaderSize || string(frame[:4]) != frameMagic {
		return nil, ErrCorrupt
	}
	tag := Tag(frame[4])
	origLen := int(binary.LittleEndian.Uint32(frame[5:]))
	payLen := int(binary.LittleEndian.Uint32(frame[9:]))
	sum := binary.LittleEndian.Uint32(frame[13:])
	if payLen != len(frame)-frameHeaderSize {
		return nil, ErrCorrupt
	}
	payload := frame[frameHeaderSize:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checksum", ErrCorrupt)
	}
	c, err := reg.ByTag(tag)
	if err != nil {
		return nil, err
	}
	out, err := c.Decompress(payload, origLen)
	if err != nil {
		return nil, err
	}
	if len(out) != origLen {
		return nil, ErrSizeMismatch
	}
	return out, nil
}
