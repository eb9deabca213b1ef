package compress_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"

	"edc/internal/compress"
	"edc/internal/compress/bwz"
	"edc/internal/compress/codectest"
	"edc/internal/compress/gz"
	"edc/internal/compress/lz4x"
	"edc/internal/compress/lzf"
)

// boundedRegistry holds every shipped codec — none, lzf, gz, lz4 and
// bwz — each of whose decoders sizes its output by the input as well as
// by the frame header's origLen.
func boundedRegistry() *compress.Registry {
	reg := compress.NewRegistry()
	for _, c := range []compress.Codec{lzf.New(), gz.New(), lz4x.New(), bwz.New()} {
		if err := reg.Register(c); err != nil {
			panic(err)
		}
	}
	return reg
}

// frame hand-builds an EDCF frame: the header states origLen, which the
// checksum does not cover.
func frame(tag compress.Tag, origLen uint32, payload []byte) []byte {
	f := append([]byte("EDCF"), byte(tag))
	f = binary.LittleEndian.AppendUint32(f, origLen)
	f = binary.LittleEndian.AppendUint32(f, uint32(len(payload)))
	f = binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(payload))
	return append(f, payload...)
}

// hostileOrigLen is the length a hostile header claims: 3 840 MiB.
const hostileOrigLen = 0xF0000000

// TestHostileFrameAllocatesByInput decodes, per tag, a 19-byte frame
// whose header claims 3 840 MiB: the error is the one the claim always
// earned — a two-byte payload cannot be that long — and the decoders no
// longer reserve the claimed size to find it out.
func TestHostileFrameAllocatesByInput(t *testing.T) {
	reg := boundedRegistry()
	for _, tc := range []struct {
		name    string
		tag     compress.Tag
		payload []byte
		want    error
	}{
		{"none", compress.TagNone, []byte{'a', 'b'}, compress.ErrSizeMismatch},
		{"lzf", compress.TagLZF, []byte{0x00, 'a'}, compress.ErrSizeMismatch}, // one literal
		{"gz", compress.TagGZ, []byte{0x00, 0x00}, compress.ErrCorrupt},       // code lengths cut short
		{"gz-stored", compress.TagGZ, []byte{0x01, 'a'}, compress.ErrSizeMismatch},
		{"lz4", compress.TagLZ4, []byte{0x10, 'a'}, compress.ErrSizeMismatch}, // one literal
		{"bwz", compress.TagBWZ, []byte{0x00, 0x00}, compress.ErrCorrupt},     // primary index cut short
	} {
		f := frame(tc.tag, hostileOrigLen, tc.payload)
		stream := append(binary.LittleEndian.AppendUint32(nil, uint32(len(f))), f...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := compress.DecodeFrame(reg, f)
		_, errStream := compress.NewFrameReader(bytes.NewReader(stream), reg).ReadBlock()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.want) || !errors.Is(errStream, tc.want) {
			t.Errorf("%s: DecodeFrame %v, ReadBlock %v; want %v", tc.name, err, errStream, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: %d B allocated decoding a %d-byte frame twice; want under 1 MiB", tc.name, got, len(f))
		}
	}
}

// FuzzDecodeFrame drives DecodeFrame and FrameReader.ReadBlock with
// arbitrary bytes over the bounded registry: both must agree, a decode
// that succeeds has the header's length and survives re-framing, and
// nothing panics. The hostile frames above are seeds in testdata/fuzz.
func FuzzDecodeFrame(f *testing.F) {
	reg := boundedRegistry()
	for _, name := range []string{"none", "lzf", "gz", "lz4", "bwz"} {
		c, err := reg.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, src := range [][]byte{{}, []byte("abcabcabcabcabc"), codectest.Corpus()["text-4k"]} {
			f.Add(compress.EncodeFrame(c, src))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := compress.DecodeFrame(reg, data)
		stream := append(binary.LittleEndian.AppendUint32(nil, uint32(len(data))), data...)
		fr := compress.NewFrameReader(bytes.NewReader(stream), reg)
		outStream, errStream := fr.ReadBlock()
		if len(data) < 17 {
			// ReadBlock refuses a frame shorter than a header by its length
			// prefix, DecodeFrame by the frame itself.
			if err == nil || errStream == nil {
				t.Fatalf("%d-byte frame accepted", len(data))
			}
			return
		}
		if (err == nil) != (errStream == nil) || !bytes.Equal(out, outStream) {
			t.Fatalf("DecodeFrame %d B, %v; ReadBlock %d B, %v", len(out), err, len(outStream), errStream)
		}
		if err != nil {
			return
		}
		if want := binary.LittleEndian.Uint32(data[5:]); uint32(len(out)) != want {
			t.Fatalf("decoded %d B, header says %d", len(out), want)
		}
		if _, err := fr.ReadBlock(); err != io.EOF {
			t.Fatalf("after the frame: %v, want EOF", err)
		}
		c, _ := reg.ByTag(compress.Tag(data[4]))
		back, err := compress.DecodeFrame(reg, compress.EncodeFrame(c, out))
		if err != nil || !bytes.Equal(back, out) {
			t.Fatalf("re-framed content does not decode to itself: %v", err)
		}
	})
}
