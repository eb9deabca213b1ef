package codectest

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"edc/internal/datagen"
)

// canary fills everything a decode must leave alone.
const canary = 0xA5

// intact reports whether every byte of b is still the canary.
func intact(b []byte) bool {
	for _, v := range b {
		if v != canary {
			return false
		}
	}
	return true
}

// layout is one dst a decode is tried into: a prefix, exactly origLen
// bytes after it, and spare capacity past those.
type layout struct{ prefix, spare int }

// tight is the layout with the least room for error; layouts adds an
// empty dst and one with a kilobyte to spare.
var (
	tight   = []layout{{3, 0}}
	layouts = []layout{{0, 0}, {3, 0}, {3, 1024}}
)

// DiffDecode decodes stream to origLen bytes with c and with ref and
// returns how c departs from ref, or "" when it does not. c runs three
// times, into a buffer filled with 0xA5: from an empty dst with exactly
// origLen bytes of capacity, after a three-byte prefix with exactly
// origLen more, and after the prefix with a kilobyte to spare. Each time
// it must return ref's error, and on error dst as it was passed; on
// success ref's bytes after the untouched prefix, in place; and either
// way leave every byte beyond dst[len(dst):len(dst)+origLen] as it was.
func DiffDecode(c, ref Reference, stream []byte, origLen int) string {
	return diffDecode(c, ref, stream, origLen, layouts)
}

func diffDecode(c, ref Reference, stream []byte, origLen int, into []layout) string {
	room := max(origLen, 0)
	for _, l := range into {
		want, wantErr := ref.DecompressAppend(bytes.Repeat([]byte{canary}, l.prefix), stream, origLen)
		buf := bytes.Repeat([]byte{canary}, l.prefix+room+l.spare)
		got, gotErr := c.DecompressAppend(buf[:l.prefix], stream, origLen)
		where := fmt.Sprintf("stream %d B, origLen %d, prefix %d B, %d B spare", len(stream), origLen, l.prefix, l.spare)
		switch {
		case gotErr != wantErr:
			return fmt.Sprintf("%s: error %v, reference %v", where, gotErr, wantErr)
		case !bytes.Equal(got, want):
			return fmt.Sprintf("%s: %d B differ from the reference's %d B", where, len(got), len(want))
		case len(got) > 0 && &got[0] != &buf[0]:
			return fmt.Sprintf("%s: dst was reallocated though its capacity sufficed", where)
		case gotErr != nil && len(got) != l.prefix:
			return fmt.Sprintf("%s: dst came back %d B long after an error", where, len(got))
		case !intact(buf[:l.prefix]):
			return fmt.Sprintf("%s: the dst prefix was written", where)
		case !intact(buf[l.prefix+room:]):
			return fmt.Sprintf("%s: bytes past dst[len:len+origLen] were written", where)
		}
	}
	return ""
}

// DiffZoneSweep aims damage at the two ends of stream, where a decoder
// that runs a fast zone and a careful tail hands over, and returns the
// first departure of c from ref (as DiffDecode, after a prefix and with
// no capacity to spare), or "": every truncation
// within 300 bytes of either end; origLen off by one, about a word and
// about a longest match either way; and substitutions of each of the
// last 300 bytes — every other value when everyValue is set, else each
// single-bit flip and four random values.
func DiffZoneSweep(c, ref Reference, stream []byte, origLen int, everyValue bool) string {
	try := func(what string, s []byte, n int) string {
		if d := diffDecode(c, ref, s, n, tight); d != "" {
			return what + ": " + d
		}
		return ""
	}
	const reach = 300
	for cut := 0; cut < len(stream); cut++ {
		if cut > reach && cut < len(stream)-reach {
			cut = len(stream) - reach
		}
		if d := try(fmt.Sprintf("truncated to %d B", cut), stream[:cut], origLen); d != "" {
			return d
		}
	}
	for _, off := range []int{1, 7, 8, 9, 263, 264, 265} {
		for _, n := range []int{origLen - off, origLen + off} {
			if d := try("wrong origLen", stream, n); d != "" {
				return d
			}
		}
	}
	rng := rand.New(rand.NewSource(24))
	bad := append([]byte(nil), stream...)
	for at := max(0, len(bad)-reach); at < len(bad); at++ {
		old := bad[at]
		var values []byte
		if everyValue {
			for v := 1; v < 256; v++ {
				values = append(values, old^byte(v))
			}
		} else {
			for bit := 0; bit < 8; bit++ {
				values = append(values, old^1<<bit)
			}
			for k := 0; k < 4; k++ {
				values = append(values, old^byte(1+rng.Intn(255)))
			}
		}
		for _, v := range values {
			bad[at] = v
			if d := try(fmt.Sprintf("byte %d of %d set to %#02x", at, len(bad), v), bad, origLen); d != "" {
				return d
			}
		}
		bad[at] = old
	}
	return ""
}

// RunZoneBoundaries runs DiffZoneSweep over c's own streams for text, a
// region of binary records and a zero page — dense short tokens, longer
// matches and maximal runs at distance one — at 2 KiB, where the text
// stream is small enough to try every value at every swept byte, and at
// the 16 and 64 KiB the read path decodes.
func RunZoneBoundaries(t *testing.T, c, ref Reference) {
	t.Helper()
	sources := []struct {
		name   string
		gen    *datagen.Generator
		region int64
	}{
		{"text", datagen.New(datagen.LinuxSrc(), 7), 0},
		{"binary", datagen.New(datagen.Enterprise(), 7), 4},
		{"zero", datagen.New(datagen.Enterprise(), 7), 15},
	}
	for _, n := range []int{2 << 10, 16 << 10, 64 << 10} {
		for i, s := range sources {
			if n == 64<<10 && (i > 0 || testing.Short()) {
				continue // one long stream is enough: the hand-over does not move
			}
			src := s.gen.Block(s.region<<16, n, 0)
			stream := c.AppendCompress(nil, src)
			if len(stream) >= n {
				t.Fatalf("%s, %d B: compressed to %d B: the sweep needs tokens, not a stored copy", s.name, n, len(stream))
			}
			if d := DiffZoneSweep(c, ref, stream, n, n == 2<<10 && i == 0); d != "" {
				t.Fatalf("%s, %d B: %s", s.name, n, d)
			}
		}
	}
}

// RunCatchesMutation shows a sweep has teeth: with the fault seed plants
// in the product it must report a difference, and none once undo has
// taken the fault out again. sweep returns the first difference or "".
func RunCatchesMutation(t *testing.T, sweep func() string, seed func() (undo func())) {
	t.Helper()
	undo := seed()
	d := sweep()
	undo()
	if d == "" {
		t.Fatal("seeded mutation not caught")
	}
	t.Logf("caught: %s", d)
	if d := sweep(); d != "" {
		t.Fatalf("still differs after the mutation was undone: %s", d)
	}
}
