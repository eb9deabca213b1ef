package codectest

import (
	"bytes"
	"fmt"

	"edc/internal/compress"
)

// DiffWithin checks one budgeted encode: compress.AppendCompressWithin(c,
// dst, src, max) must return want (c's AppendCompress output for src)
// appended to dst and true when len(want) <= max, and dst unextended with
// its bytes as they were and false otherwise — into an empty dst and
// after a prefix. It returns "" or what differed.
func DiffWithin(c compress.Codec, src, want []byte, max int) string {
	fits := len(want) <= max
	for _, pre := range [][]byte{nil, {0xde, 0xad, 0xbe}} {
		dst := append([]byte(nil), pre...)
		got, ok := compress.AppendCompressWithin(c, dst, src, max)
		switch {
		case ok != fits:
			return fmt.Sprintf("%d B in, %d B out, budget %d: reported %v", len(src), len(want), max, ok)
		case !bytes.Equal(got[:min(len(got), len(pre))], pre):
			return fmt.Sprintf("%d B in, budget %d: the %d-byte prefix changed", len(src), max, len(pre))
		case ok && !bytes.Equal(got[len(pre):], want):
			return fmt.Sprintf("%d B in, budget %d: %d B out, AppendCompress gives %d B or other bytes", len(src), max, len(got)-len(pre), len(want))
		case !ok && len(got) != len(pre):
			return fmt.Sprintf("%d B in, budget %d: over budget, yet dst grew from %d to %d B", len(src), max, len(pre), len(got))
		}
	}
	return ""
}
