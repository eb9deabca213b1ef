package lzf

import (
	"testing"

	"edc/internal/compress/codectest"
)

func FuzzDecompress(f *testing.F) { codectest.FuzzDecompressDiff(f, New(), refCodec{}) }
func FuzzRoundTrip(f *testing.F)  { codectest.FuzzRoundTrip(f, New()) }
