package gz

import (
	"testing"

	"edc/internal/compress/codectest"
)

func FuzzCompress(f *testing.F)   { codectest.FuzzCompressDiff(f, New(), refCodec{}) }
func FuzzDecompress(f *testing.F) { codectest.FuzzDecompressDiff(f, New(), refCodec{}) }
func FuzzRoundTrip(f *testing.F)  { codectest.FuzzRoundTrip(f, New()) }
