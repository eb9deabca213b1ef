// Package trace defines the block-level I/O trace model used throughout
// EDC and parsers/writers for the two public trace formats the paper
// replays: the Storage Performance Council ("financial"/OLTP) ASCII
// format and the MSR Cambridge CSV format. Real trace files drop in
// unchanged; the synthetic generators in internal/workload produce the
// same Trace type.
package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SectorSize is the logical sector unit used by SPC traces.
const SectorSize = 512

// Request is one block-level I/O.
type Request struct {
	// Arrival is the request's issue time relative to trace start.
	Arrival time.Duration
	// Offset is the byte offset on the logical volume.
	Offset int64
	// Size is the transfer length in bytes.
	Size int64
	// Write distinguishes writes from reads.
	Write bool
	// Tenant optionally names the submitting tenant for multi-tenant
	// QoS. Empty means untagged: the request is treated exactly as
	// before tenancy existed, and writers emit the pre-tenant record
	// format byte for byte.
	Tenant string
}

// Trace is an ordered sequence of requests plus identification metadata.
type Trace struct {
	Name     string
	Requests []Request
}

// Duration returns the arrival time of the last request.
func (t *Trace) Duration() time.Duration {
	if len(t.Requests) == 0 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].Arrival
}

// Stats summarizes a trace (the paper's Table II columns).
type Stats struct {
	Requests   int
	ReadRatio  float64 // fraction of requests that are reads
	AvgSize    float64 // bytes
	AvgIOPS    float64 // requests / second over the trace duration
	WriteBytes int64
	ReadBytes  int64
	MaxOffset  int64 // highest byte touched (volume footprint)
}

// Stats computes summary statistics.
func (t *Trace) Stats() Stats {
	var s Stats
	s.Requests = len(t.Requests)
	if s.Requests == 0 {
		return s
	}
	reads := 0
	var sizeSum int64
	for _, r := range t.Requests {
		sizeSum += r.Size
		if r.Write {
			s.WriteBytes += r.Size
		} else {
			reads++
			s.ReadBytes += r.Size
		}
		if end := r.Offset + r.Size; end > s.MaxOffset {
			s.MaxOffset = end
		}
	}
	s.ReadRatio = float64(reads) / float64(s.Requests)
	s.AvgSize = float64(sizeSum) / float64(s.Requests)
	if d := t.Duration(); d > 0 {
		s.AvgIOPS = float64(s.Requests) / d.Seconds()
	}
	return s
}

// SortByArrival orders requests by arrival time (stable). A trace that
// is already in order — every generated one, and most real ones — is left
// as it is after one pass.
func (t *Trace) SortByArrival() {
	byArrival := func(i, j int) bool {
		return t.Requests[i].Arrival < t.Requests[j].Arrival
	}
	if !sort.SliceIsSorted(t.Requests, byArrival) {
		sort.SliceStable(t.Requests, byArrival)
	}
}

// Clip returns a copy containing at most n requests.
func (t *Trace) Clip(n int) *Trace {
	if n > len(t.Requests) {
		n = len(t.Requests)
	}
	out := &Trace{Name: t.Name, Requests: make([]Request, n)}
	copy(out.Requests, t.Requests[:n])
	return out
}

// ErrFormat reports an unparseable trace line.
var ErrFormat = errors.New("trace: malformed record")

// newLineScanner returns the scanner both parsers read records with.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return sc
}

// cutFields splits the leading comma-separated fields of line into
// fields, untrimmed, and returns what follows the comma after the last of
// them: nil when the line ends with that field. ok is false when the line
// has fewer fields than len(fields).
func cutFields(line []byte, fields [][]byte) (rest []byte, ok bool) {
	for i := range fields {
		if line == nil {
			return nil, false
		}
		if c := bytes.IndexByte(line, ','); c >= 0 {
			fields[i], line = line[:c], line[c+1:]
		} else {
			fields[i], line = line, nil
		}
	}
	return line, true
}

// lowerOp is strings.ToLower of a trimmed opcode or type field, without
// allocating for the spellings the two formats document.
func lowerOp(f []byte) string {
	switch f = bytes.TrimSpace(f); string(f) {
	case "r", "R":
		return "r"
	case "w", "W":
		return "w"
	case "Read":
		return "read"
	case "Write":
		return "write"
	}
	return strings.ToLower(string(f))
}

// parseInt parses a field that may be padded with spaces. (A field of
// ordinary length converts to a string on the stack, not the heap.)
func parseInt(f []byte) (int64, error) {
	return strconv.ParseInt(string(bytes.TrimSpace(f)), 10, 64)
}

// grow makes room for one more request, doubling a full slice: append's
// own growth drops to 1.25x for large slices, which re-copies a long trace
// five times over where doubling copies it twice.
func grow(reqs []Request) []Request {
	if len(reqs) < cap(reqs) {
		return reqs
	}
	return slices.Grow(reqs, max(len(reqs), 256))
}

// intern returns b as a string, reusing *last when that already spells
// it: a tagged trace names a handful of tenants, usually in runs.
func intern(b []byte, last *string) string {
	if string(b) != *last {
		*last = string(b)
	}
	return *last
}

// ParseSPC reads the Storage Performance Council ASCII format used by the
// UMass financial (Fin1/Fin2) traces:
//
//	ASU,LBA,Size,Opcode,Timestamp[,...]
//
// where LBA counts 512-byte sectors, Size is in bytes, Opcode is r/R or
// w/W, and Timestamp is seconds from trace start. Extra trailing fields
// are ignored, except a "tenant=NAME" field (the extension WriteSPC
// emits for tagged requests), which sets Request.Tenant. A record whose
// timestamp does not fit a time.Duration, or whose byte range does not
// fit an int64, is malformed.
func ParseSPC(r io.Reader, name string) (*Trace, error) {
	sc := newLineScanner(r)
	t := &Trace{Name: name}
	var lastTenant string
	for lineNo := 1; sc.Scan(); lineNo++ {
		if r, ok := scanSPC(sc.Bytes()); ok {
			t.Requests = append(grow(t.Requests), r)
			continue
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var f [5][]byte // ASU, LBA, size, opcode, timestamp
		extras, ok := cutFields(line, f[:])
		if !ok {
			return nil, fmt.Errorf("%w: line %d: %q", ErrFormat, lineNo, line)
		}
		lba, err1 := parseInt(f[1])
		size, err2 := parseInt(f[2])
		ts, err3 := strconv.ParseFloat(string(bytes.TrimSpace(f[4])), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%w: line %d: %q", ErrFormat, lineNo, line)
		}
		op := lowerOp(f[3])
		if op != "r" && op != "w" {
			return nil, fmt.Errorf("%w: line %d: opcode %q", ErrFormat, lineNo, f[3])
		}
		if size <= 0 || lba < 0 || ts < 0 {
			return nil, fmt.Errorf("%w: line %d: negative field", ErrFormat, lineNo)
		}
		ns := ts * float64(time.Second)
		// Written so that a NaN timestamp fails it too.
		if !(ns < 1<<63) || lba > (math.MaxInt64-size)/SectorSize {
			return nil, fmt.Errorf("%w: line %d: timestamp or offset out of range", ErrFormat, lineNo)
		}
		tenant := ""
		for extras != nil {
			var extra [1][]byte
			extras, _ = cutFields(extras, extra[:])
			if v, ok := bytes.CutPrefix(bytes.TrimSpace(extra[0]), []byte("tenant=")); ok {
				tenant = intern(v, &lastTenant)
			}
		}
		t.Requests = append(grow(t.Requests), Request{
			Arrival: time.Duration(ns),
			Offset:  lba * SectorSize,
			Size:    size,
			Write:   op == "w",
			Tenant:  tenant,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	t.SortByArrival()
	return t, nil
}

// pow10[k] is 10^k, an exact float64 for every k a timestamp scanSPC
// takes can have.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// scanDigits reads the 1 to 18 decimal digits at line[i:] and the comma
// that must follow them, returning their value and the index past the
// comma. Eighteen digits cannot overflow an int64.
func scanDigits(line []byte, i int) (v int64, next int, ok bool) {
	j := i
	for ; j < len(line) && line[j]-'0' <= 9; j++ {
		if j-i == 18 {
			return 0, 0, false
		}
		v = v*10 + int64(line[j]-'0')
	}
	if j == i || j == len(line) || line[j] != ',' {
		return 0, 0, false
	}
	return v, j + 1, true
}

// scanSPC parses a canonical SPC record — digit-only ASU, LBA and size
// fields, a one-byte opcode, a plain decimal timestamp of at most 15
// digits, and nothing else: no padding, sign, exponent or further field —
// in one pass over its bytes. It reports false for every other line, and
// for a canonical record the per-field path would reject, so that path
// alone decides those lines' requests and error text.
//
// The timestamp is its digits m over 10^k, where k counts the digits after
// the point. Both are exact float64 values (m < 10^15 < 2^53), so their
// quotient is the correctly rounded value of the decimal, which is what
// strconv.ParseFloat returns (Clinger's exact case).
func scanSPC(line []byte) (Request, bool) {
	_, i, ok := scanDigits(line, 0) // ASU, which ParseSPC ignores
	if !ok {
		return Request{}, false
	}
	lba, i, ok := scanDigits(line, i)
	if !ok {
		return Request{}, false
	}
	size, i, ok := scanDigits(line, i)
	if !ok || i+2 >= len(line) || line[i+1] != ',' {
		return Request{}, false
	}
	var write bool
	switch line[i] {
	case 'w', 'W':
		write = true
	case 'r', 'R':
	default:
		return Request{}, false
	}
	var m uint64
	n, k := 0, -1 // digits read; digits after the point, -1 before it
	for _, c := range line[i+2:] {
		switch {
		case c-'0' <= 9:
			if n++; n > 15 {
				return Request{}, false
			}
			m = m*10 + uint64(c-'0')
			if k >= 0 {
				k++
			}
		case c == '.' && k < 0 && n > 0:
			k = 0
		default:
			return Request{}, false
		}
	}
	ns := float64(m) / pow10[max(k, 0)] * float64(time.Second)
	if size <= 0 || !(ns < 1<<63) || lba > (math.MaxInt64-size)/SectorSize {
		return Request{}, false
	}
	return Request{Arrival: time.Duration(ns), Offset: lba * SectorSize, Size: size, Write: write}, true
}

// appendSeconds appends the duration d in seconds with six decimals, the
// bytes of strconv.AppendFloat(dst, d.Seconds(), 'f', 6, 64), which with
// an explicit precision always takes strconv's multiprecision path.
//
// u = x·10⁶ is within half an ulp of the exact product. When u is below
// 2^53, where every integer is a float64, and its fraction is more than a
// few ulps from ½, u and the exact product round to the same integer, whose
// digits are the answer. A value near a half-microsecond tie, a negative
// one and one too large take strconv.
func appendSeconds(dst []byte, d time.Duration) []byte {
	x := d.Seconds()
	u := x * 1e6
	if u >= 0 && u < 1<<53 {
		n := math.Floor(u)
		if f := u - n - 0.5; math.Abs(f) > 0x1p-50*u {
			if f > 0 {
				n++
			}
			v := uint64(n)
			dst = strconv.AppendUint(dst, v/1e6, 10)
			frac := v % 1e6
			return append(dst, '.',
				byte('0'+frac/1e5), byte('0'+frac/1e4%10), byte('0'+frac/1e3%10),
				byte('0'+frac/1e2%10), byte('0'+frac/10%10), byte('0'+frac%10))
		}
	}
	return strconv.AppendFloat(dst, x, 'f', 6, 64)
}

// WriteSPC writes t in the SPC ASCII format (ASU fixed to 0). Tagged
// requests gain a trailing ",tenant=NAME" field; untagged requests emit
// the pre-tenant record byte for byte.
func WriteSPC(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	var line []byte // "0,%d,%d,%s,%.6f[,tenant=%s]\n", without fmt
	for _, r := range t.Requests {
		line = append(line[:0], "0,"...)
		line = strconv.AppendInt(line, r.Offset/SectorSize, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, r.Size, 10)
		if r.Write {
			line = append(line, ",w,"...)
		} else {
			line = append(line, ",r,"...)
		}
		line = appendSeconds(line, r.Arrival)
		if r.Tenant != "" {
			line = append(append(line, ",tenant="...), r.Tenant...)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxTicks is the longest MSR trace, in 100 ns ticks, whose arrivals fit
// a time.Duration.
const maxTicks = math.MaxInt64 / 100

// ParseMSR reads the MSR Cambridge CSV format:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp is in Windows FILETIME ticks (100 ns since 1601); Type is
// "Read" or "Write"; Offset and Size are bytes. Arrival times are rebased
// to the earliest record, wherever in the file it is, so the absolute
// epoch does not matter; a trace spanning more than a time.Duration
// (292 years) is malformed, as is a byte range that does not fit an
// int64. A Hostname other than the synthetic default "edc" (or empty)
// becomes Request.Tenant — MSR's host column is the natural place to
// carry the submitting stream's identity.
func ParseMSR(r io.Reader, name string) (*Trace, error) {
	sc := newLineScanner(r)
	t := &Trace{Name: name}
	var lastTenant string
	var base int64 = math.MaxInt64 // the earliest timestamp
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var f [6][]byte // timestamp, hostname, disk, type, offset, size
		if _, ok := cutFields(line, f[:]); !ok {
			return nil, fmt.Errorf("%w: line %d: %q", ErrFormat, lineNo, line)
		}
		ts, err1 := parseInt(f[0])
		off, err2 := parseInt(f[4])
		size, err3 := parseInt(f[5])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%w: line %d: %q", ErrFormat, lineNo, line)
		}
		var write bool
		switch lowerOp(f[3]) {
		case "write", "w":
			write = true
		case "read", "r":
			write = false
		default:
			return nil, fmt.Errorf("%w: line %d: type %q", ErrFormat, lineNo, f[3])
		}
		if size <= 0 || off < 0 {
			return nil, fmt.Errorf("%w: line %d: negative field", ErrFormat, lineNo)
		}
		if off > math.MaxInt64-size {
			return nil, fmt.Errorf("%w: line %d: offset out of range", ErrFormat, lineNo)
		}
		base = min(base, ts)
		tenant := ""
		if host := bytes.TrimSpace(f[1]); string(host) != "edc" {
			tenant = intern(host, &lastTenant)
		}
		t.Requests = append(grow(t.Requests), Request{
			Arrival: time.Duration(ts), // in ticks, until rebased below
			Offset:  off,
			Size:    size,
			Write:   write,
			Tenant:  tenant,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range t.Requests {
		// Exact even where the int64 difference would overflow, because
		// base is the minimum.
		ticks := uint64(t.Requests[i].Arrival) - uint64(base)
		if ticks > maxTicks {
			return nil, fmt.Errorf("%w: record %d: timestamp more than %v after the earliest",
				ErrFormat, i+1, time.Duration(maxTicks*100))
		}
		t.Requests[i].Arrival = time.Duration(ticks) * 100 * time.Nanosecond
	}
	t.SortByArrival()
	return t, nil
}

// WriteMSR writes t in the MSR CSV format. Tagged requests carry the
// tenant in the Hostname column; untagged requests keep the synthetic
// default "edc", emitting the pre-tenant record byte for byte.
func WriteMSR(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	var line []byte // "%d,%s,0,%s,%d,%d,0\n", without fmt
	for _, r := range t.Requests {
		line = strconv.AppendInt(line[:0], r.Arrival.Nanoseconds()/100, 10)
		line = append(line, ',')
		if r.Tenant != "" {
			line = append(line, r.Tenant...)
		} else {
			line = append(line, "edc"...)
		}
		if r.Write {
			line = append(line, ",0,Write,"...)
		} else {
			line = append(line, ",0,Read,"...)
		}
		line = strconv.AppendInt(line, r.Offset, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, r.Size, 10)
		line = append(line, ",0\n"...)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
