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
		line = strconv.AppendFloat(line, r.Arrival.Seconds(), 'f', 6, 64)
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
