package trace

import (
	"fmt"
	"time"
)

// Transforms for replay studies: accelerate or decelerate a trace, slice
// windows out of it, restrict it to one operation type, or concatenate
// phases. All transforms return new traces and leave the input intact.

// scaled is int64(v·factor), or false when the product does not fit an
// int64 (a bare conversion would return an arbitrary value).
func scaled(v int64, factor float64) (int64, bool) {
	p := float64(v) * factor
	if !(p >= -1<<63 && p < 1<<63) {
		return 0, false
	}
	return int64(p), true
}

// ScaleTime multiplies every arrival time by factor (< 1 accelerates the
// trace, raising its intensity; > 1 stretches it). factor must be
// positive, and every scaled arrival must fit a time.Duration.
func (t *Trace) ScaleTime(factor float64) (*Trace, error) {
	if !(factor > 0) {
		return nil, fmt.Errorf("trace: ScaleTime factor %v must be positive", factor)
	}
	out := &Trace{Name: t.Name, Requests: make([]Request, len(t.Requests))}
	for i, r := range t.Requests {
		at, ok := scaled(int64(r.Arrival), factor)
		if !ok {
			return nil, fmt.Errorf("trace: ScaleTime factor %v: request %d's arrival %v scales out of range", factor, i+1, r.Arrival)
		}
		r.Arrival = time.Duration(at)
		out.Requests[i] = r
	}
	return out, nil
}

// Window returns the requests with from <= Arrival < to, rebased so the
// first kept request arrives at its offset from `from`.
func (t *Trace) Window(from, to time.Duration) *Trace {
	out := &Trace{Name: t.Name}
	for _, r := range t.Requests {
		if r.Arrival >= from && r.Arrival < to {
			r.Arrival -= from
			out.Requests = append(out.Requests, r)
		}
	}
	return out
}

// FilterOps keeps only reads, only writes, or both.
func (t *Trace) FilterOps(keepReads, keepWrites bool) *Trace {
	out := &Trace{Name: t.Name}
	for _, r := range t.Requests {
		if (r.Write && keepWrites) || (!r.Write && keepReads) {
			out.Requests = append(out.Requests, r)
		}
	}
	return out
}

// Concat appends other after t, shifting other's arrivals past t's last
// arrival by gap.
func (t *Trace) Concat(other *Trace, gap time.Duration) *Trace {
	out := &Trace{Name: t.Name, Requests: append([]Request(nil), t.Requests...)}
	base := t.Duration() + gap
	for _, r := range other.Requests {
		r.Arrival += base
		out.Requests = append(out.Requests, r)
	}
	return out
}

// ScaleOffsets multiplies offsets by factor and realigns them to `align`
// bytes — shrinking or spreading the footprint to fit a different
// volume. factor must be positive, every scaled offset must fit an int64,
// and align must be a power of two.
func (t *Trace) ScaleOffsets(factor float64, align int64) (*Trace, error) {
	if !(factor > 0) {
		return nil, fmt.Errorf("trace: ScaleOffsets factor %v must be positive", factor)
	}
	if align <= 0 || align&(align-1) != 0 {
		return nil, fmt.Errorf("trace: align %d must be a positive power of two", align)
	}
	out := &Trace{Name: t.Name, Requests: make([]Request, len(t.Requests))}
	for i, r := range t.Requests {
		off, ok := scaled(r.Offset, factor)
		if !ok {
			return nil, fmt.Errorf("trace: ScaleOffsets factor %v: request %d's offset %d scales out of range", factor, i+1, r.Offset)
		}
		r.Offset = off &^ (align - 1)
		out.Requests[i] = r
	}
	return out, nil
}
