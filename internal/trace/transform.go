package trace

import (
	"fmt"
	"time"
)

// Transforms for replay studies: accelerate or decelerate a trace. A
// transform returns a new trace and leaves the input intact.

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
