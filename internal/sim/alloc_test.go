package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"edc/internal/race"
)

// TestScheduleAllocs pins the event loop's steady-state allocation
// behaviour: once the heap and the lane have reached their high-water
// marks, a schedule/Step cycle must not allocate (the container/heap
// version boxed one interface value per push and one per pop, and
// housekeeping events once wrapped their fn in a closure). Priority
// events are scheduled both in stamp order (the lane) and in reverse
// (all but the first go to the heap).
func TestScheduleAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs allocation counts")
	}
	fn := func() {}
	for _, c := range []struct {
		name  string
		sched func(e *Engine, i int)
	}{
		{"plain", func(e *Engine, i int) { e.Schedule(e.Now()+time.Duration(i), fn) }},
		{"priority", func(e *Engine, i int) { e.SchedulePriority(e.Now()+time.Duration(i), fn) }},
		{"priority/reversed", func(e *Engine, i int) { e.SchedulePriority(e.Now()+time.Duration(64-i), fn) }},
		{"housekeeping", func(e *Engine, i int) { e.ScheduleHousekeepingAfter(time.Duration(i), fn) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			cycle := func() {
				for i := 0; i < 64; i++ {
					c.sched(e, i)
				}
				e.Run()
			}
			cycle() // reach the high-water mark; Run keeps the capacity
			if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
				t.Errorf("schedule/Run cycle: %v allocs/op, want 0", allocs)
			}
		})
	}
}

// TestEventSize: the housekeeping bit sits in pri's padding, so an
// event stays four words.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Fatalf("event is %d bytes, want 32", n)
	}
}

// BenchmarkEngineServeBatch times one serve batch on the engine: 256
// priority arrivals, each scheduling one plain completion 0-63 ns
// later, then RunUntil the newest stamp (completions past it run in the
// next batch, as in serve). ordered: stamps ascend, so arrivals take
// the lane; unordered: the same stamps shuffled, so most go to the
// heap. ns/op is per batch.
func BenchmarkEngineServeBatch(b *testing.B) {
	const batch = 256
	rng := rand.New(rand.NewSource(1))
	stamps := make([]time.Duration, batch)
	for i := range stamps {
		stamps[i] = time.Duration(i * 16)
	}
	shuffled := slices.Clone(stamps)
	rng.Shuffle(batch, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	service := make([]time.Duration, batch)
	for i := range service {
		service[i] = time.Duration(rng.Intn(64))
	}
	for _, c := range []struct {
		name   string
		stamps []time.Duration
	}{{"ordered", stamps}, {"unordered", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			e := NewEngine()
			done := func() {}
			k := 0
			arrive := func() {
				e.ScheduleAfter(service[k%batch], done)
				k++
			}
			b.ReportAllocs()
			for range b.N {
				base := e.Now()
				for _, s := range c.stamps {
					e.SchedulePriority(base+s, arrive)
				}
				e.RunUntil(base + stamps[batch-1])
			}
		})
	}
}
