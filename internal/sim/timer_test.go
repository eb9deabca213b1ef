package sim

import (
	"testing"
	"time"
)

// TestTimerArmOnce: a second Arm while a tick is queued queues nothing,
// and a nil timer is off.
func TestTimerArmOnce(t *testing.T) {
	e := NewEngine()
	tm := NewTimer(e, 10*time.Millisecond, func() bool { return true })
	tm.Arm()
	tm.Arm()
	if e.Pending() != 1 {
		t.Fatalf("two arms queued %d events, want 1", e.Pending())
	}
	var off *Timer
	off.Arm() // must not panic
}

// TestTimerRearmsWhilePending: a tick re-arms only while other work is
// queued, and the tick's own verdict can stop it earlier.
func TestTimerRearmsWhilePending(t *testing.T) {
	e := NewEngine()
	e.Schedule(25*time.Millisecond, func() {})
	e.Schedule(55*time.Millisecond, func() {})
	var ticks []time.Duration
	tm := NewTimer(e, 10*time.Millisecond, func() bool {
		ticks = append(ticks, e.Now())
		return true
	})
	tm.Arm()
	e.Run()
	// Ticks at 10..50 see the 55 ms event pending; the one at 60 sees
	// nothing and disarms.
	if len(ticks) != 6 || ticks[5] != 60*time.Millisecond {
		t.Fatalf("ticks at %v, want six, the last at 60ms", ticks)
	}

	e = NewEngine()
	e.Schedule(time.Second, func() {})
	n := 0
	tm = NewTimer(e, 10*time.Millisecond, func() bool { n++; return n < 3 })
	tm.Arm()
	e.Run()
	if n != 3 {
		t.Fatalf("a tick returning false ran %d ticks, want 3", n)
	}
}

// TestTimerArmAfterDisarm: once a timer has disarmed itself, a later
// Arm (as a serve shard's next batch does) brings it back.
func TestTimerArmAfterDisarm(t *testing.T) {
	e := NewEngine()
	n := 0
	tm := NewTimer(e, 10*time.Millisecond, func() bool { n++; return true })
	tm.Arm()
	e.Run()
	if n != 1 || e.Pending() != 0 {
		t.Fatalf("idle engine: %d ticks, %d events left, want 1 and 0", n, e.Pending())
	}
	e.Schedule(e.Now()+15*time.Millisecond, func() {})
	tm.Arm()
	if e.Pending() != 2 {
		t.Fatalf("re-arm queued %d events with the work, want 2", e.Pending())
	}
	e.Run()
	if n != 3 {
		t.Fatalf("re-armed timer ran %d ticks in all, want 3", n)
	}
}

// TestTimersStopTogether: a checkpoint timer and a maintenance timer on
// one engine do not keep each other alive; both stop once only they
// remain.
func TestTimersStopTogether(t *testing.T) {
	e := NewEngine()
	e.Schedule(30*time.Millisecond, func() {})
	var ckpt, maint int
	NewTimer(e, 7*time.Millisecond, func() bool { ckpt++; return true }).Arm()
	NewTimer(e, 10*time.Millisecond, func() bool { maint++; return true }).Arm()
	for steps := 0; e.Step(); steps++ {
		if steps > 100 {
			t.Fatalf("timers still running at %v: they keep each other alive", e.Now())
		}
	}
	// Ticks before the 30 ms event re-arm; the first one after it (the
	// maintenance tick at 30 ms runs after the older event) stops.
	if ckpt != 5 || maint != 3 {
		t.Fatalf("checkpoint ticks %d, maintenance ticks %d, want 5 and 3", ckpt, maint)
	}
}
