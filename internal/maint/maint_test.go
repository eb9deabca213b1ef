package maint

import (
	"testing"
	"time"
)

func TestEpoch(t *testing.T) {
	el := 250 * time.Millisecond
	cases := []struct {
		now  time.Duration
		want int64
	}{
		{0, 0},
		{249 * time.Millisecond, 0},
		{250 * time.Millisecond, 1},
		{time.Second, 4},
		{time.Second + 249*time.Millisecond, 4},
	}
	for _, c := range cases {
		if got := Epoch(c.now, el); got != c.want {
			t.Errorf("Epoch(%v) = %d, want %d", c.now, got, c.want)
		}
	}
	if got := Epoch(time.Hour, 0); got != 0 {
		t.Errorf("Epoch with zero epochLen = %d, want 0", got)
	}
}

// Epoch rollover: hits accumulated in one epoch halve per epoch of
// inactivity and the recency clock advances with the touch.
func TestHeatEpochRollover(t *testing.T) {
	var h Heat
	for i := 0; i < 8; i++ {
		h.Touch(3)
	}
	if got := h.Hits(3); got != 8 {
		t.Fatalf("hits in epoch 3 = %d, want 8", got)
	}
	if got := h.IdleFor(3); got != 0 {
		t.Fatalf("IdleFor same epoch = %d, want 0", got)
	}
	// One epoch later: halved, idle for one.
	if got := h.Hits(4); got != 4 {
		t.Errorf("hits one epoch later = %d, want 4", got)
	}
	if got := h.IdleFor(4); got != 1 {
		t.Errorf("IdleFor one epoch later = %d, want 1", got)
	}
	// Three epochs later: 8 >> 3 == 1.
	if got := h.Hits(6); got != 1 {
		t.Errorf("hits three epochs later = %d, want 1", got)
	}
	// A touch after the gap decays first, then counts itself.
	h.Touch(6)
	if got := h.Hits(6); got != 2 {
		t.Errorf("hits after touch at 6 = %d, want 2", got)
	}
	// Far future: fully cold, idle reflects the last touch epoch.
	if got := h.Hits(100); got != 0 {
		t.Errorf("hits at epoch 100 = %d, want 0", got)
	}
	if got := h.IdleFor(100); got != 94 {
		t.Errorf("IdleFor(100) = %d, want 94", got)
	}
}

// A never-touched extent reports the whole epoch count as idle, so
// recovered mappings look cold immediately.
func TestHeatZeroValueIsCold(t *testing.T) {
	var h Heat
	if got := h.Hits(10); got != 0 {
		t.Errorf("zero-value hits = %d, want 0", got)
	}
	if got := h.IdleFor(10); got != 10 {
		t.Errorf("zero-value IdleFor(10) = %d, want 10", got)
	}
}

// Decay ordering: an extent touched more recently must never report
// fewer decayed hits than the same access count touched earlier.
func TestHeatDecayOrdering(t *testing.T) {
	var old, recent Heat
	for i := 0; i < 6; i++ {
		old.Touch(0)
		recent.Touch(2)
	}
	for epoch := int64(2); epoch < 12; epoch++ {
		if old.Hits(epoch) > recent.Hits(epoch) {
			t.Fatalf("epoch %d: older extent hotter (%d > %d)",
				epoch, old.Hits(epoch), recent.Hits(epoch))
		}
	}
	// And strictly cooler somewhere in between.
	if old.Hits(3) >= recent.Hits(3) {
		t.Errorf("epoch 3: old=%d want < recent=%d", old.Hits(3), recent.Hits(3))
	}
}

func TestHeatSaturation(t *testing.T) {
	var h Heat
	for i := 0; i < maxHits*2; i++ {
		h.Touch(0)
	}
	if got := h.Hits(0); got != maxHits {
		t.Errorf("saturated hits = %d, want %d", got, maxHits)
	}
}

func TestHistBucket(t *testing.T) {
	cases := []struct {
		hits uint16
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {500, 4}}
	for _, c := range cases {
		if got := HistBucket(c.hits); got != c.want {
			t.Errorf("HistBucket(%d) = %d, want %d", c.hits, got, c.want)
		}
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	c := Config{}.Normalize()
	want := Config{Interval: 100 * time.Millisecond, IdleIOPS: 300, EpochLen: 250 * time.Millisecond, ColdEpochs: 4}
	if c != want {
		t.Fatalf("defaults %+v, want %+v", c, want)
	}
	// Explicit values survive normalization.
	set := Config{Interval: time.Second, IdleIOPS: 1, EpochLen: time.Millisecond, ColdEpochs: 9}
	if got := set.Normalize(); got != set {
		t.Fatalf("explicit fields overwritten: %+v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
	for _, bad := range []Config{
		{Interval: -1}, {EpochLen: -1}, {IdleIOPS: -1}, {ColdEpochs: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", bad)
		}
	}
}
