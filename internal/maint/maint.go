// Package maint holds the policy side of background maintenance:
// per-extent heat tracking (epoch-decayed recency + frequency
// counters), the maintenance configuration, and a virtual-time
// scheduler that wakes periodically, asks the workload monitor whether
// the device is idle, and hands a bounded work budget to a step
// callback. The package is deliberately mechanism-free — it never
// touches extents, slots, or devices directly — so the simulator core
// can drive relocation and compaction through it without an import
// cycle, and tests can exercise the temperature policy in isolation.
package maint

import (
	"errors"
	"fmt"
	"time"
)

// Epoch maps a virtual timestamp onto the heat-epoch counter used by
// Heat: epoch k covers [k*epochLen, (k+1)*epochLen). A non-positive
// epochLen yields epoch 0 forever (heat never decays).
func Epoch(now, epochLen time.Duration) int64 {
	if epochLen <= 0 {
		return 0
	}
	return int64(now / epochLen)
}

// maxHits saturates the per-epoch frequency counter; past this an
// extent cannot get hotter, which keeps decay cheap (a shift) and the
// counter small enough to embed in every mapping entry.
const maxHits = 1 << 14

// Heat is a per-extent temperature counter combining recency (the last
// epoch the extent was touched) and frequency (an access count that
// halves for every epoch that passes without a touch). The zero value
// is fully cold. Heat is sized to embed directly in a mapping entry
// and is only mutated from the owning shard's event loop, so it needs
// no synchronization.
type Heat struct {
	epoch int64
	hits  uint16
}

// Touch records one access at the given epoch: prior hits decay by the
// number of epochs elapsed since the last touch, then the count
// increments (saturating).
func (h *Heat) Touch(epoch int64) {
	h.hits = h.decayed(epoch)
	h.epoch = epoch
	if h.hits < maxHits {
		h.hits++
	}
}

// Hits reports the decayed access count as of the given epoch without
// mutating the counter.
func (h *Heat) Hits(epoch int64) uint16 {
	return h.decayed(epoch)
}

// IdleFor reports how many whole epochs have passed since the last
// touch (zero if touched in the current epoch). A never-touched Heat
// reports the epoch itself, so freshly recovered extents look cold.
func (h *Heat) IdleFor(epoch int64) int64 {
	if epoch <= h.epoch {
		return 0
	}
	return epoch - h.epoch
}

// decayed halves hits once per elapsed epoch since the last touch.
func (h *Heat) decayed(epoch int64) uint16 {
	d := epoch - h.epoch
	if d <= 0 {
		return h.hits
	}
	if d >= 16 {
		return 0
	}
	return h.hits >> uint(d)
}

// HistBuckets is the number of buckets in the end-of-run heat
// histogram: decayed hit counts 0, 1, 2-3, 4-7, and 8+.
const HistBuckets = 5

// HistBucket maps a decayed hit count to its heat-histogram bucket
// index in [0, HistBuckets).
func HistBucket(hits uint16) int {
	switch {
	case hits == 0:
		return 0
	case hits == 1:
		return 1
	case hits <= 3:
		return 2
	case hits <= 7:
		return 3
	default:
		return 4
	}
}

// Config parameterizes background maintenance; a device handed none
// runs no maintenance. Normalize fills every zero field with the
// documented default so callers only set what they care about.
type Config struct {
	// Interval is the virtual-time cadence of maintenance ticks
	// (default 100ms). Every tick the scheduler samples workload
	// intensity; only idle ticks do work.
	Interval time.Duration `json:"interval,omitempty"`

	// IdleIOPS is the calculated-IOPS ceiling under which the device
	// counts as idle (default 300, the stock gz ceiling — if the
	// foreground would pick the heaviest codec anyway, background work
	// cannot be preempting anything that matters).
	IdleIOPS float64 `json:"idle_iops,omitempty"`

	// BudgetPerTick caps how many extent relocations one idle tick may
	// start (default 8), bounding the maintenance I/O burst a returning
	// foreground workload can collide with.
	BudgetPerTick int `json:"budget_per_tick,omitempty"`

	// EpochLen is the heat-epoch length (default 250ms): access counts
	// halve once per epoch of inactivity.
	EpochLen time.Duration `json:"epoch_len,omitempty"`

	// ColdEpochs is how many whole epochs an extent must sit untouched
	// before it is recompression-cold (default 4, i.e. one second at
	// the default EpochLen).
	ColdEpochs int64 `json:"cold_epochs,omitempty"`

	// HotHits is the decayed hit count at which an extent counts as
	// hot enough to demote to a cheaper codec (default 4).
	HotHits uint16 `json:"hot_hits,omitempty"`

	// ColdCodec names the codec cold lzf/none extents are recompressed
	// to (default "gz"; "bwz" trades more CPU for more space).
	ColdCodec string `json:"cold_codec,omitempty"`

	// HotCodec names the cheap codec hot gz/bwz extents are demoted to
	// (default "lzf"; demotion falls back to an uncompressed slot when
	// the cheap codec cannot fit a quantized slot).
	HotCodec string `json:"hot_codec,omitempty"`

	// CompactClasses is the free-list size-class count at which an idle
	// tick compacts the allocator, merging adjacent free slots (default
	// 12).
	CompactClasses int `json:"compact_classes,omitempty"`
}

// Normalize returns cfg with every zero tunable replaced by its
// default.
func (c Config) Normalize() Config {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.IdleIOPS <= 0 {
		c.IdleIOPS = 300
	}
	if c.BudgetPerTick <= 0 {
		c.BudgetPerTick = 8
	}
	if c.EpochLen <= 0 {
		c.EpochLen = 250 * time.Millisecond
	}
	if c.ColdEpochs <= 0 {
		c.ColdEpochs = 4
	}
	if c.HotHits == 0 {
		c.HotHits = 4
	}
	if c.ColdCodec == "" {
		c.ColdCodec = "gz"
	}
	if c.HotCodec == "" {
		c.HotCodec = "lzf"
	}
	if c.CompactClasses <= 0 {
		c.CompactClasses = 12
	}
	return c
}

// ErrBadConfig reports a maintenance configuration that cannot be
// normalized into something runnable.
var ErrBadConfig = errors.New("maint: invalid config")

// Validate rejects negative tunables that Normalize would otherwise
// silently replace; codec names are validated by the engine against
// its registry when the device is built.
func (c Config) Validate() error {
	if c.Interval < 0 || c.EpochLen < 0 {
		return fmt.Errorf("%w: negative interval", ErrBadConfig)
	}
	if c.IdleIOPS < 0 {
		return fmt.Errorf("%w: negative idle IOPS", ErrBadConfig)
	}
	if c.BudgetPerTick < 0 || c.ColdEpochs < 0 || c.CompactClasses < 0 {
		return fmt.Errorf("%w: negative budget", ErrBadConfig)
	}
	return nil
}

// Clock is the slice of the virtual-time engine the scheduler needs:
// the current time, timer scheduling, and whether any simulation work
// is still pending (so the scheduler can let the event loop drain).
type Clock interface {
	// Now reports the current virtual time.
	Now() time.Duration
	// ScheduleHousekeepingAfter runs fn after d of virtual time,
	// counting the timer as housekeeping (excluded from PendingWork).
	ScheduleHousekeepingAfter(d time.Duration, fn func())
	// PendingWork reports how many non-housekeeping events remain
	// queued. The scheduler gates its re-arm on this rather than the
	// raw pending count so that two independent timer loops (say, this
	// scheduler and a checkpoint persister) cannot keep each other —
	// and the event loop — alive forever.
	PendingWork() int
}

// Scheduler drives maintenance ticks in virtual time. It re-arms only
// while the engine has other pending work — the same contract the
// checkpoint persister uses — so an armed scheduler never keeps the
// event loop spinning after the workload drains; serve mode re-arms it
// on every ingested batch instead.
type Scheduler struct {
	cfg   Config
	clock Clock
	idle  func(now time.Duration) bool
	step  func(now time.Duration, budget int) int
	armed bool

	ticks, idleTicks, actions int64
}

// NewScheduler builds a scheduler over a normalized cfg. idle reports
// whether the device is quiet at a virtual time; step performs up to
// budget units of maintenance and returns how many it started.
func NewScheduler(cfg Config, clock Clock, idle func(time.Duration) bool, step func(time.Duration, int) int) *Scheduler {
	return &Scheduler{cfg: cfg, clock: clock, idle: idle, step: step}
}

// Arm schedules the next maintenance tick if one is not already
// queued. Safe to call repeatedly (and on a nil scheduler); the replay
// path arms once at start, the serve path on every batch.
func (s *Scheduler) Arm() {
	if s == nil || s.armed {
		return
	}
	s.armed = true
	s.clock.ScheduleHousekeepingAfter(s.cfg.Interval, s.tick)
}

// tick samples intensity, runs the budgeted step when idle, and
// re-arms only while other events remain pending.
func (s *Scheduler) tick() {
	s.armed = false
	s.ticks++
	now := s.clock.Now()
	if s.idle(now) {
		s.idleTicks++
		s.actions += int64(s.step(now, s.cfg.BudgetPerTick))
	}
	if s.clock.PendingWork() > 0 {
		s.Arm()
	}
}

// Ticks reports how many maintenance ticks have fired.
func (s *Scheduler) Ticks() int64 {
	if s == nil {
		return 0
	}
	return s.ticks
}

// IdleTicks reports how many ticks found the device idle.
func (s *Scheduler) IdleTicks() int64 {
	if s == nil {
		return 0
	}
	return s.idleTicks
}

// Actions reports the total maintenance actions started by idle ticks.
func (s *Scheduler) Actions() int64 {
	if s == nil {
		return 0
	}
	return s.actions
}
