// Package maint holds the policy side of background maintenance:
// per-extent heat tracking (epoch-decayed recency + frequency
// counters) and the maintenance configuration and constants. The
// package is deliberately mechanism-free — it never touches extents,
// slots, devices or timers — so the simulator core can drive
// relocation and compaction through it without an import cycle, and
// tests can exercise the temperature policy in isolation.
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

// Every maintenance setting but the four in Config is fixed: an idle
// tick starts at most BudgetPerTick relocations, an extent with HotHits
// decayed hits is hot, and the allocator is compacted once its free
// lists span CompactClasses size classes. Cold lzf/none extents are
// recompressed with gz and hot gz/bwz extents demoted to lzf (or to an
// uncompressed slot when lzf cannot fit a quantized one).
const (
	BudgetPerTick  = 8
	HotHits        = 4
	CompactClasses = 12
)

// Config parameterizes background maintenance; a device handed none
// runs no maintenance. Normalize fills every zero field with the
// documented default so callers only set what they care about.
type Config struct {
	// Interval is the virtual-time cadence of maintenance ticks
	// (default 100ms). Every tick samples workload intensity; only idle
	// ticks do work.
	Interval time.Duration `json:"interval,omitempty"`

	// IdleIOPS is the calculated-IOPS ceiling under which the device
	// counts as idle (default 300, the stock gz ceiling — if the
	// foreground would pick the heaviest codec anyway, background work
	// cannot be preempting anything that matters).
	IdleIOPS float64 `json:"idle_iops,omitempty"`

	// EpochLen is the heat-epoch length (default 250ms): access counts
	// halve once per epoch of inactivity.
	EpochLen time.Duration `json:"epoch_len,omitempty"`

	// ColdEpochs is how many whole epochs an extent must sit untouched
	// before it is recompression-cold (default 4, i.e. one second at
	// the default EpochLen).
	ColdEpochs int64 `json:"cold_epochs,omitempty"`
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
	if c.EpochLen <= 0 {
		c.EpochLen = 250 * time.Millisecond
	}
	if c.ColdEpochs <= 0 {
		c.ColdEpochs = 4
	}
	return c
}

// ErrBadConfig reports a maintenance configuration that cannot be
// normalized into something runnable.
var ErrBadConfig = errors.New("maint: invalid config")

// Validate rejects negative tunables that Normalize would otherwise
// silently replace.
func (c Config) Validate() error {
	if c.Interval < 0 || c.EpochLen < 0 {
		return fmt.Errorf("%w: negative interval", ErrBadConfig)
	}
	if c.IdleIOPS < 0 {
		return fmt.Errorf("%w: negative idle IOPS", ErrBadConfig)
	}
	if c.ColdEpochs < 0 {
		return fmt.Errorf("%w: negative cold epochs", ErrBadConfig)
	}
	return nil
}
