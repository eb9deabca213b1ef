// Package qos implements multi-tenant quality of service for the EDC
// pipeline: per-tenant traffic classes, token-bucket bandwidth shaping
// with an rclone-style time-of-day schedule, and priority admission.
// Everything operates in virtual time so replay and serve runs stay
// byte-deterministic.
package qos

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Typed sentinels. Callers branch with errors.Is.
var (
	// ErrUnknownTenant reports a request tagged with a tenant absent
	// from a strict Config.
	ErrUnknownTenant = errors.New("qos: unknown tenant")
	// ErrAdmissionRejected reports a request refused admission because
	// its tenant exceeded the configured queue depth.
	ErrAdmissionRejected = errors.New("qos: admission rejected")
)

// Class is a tenant's traffic class, ordering admission when the
// pipeline is saturated.
type Class uint8

// The three traffic classes, in admission-priority order.
const (
	// ClassStandard is the default best-effort class.
	ClassStandard Class = iota
	// ClassLatency marks latency-sensitive tenants: their deferred
	// requests preempt the standard FIFO.
	ClassLatency
	// ClassBulk marks throughput-oriented background tenants: admitted
	// only after standard and latency queues drain.
	ClassBulk
)

// String returns the class's DSL spelling.
func (c Class) String() string {
	switch c {
	case ClassLatency:
		return "latency"
	case ClassBulk:
		return "bulk"
	default:
		return "standard"
	}
}

// ParseClass parses a DSL class name ("standard", "latency", "bulk").
func ParseClass(s string) (Class, error) {
	switch s {
	case "standard", "":
		return ClassStandard, nil
	case "latency":
		return ClassLatency, nil
	case "bulk":
		return ClassBulk, nil
	default:
		return ClassStandard, fmt.Errorf("qos: unknown class %q (valid: standard, latency, bulk)", s)
	}
}

// Tenant configures one tenant's QoS treatment.
type Tenant struct {
	// Class orders this tenant's deferred requests against other
	// tenants' when the closed-loop bound is hit.
	Class Class `json:"class,omitempty"`
	// Bandwidth is a time-of-day bandwidth schedule in the rclone
	// bwtimetable idiom: either a single rate ("10M") applying all day,
	// or space-separated "HH:MM,rate" pairs ("08:00,10M 18:00,off").
	// "off" means unlimited. Empty disables shaping for the tenant.
	Bandwidth string `json:"bandwidth,omitempty"`
	// BurstBytes sizes the shaper's token bucket (0: one second of the
	// schedule's fastest rate).
	BurstBytes int64 `json:"burst_bytes,omitempty"`
	// MaxDeferred bounds this tenant's deferred-queue depth; requests
	// beyond it are rejected with ErrAdmissionRejected (0: unlimited).
	MaxDeferred int `json:"max_deferred,omitempty"`
}

// Config is the facade-level QoS configuration: the tenant table plus
// global knobs.
type Config struct {
	// Tenants maps tenant name to treatment. Requests tagged with a
	// tenant not in the map get zero-value treatment (standard class,
	// no shaping) unless Strict is set.
	Tenants map[string]Tenant `json:"tenants,omitempty"`
	// Strict rejects requests tagged with a tenant absent from Tenants
	// (ErrUnknownTenant). Untagged requests are always admitted.
	Strict bool `json:"strict,omitempty"`
	// Isolate evaluates the elastic policy against the submitting
	// tenant's own calculated-IOPS window instead of the device-global
	// signal, so one tenant's burst cannot force write-through for
	// everyone. Off, QoS still shapes, prioritizes, and reports per
	// tenant, but codec selection stays global.
	Isolate bool `json:"isolate,omitempty"`
}

// Validate checks the tenant table: parseable bandwidth schedules,
// non-negative bursts and queue depths. Tenants are checked in sorted
// name order so the first error is deterministic.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	names := make([]string, 0, len(c.Tenants))
	for name := range c.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := c.Tenants[name]
		if name == "" {
			return errors.New("qos: empty tenant name")
		}
		if t.BurstBytes < 0 {
			return fmt.Errorf("qos: tenant %q: negative burst %d", name, t.BurstBytes)
		}
		if t.MaxDeferred < 0 {
			return fmt.Errorf("qos: tenant %q: negative max deferred %d", name, t.MaxDeferred)
		}
		if t.Class > ClassBulk {
			return fmt.Errorf("qos: tenant %q: unknown class %d", name, t.Class)
		}
		if t.Bandwidth != "" {
			if _, err := ParseTimetable(t.Bandwidth); err != nil {
				return fmt.Errorf("qos: tenant %q: %w", name, err)
			}
		}
	}
	return nil
}

// ClassOf resolves a tenant's class (zero value for unknown tenants).
func (c *Config) ClassOf(tenant string) Class {
	if c == nil {
		return ClassStandard
	}
	return c.Tenants[tenant].Class
}

// Known reports whether the tenant appears in the table (or the tag is
// empty, which is always admitted).
func (c *Config) Known(tenant string) bool {
	if c == nil || !c.Strict || tenant == "" {
		return true
	}
	_, ok := c.Tenants[tenant]
	return ok
}

// Shaped reports whether any tenant has a bandwidth schedule — lets
// the pipeline skip bucket bookkeeping entirely when nothing shapes.
func (c *Config) Shaped() bool {
	if c == nil {
		return false
	}
	for _, t := range c.Tenants {
		if t.Bandwidth != "" {
			return true
		}
	}
	return false
}

// Names returns the configured tenant names in sorted order.
func (c *Config) Names() []string {
	if c == nil {
		return nil
	}
	names := make([]string, 0, len(c.Tenants))
	for name := range c.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Bucket builds the tenant's token bucket, or nil when the tenant has
// no bandwidth schedule. share scales the rate for sharded pipelines
// (each of n shards enforces rate/n); share <= 1 means the full rate.
func (c *Config) Bucket(tenant string, share int) (*Bucket, error) {
	if c == nil {
		return nil, nil
	}
	t, ok := c.Tenants[tenant]
	if !ok || t.Bandwidth == "" {
		return nil, nil
	}
	tt, err := ParseTimetable(t.Bandwidth)
	if err != nil {
		return nil, err
	}
	return NewBucket(tt, t.BurstBytes, share), nil
}

// Day is the schedule period: timetables repeat every 24 hours of
// virtual time, with virtual t=0 anchored at midnight.
const Day = 24 * time.Hour
