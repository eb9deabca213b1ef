package core

import (
	"time"

	"edc/internal/qos"
)

// qosState is the pipeline-side view of a qos.Config: per-tenant token
// buckets (built once from each tenant's bandwidth schedule) and, under
// isolation, per-tenant calculated-IOPS monitors. A nil *qosState is
// valid and free — every method no-ops to the untagged behaviour, so a
// device without QoS is bit-identical to a pre-QoS build.
//
// The state is single-goroutine like the rest of a device pipeline:
// each shard builds its own (buckets scaled by the shard count), and
// the event loop is the only caller.
type qosState struct {
	cfg *qos.Config

	// buckets holds one shaper per tenant with a bandwidth schedule
	// (absent tenants are unshaped). Built eagerly so arrival-path
	// lookups never allocate.
	buckets map[string]*qos.Bucket

	// meters holds per-tenant dual-window monitors when cfg.Isolate is
	// set: the policy then sees the submitting tenant's own intensity
	// instead of the device-global stream. Entries are created lazily
	// at first admission so only active tenants pay for a monitor.
	meters   map[string]WorkloadMeter
	newMeter func() WorkloadMeter
}

// newQoSState builds the pipeline state for cfg. share scales every
// bandwidth schedule down for sharded pipelines (each of n shards
// enforces rate/n); share <= 1 keeps the full rate. cfg must already
// be validated.
func newQoSState(cfg *qos.Config, share int, newMeter func() WorkloadMeter) (*qosState, error) {
	qs := &qosState{cfg: cfg, newMeter: newMeter}
	if cfg.Shaped() {
		qs.buckets = make(map[string]*qos.Bucket)
		for _, name := range cfg.Names() {
			b, err := cfg.Bucket(name, share)
			if err != nil {
				return nil, err
			}
			if b != nil {
				qs.buckets[name] = b
			}
		}
	}
	if cfg.Isolate {
		qs.meters = make(map[string]WorkloadMeter)
	}
	return qs, nil
}

// bucket returns the tenant's shaper, or nil when the tenant is
// unshaped (or QoS is off entirely).
func (qs *qosState) bucket(tenant string) *qos.Bucket {
	if qs == nil || tenant == "" {
		return nil
	}
	return qs.buckets[tenant]
}

// meter returns the tenant's private intensity monitor under isolation
// (allocating it on first use), or nil when the policy should keep the
// device-global signal.
func (qs *qosState) meter(tenant string) WorkloadMeter {
	if qs == nil || qs.meters == nil || tenant == "" {
		return nil
	}
	m, ok := qs.meters[tenant]
	if !ok {
		m = qs.newMeter()
		qs.meters[tenant] = m
	}
	return m
}

// class resolves the tenant's traffic class (standard when QoS is off
// or the tenant is unknown).
func (qs *qosState) class(tenant string) qos.Class {
	if qs == nil {
		return qos.ClassStandard
	}
	return qs.cfg.ClassOf(tenant)
}

// known reports whether the tenant may submit at all (always true
// without QoS or outside strict mode).
func (qs *qosState) known(tenant string) bool {
	if qs == nil {
		return true
	}
	return qs.cfg.Known(tenant)
}

// maxDeferred returns the tenant's deferred-queue bound (0 means
// unlimited).
func (qs *qosState) maxDeferred(tenant string) int {
	if qs == nil || tenant == "" {
		return 0
	}
	return qs.cfg.Tenants[tenant].MaxDeferred
}

// shape charges the tenant's bucket for one request of size bytes at
// virtual time now and returns the delay before it may be admitted
// (0: admit immediately). The bucket is charged exactly once per
// request — callers reschedule the arrival by the returned delay and
// must not charge again on re-arrival.
func (qs *qosState) shape(now time.Duration, tenant string, size int64) time.Duration {
	b := qs.bucket(tenant)
	if b == nil {
		return 0
	}
	return b.Take(now, size)
}

// admitOrder is the class pop order for the priority queues: latency
// preempts standard, bulk drains last.
var admitOrder = [...]qos.Class{qos.ClassLatency, qos.ClassStandard, qos.ClassBulk}
