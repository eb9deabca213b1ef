package bench

// The qos experiment demonstrates multi-tenant isolation: a
// latency-sensitive victim tenant is measured solo, then with a bulk
// aggressor flooding writes beside it — once with QoS disabled (tags
// flow but no policy applies) and once with the full treatment
// (per-tenant intensity isolation, class-priority admission, and a
// bandwidth schedule shaping the aggressor). Without QoS the
// aggressor's burst drags the shared calculated-IOPS signal above the
// Lzf ceiling, forcing the victim's writes into uncompressed
// write-through and inflating its tail latency; with QoS on the
// victim's codec mix and p99 stay within noise of its solo run.

import (
	"fmt"
	"time"

	"edc/internal/compress"
	"edc/internal/workload"
)

func init() {
	register("qos", "Multi-tenant QoS: victim isolation under an aggressor burst", runQoS)
}

// The victim offers ~250 calculated IOPS (inside the Gzip band); the
// aggressor's 16 KiB writes at 2500 QPS offer ~10000 — far above the
// 7000 write-through ceiling — unless its 2 MiB/s schedule shapes them
// down. The victim line comes first, so its generator seed (and thus
// its offered stream) is identical in every mode.
const (
	qosVictimLine = "tenant=web class=latency d=4s qps=250 rw=0.5 bs=4k"
	qosAggrLine   = "tenant=batch class=bulk bw=2M d=4s qps=2500 rw=0.05 bs=16k"
)

func runQoS(p Params) ([]*Table, error) {
	shared := qosVictimLine + "\n" + qosAggrLine
	modes := []struct {
		name    string
		spec    string
		noQoS   bool
		isolate bool
	}{
		{"victim solo", qosVictimLine, false, true},
		{"shared, qos off", shared, true, false},
		{"shared, qos on", shared, false, true},
	}
	t := &Table{
		ID:     "qos",
		Title:  "Multi-tenant QoS: victim vs aggressor (victim tenant \"web\", aggressor \"batch\")",
		Header: []string{"mode", "victim p99", "victim mean", "victim comp%", "victim none-runs", "aggr qps", "aggr shaped"},
	}
	for _, m := range modes {
		spec, err := workload.ParseSpec(m.spec)
		if err != nil {
			return nil, fmt.Errorf("qos: %w", err)
		}
		sp := ServeParams{
			// Only the shared sizing knobs carry over: faults, maint, and
			// dedup would perturb the isolation comparison.
			Params: Params{VolumeMiB: p.VolumeMiB, Seed: p.Seed, Workers: p.Workers, Shards: p.Shards},
			Spec:   spec,
			NoQoS:  m.noQoS,
		}
		if !m.noQoS {
			cfg := spec.QoSConfig()
			if cfg != nil && m.isolate {
				cfg.Isolate = true
			}
			sp.QoS = cfg
		}
		sr, err := RunServe(sp)
		if err != nil {
			return nil, fmt.Errorf("qos: %s: %w", m.name, err)
		}
		vt := sr.Result.Tenants["web"]
		if vt == nil {
			return nil, fmt.Errorf("qos: %s: no victim tenant section in results", m.name)
		}
		var runs int64
		for _, n := range vt.RunsByTag {
			runs += n
		}
		none := vt.RunsByTag[compress.TagNone]
		compPct := "-"
		if runs > 0 {
			compPct = f1(100 * float64(runs-none) / float64(runs))
		}
		aggrQPS, aggrShaped := "-", "-"
		for _, ss := range sr.Steps {
			if ss.Step.Tenant == "batch" {
				aggrQPS = f1(ss.AchievedQPS)
			}
		}
		if at := sr.Result.Tenants["batch"]; at != nil {
			aggrShaped = fmt.Sprintf("%d", at.Shaped)
		}
		t.Rows = append(t.Rows, []string{
			m.name,
			vt.Resp.Percentile(99).Round(time.Microsecond).String(),
			vt.Resp.Mean().Round(time.Microsecond).String(),
			compPct,
			fmt.Sprintf("%d", none),
			aggrQPS,
			aggrShaped,
		})
	}
	t.Notes = append(t.Notes,
		"victim: "+qosVictimLine,
		"aggressor: "+qosAggrLine,
		"qos off shares one intensity meter: the aggressor pushes calculated IOPS past the Lzf ceiling and the victim's writes store uncompressed; qos on isolates the victim's meter, shapes the aggressor to its schedule, and admits latency-class requests first",
	)
	return []*Table{t}, nil
}
