package edc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The images under testdata/ pin the rendered reports: format.golden
// holds Results.Format for runs that print every conditional line
// (dedup, maintenance and heat, faults with a power-cut recovery,
// tenants shaped and rejected), obs.golden the counters, their
// Prometheus text and the SHA-256 of the JSONL event stream of one
// traced run with dedup, maintenance, a fault plan and QoS shaping, at
// one and two shards. Both were written by the commit before the run
// counters became one table. No -update flag exists on purpose: a
// report byte that moves is a change to declare, not an image to
// regenerate.

// goldenQoS shapes the "batch" tenant hard enough to bite on a short
// trace and gives "web" the latency class.
func goldenQoS() Option {
	return WithQoS(QoSConfig{Tenants: map[string]QoSTenant{
		"web":   {Class: ClassLatency},
		"batch": {Class: ClassBulk, Bandwidth: "64K", BurstBytes: 16 << 10, MaxDeferred: 32},
	}})
}

// goldenTenants tags every third request "batch" and the rest "web".
func goldenTenants(tr *Trace) *Trace {
	out := tagTrace(tr, "web")
	for i := range out.Requests {
		if i%3 == 0 {
			out.Requests[i].Tenant = "batch"
		}
	}
	return out
}

// goldenFeatures is dedup, maintenance, a fault plan without a power cut
// and QoS shaping, over a tagged trace.
func goldenFeatures(t *testing.T, shards int) (*Trace, []Option) {
	t.Helper()
	return goldenTenants(smallTrace(t, 400)), []Option{
		WithSSDConfig(smallSSD()), WithShards(shards),
		WithDedup(Dedup{}),
		WithDataProfile(DataProfiles()["enterprise"].WithDup(0.5, 8), 7),
		WithMaintenance(maintPolicy()),
		WithFaults(&FaultPlan{Seed: 77, ReadTransient: 0.05, WriteTransient: 0.1, WriteHard: 0.02,
			SpikeRate: 0.05, SpikeLatency: 2 * time.Millisecond}),
		goldenQoS(),
	}
}

// goldenFormat renders a run's Format without SubmitStalls, which
// follows goroutine scheduling.
func goldenFormat(t *testing.T, name string, res *Results, err error) string {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res.SubmitStalls = 0
	return fmt.Sprintf("== %s\n%s", name, res.Format())
}

// rejectedServe is a serve run whose tenant is shaped and has one
// submission refused by its queue bound.
func rejectedServe(t *testing.T) (*Results, error) {
	t.Helper()
	sys, err := NewSystem(testVolume, WithSSDConfig(smallSSD()),
		WithQoS(QoSConfig{Tenants: map[string]QoSTenant{"web": {Bandwidth: "1k", MaxDeferred: 2}}}))
	if err != nil {
		return nil, err
	}
	if err := sys.Serve(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	var aws []Await
	for i := 0; i < 3; i++ {
		aw, err := sys.SubmitAtTag(ctx, 0, int64(i)*4096, 4096, true, "web")
		if err != nil {
			return nil, err
		}
		aws = append(aws, aw)
	}
	aws[2](ctx)
	res, err := sys.StopServe()
	for _, aw := range aws[:2] {
		aw(ctx)
	}
	return res, err
}

func TestFormatGolden(t *testing.T) {
	tr := smallTrace(t, 400)
	span := tr.Requests[len(tr.Requests)-1].Arrival
	var img string
	res, err := Replay(tr, testVolume, WithSSDConfig(smallSSD()), WithDedup(Dedup{}),
		WithDataProfile(DataProfiles()["enterprise"].WithDup(0.5, 8), 7))
	img += goldenFormat(t, "dedup", res, err)
	res, err = Replay(tr, testVolume, WithSSDConfig(smallSSD()), WithMaintenance(maintPolicy()))
	img += goldenFormat(t, "maint", res, err)
	plan := &FaultPlan{Seed: 77, ReadTransient: 0.05, ReadHard: 0.02, WriteTransient: 0.1, WriteHard: 0.02,
		SpikeRate: 0.05, SpikeLatency: 2 * time.Millisecond,
		PowerCutAt: tr.Requests[len(tr.Requests)/2].Arrival + 20*time.Microsecond}
	res, err = Replay(tr, testVolume, WithSSDConfig(smallSSD()), WithBackend(RAIS5, 0),
		WithFaults(plan), WithSnapshotEvery(span/8))
	img += goldenFormat(t, "faults+powercut rais5", res, err)
	res, err = Replay(goldenTenants(tr), testVolume, WithSSDConfig(smallSSD()), goldenQoS())
	img += goldenFormat(t, "qos", res, err)
	res, err = rejectedServe(t)
	img += goldenFormat(t, "serve rejected", res, err)
	for _, shards := range []int{1, 2} {
		ftr, opts := goldenFeatures(t, shards)
		res, err = Replay(ftr, testVolume, opts...)
		img += goldenFormat(t, fmt.Sprintf("dedup+maint+faults+qos shards=%d", shards), res, err)
	}
	checkReportGolden(t, "format.golden", []byte(img))
}

func TestObsGolden(t *testing.T) {
	var img []byte
	for _, shards := range []int{1, 2} {
		tr, opts := goldenFeatures(t, shards)
		h := sha256.New()
		jt := NewJSONLTracer(h)
		res, err := Replay(tr, testVolume, append(opts, WithTracer(jt))...)
		if err != nil {
			t.Fatal(err)
		}
		if err := jt.Flush(); err != nil {
			t.Fatal(err)
		}
		counters, err := json.MarshalIndent(res.Obs.Counters, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		var prom bytes.Buffer
		if err := res.Obs.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		img = fmt.Appendf(img, "== shards=%d events_sha256=%x\n%s\n%s", shards, h.Sum(nil), counters, prom.Bytes())
	}
	checkReportGolden(t, "obs.golden", img)
}

func checkReportGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the image of the commit before the counter table:\n got:\n%s", name, got)
	}
}
