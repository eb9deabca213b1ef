package edc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// tagTrace returns a copy of tr with every request tagged as tenant's.
func tagTrace(tr *Trace, tenant string) *Trace {
	out := &Trace{Name: tr.Name, Requests: make([]Request, len(tr.Requests))}
	copy(out.Requests, tr.Requests)
	for i := range out.Requests {
		out.Requests[i].Tenant = tenant
	}
	return out
}

func TestReplayStrictUnknownTenant(t *testing.T) {
	tr := tagTrace(smallTrace(t, 200), "ghost")
	_, err := Replay(tr, testVolume, WithSSDConfig(smallSSD()),
		WithQoS(QoSConfig{
			Strict:  true,
			Tenants: map[string]QoSTenant{"web": {}},
		}))
	if !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}
}

func TestServeStrictUnknownTenant(t *testing.T) {
	sys, err := NewSystem(testVolume, WithSSDConfig(smallSSD()),
		WithQoS(QoSConfig{
			Strict:  true,
			Tenants: map[string]QoSTenant{"web": {}},
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Serve(); err != nil {
		t.Fatal(err)
	}
	defer sys.StopServe()
	ctx := context.Background()
	if _, err := sys.WriteAtTag(ctx, 0, 0, 4096, "ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: err = %v, want ErrUnknownTenant", err)
	}
	// The known tenant (and untagged traffic) still flows.
	if _, err := sys.WriteAtTag(ctx, 0, 0, 4096, "web"); err != nil {
		t.Fatalf("known tenant: %v", err)
	}
	if _, err := sys.Write(ctx, 4096, 4096); err != nil {
		t.Fatalf("untagged: %v", err)
	}
}

func TestServeAdmissionRejected(t *testing.T) {
	// A 1 KB/s schedule parks every 4 KiB write for seconds, so the
	// tenant's two queue slots stay occupied no matter how the event
	// loop batches: the third submission must be refused.
	sys, err := NewSystem(testVolume, WithSSDConfig(smallSSD()),
		WithQoS(QoSConfig{
			Tenants: map[string]QoSTenant{
				"web": {Bandwidth: "1k", MaxDeferred: 2},
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Serve(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var aws []Await
	for i := 0; i < 3; i++ {
		aw, err := sys.SubmitAtTag(ctx, 0, int64(i)*4096, 4096, true, "web")
		if err != nil {
			t.Fatal(err)
		}
		aws = append(aws, aw)
	}
	if _, err := aws[2](ctx); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("third op: err = %v, want ErrAdmissionRejected", err)
	}
	// The parked operations only complete during the stop-drain.
	res, err := sys.StopServe()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := aws[i](ctx); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	ts := res.Tenants["web"]
	if ts == nil {
		t.Fatal("no tenant section in results")
	}
	if ts.Rejected != 1 || ts.Shaped == 0 {
		t.Fatalf("rejected = %d shaped = %d; want 1 rejection and shaped > 0", ts.Rejected, ts.Shaped)
	}
}

// TestTaggedSingleTenantMatchesUntagged pins the disabled-path
// contract: tagging every request with one tenant (and configuring no
// QoS) changes nothing about the run except adding the tenant section.
func TestTaggedSingleTenantMatchesUntagged(t *testing.T) {
	tr := smallTrace(t, 800)
	base, err := Replay(tr, testVolume, WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := Replay(tagTrace(tr, "web"), testVolume, WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	var keys struct {
		Tenants map[string]struct {
			Requests int64 `json:"requests"`
		} `json:"tenants"`
	}
	decodeReport(t, tagged, &keys)
	ts, ok := keys.Tenants["web"]
	if !ok {
		t.Fatal("tagged run has no tenant section")
	}
	if ts.Requests != int64(len(tr.Requests)) {
		t.Fatalf("tenant requests = %d, want %d", ts.Requests, len(tr.Requests))
	}
	tagged.Tenants = nil
	want, err := json.Marshal(base.Report())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(tagged.Report())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("tagged run differs from untagged beyond the tenant section:\nuntagged: %s\ntagged:   %s", want, got)
	}
	// The untagged report must not even serialize a tenants key.
	if bytes.Contains(want, []byte(`"tenants"`)) {
		t.Fatal("untagged report serializes a tenants section")
	}
}

// TestReportTenantsJSONRoundTrip pins the machine-readable contract:
// a tagged run's Report survives a JSON round trip bit-for-bit.
func TestReportTenantsJSONRoundTrip(t *testing.T) {
	res, err := Replay(tagTrace(smallTrace(t, 400), "web"), testVolume,
		WithSSDConfig(smallSSD()),
		WithQoS(QoSConfig{Tenants: map[string]QoSTenant{"web": {Class: ClassLatency}}}))
	if err != nil {
		t.Fatal(err)
	}
	var keys struct {
		Tenants map[string]any `json:"tenants"`
	}
	first := decodeReport(t, res, &keys)
	if keys.Tenants["web"] == nil {
		t.Fatal("no tenant section")
	}
	var back Report
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("report changed across JSON round trip:\n%s\n%s", first, second)
	}
}
