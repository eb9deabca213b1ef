package edc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestTracerDoesNotPerturb pins the observability layer's core contract:
// attaching a tracer and time-series sampling changes nothing but the
// Obs snapshot. Every other RunStats field must match an uninstrumented
// replay bit for bit.
func TestTracerDoesNotPerturb(t *testing.T) {
	tr := smallTrace(t, 1500)
	run := func(extra ...Option) *Results {
		opts := append([]Option{WithSSDConfig(smallSSD()), WithCache(1 << 20)}, extra...)
		res, err := Replay(tr, testVolume, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run()
	traced := run(
		WithTracer(TracerFunc(func(*TraceEvent) {})),
		WithTimeSeries(time.Second),
	)
	if traced.Obs == nil {
		t.Fatal("traced run carries no Obs report")
	}
	traced.Obs = nil
	if !reflect.DeepEqual(base, traced) {
		t.Fatalf("tracer perturbed the replay:\nbase:   %v\ntraced: %v", base, traced)
	}
}

// TestJSONLTraceValidAndOrdered replays with a JSONL tracer and checks
// every line parses into a TraceEvent and the stream is ordered by
// (virtual time, seq).
func TestJSONLTraceValidAndOrdered(t *testing.T) {
	tr := smallTrace(t, 1200)
	var buf bytes.Buffer
	jt := NewJSONLTracer(&buf)
	if _, err := Replay(tr, testVolume, WithSSDConfig(smallSSD()), WithTracer(jt)); err != nil {
		t.Fatal(err)
	}
	if err := jt.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n int
	var lastT, lastSeq int64 = -1, -1
	for sc.Scan() {
		var e TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d does not parse: %v", n, err)
		}
		if e.TUS < lastT {
			t.Fatalf("line %d: time went backwards (%d after %d)", n, e.TUS, lastT)
		}
		if e.Seq != lastSeq+1 {
			t.Fatalf("line %d: seq %d after %d", n, e.Seq, lastSeq)
		}
		lastT, lastSeq = e.TUS, e.Seq
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no events emitted")
	}
}

// TestShardedTracerDeterministic replays a sharded system twice with
// JSONL tracers and requires byte-identical event streams, ordered by
// (virtual time, shard, per-shard seq).
func TestShardedTracerDeterministic(t *testing.T) {
	tr := smallTrace(t, 1200)
	run := func() []byte {
		var buf bytes.Buffer
		jt := NewJSONLTracer(&buf)
		_, err := Replay(tr, testVolume,
			WithSSDConfig(smallSSD()), WithShards(3), WithTracer(jt))
		if err != nil {
			t.Fatal(err)
		}
		if err := jt.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events emitted")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("sharded trace streams differ between identical runs")
	}
	// Verify the deterministic merge order.
	sc := bufio.NewScanner(bytes.NewReader(a))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	type key struct {
		t, seq int64
		shard  int
	}
	last := key{t: -1}
	for sc.Scan() {
		var e TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		k := key{t: e.TUS, seq: e.Seq, shard: e.Shard}
		if k.t < last.t ||
			(k.t == last.t && k.shard < last.shard) ||
			(k.t == last.t && k.shard == last.shard && k.seq <= last.seq) {
			t.Fatalf("merge order violated: %+v after %+v", k, last)
		}
		last = k
	}
}

// decodeReport marshals res's machine-readable report, decodes it into
// v and returns the JSON.
func decodeReport(t *testing.T, res *Results, v any) []byte {
	t.Helper()
	b, err := json.Marshal(res.Report())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReportJSONRoundTrip checks the machine-readable RunStats form
// (edcbench -json) survives encoding/json unchanged, with the obs
// snapshot attached.
func TestReportJSONRoundTrip(t *testing.T) {
	tr := smallTrace(t, 1000)
	res, err := Replay(tr, testVolume,
		WithSSDConfig(smallSSD()), WithTimeSeries(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var keys struct {
		Obs              *ObsReport `json:"obs"`
		WriteThroughRate float64    `json:"write_through_rate"`
		OversizeRate     float64    `json:"oversize_rate"`
	}
	b := decodeReport(t, res, &keys)
	if keys.Obs == nil || keys.Obs.Series == nil {
		t.Fatal("report missing obs snapshot")
	}
	if keys.WriteThroughRate != res.WriteThroughRate() || keys.OversizeRate != res.OversizeRate() {
		t.Fatal("report rates disagree with RunStats accessors")
	}
	rep := res.Report()
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Fatalf("report did not round-trip:\nout:  %+v\nback: %+v", rep, &back)
	}
}
