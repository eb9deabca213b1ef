package edc

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestWithShardsSingleShardIdentical pins the compatibility guarantee:
// WithShards(1) — and the default of no shard option — replays through
// the stock single pipeline, so results are bit-identical to a plain
// Replay call.
func TestWithShardsSingleShardIdentical(t *testing.T) {
	tr := smallTrace(t, 1200)
	run := func(extra ...Option) *Results {
		opts := append([]Option{WithSSDConfig(smallSSD())}, extra...)
		res, err := Replay(tr, testVolume, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run()
	one := run(WithShards(1))
	if !reflect.DeepEqual(base, one) {
		t.Fatalf("WithShards(1) differs from default replay:\nbase: %v\none:  %v", base, one)
	}
}

// TestWithShardsDeterminism replays the same trace twice through the
// sharded facade path and requires field-identical results for a fixed
// shard count.
func TestWithShardsDeterminism(t *testing.T) {
	tr := smallTrace(t, 1200)
	run := func() *Results {
		res, err := Replay(tr, testVolume,
			WithSSDConfig(smallSSD()), WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sharded replays differ:\na: %v\nb: %v", a, b)
	}
	if !strings.HasPrefix(a.Backend, "3-shard") {
		t.Errorf("Backend = %q, want a 3-shard label", a.Backend)
	}
	// Boundary-crossing requests split into per-shard sub-requests, so
	// the merged count can only grow.
	if a.Requests < int64(len(tr.Requests)) {
		t.Errorf("merged Requests = %d below trace length %d", a.Requests, len(tr.Requests))
	}
	if a.Resp.Count() != a.Requests {
		t.Errorf("observed %d responses for %d requests", a.Resp.Count(), a.Requests)
	}
}

// TestWithShardsRAIS exercises the sharded path over the array backend:
// each shard owns a private 5-device RAIS5 array.
func TestWithShardsRAIS(t *testing.T) {
	tr := smallTrace(t, 600)
	res, err := Replay(tr, testVolume,
		WithBackend(RAIS5, 5), WithSSDConfig(smallSSD()), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 5; len(res.Devices) != want {
		t.Errorf("merged stats carry %d devices, want %d", len(res.Devices), want)
	}
}

// TestWithShardsShuffledTrace replays a shuffled trace at two shards and
// its stably sorted twin: the sharded replay sorts an unsorted trace once,
// and the intensity snapshot and every shard's slice read that copy, so
// the two reports are byte-identical.
func TestWithShardsShuffledTrace(t *testing.T) {
	shuffled := smallTrace(t, 1200)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled.Requests), func(i, j int) {
		shuffled.Requests[i], shuffled.Requests[j] = shuffled.Requests[j], shuffled.Requests[i]
	})
	sorted := &Trace{Name: shuffled.Name, Requests: slices.Clone(shuffled.Requests)}
	slices.SortStableFunc(sorted.Requests, func(a, b Request) int { return cmp.Compare(a.Arrival, b.Arrival) })
	report := func(tr *Trace) []byte {
		res, err := Replay(tr, testVolume, WithSSDConfig(smallSSD()), WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res.Report())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if a, b := report(shuffled), report(sorted); !bytes.Equal(a, b) {
		t.Fatalf("shuffled and sorted traces report differently:\nshuffled: %s\nsorted:   %s", a, b)
	}
}
