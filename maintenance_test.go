package edc

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"edc/internal/race"
)

// maintPolicy is an aggressive maintenance config for facade tests:
// short ticks, short epochs, and an idle ceiling high enough that the
// small test traces qualify.
func maintPolicy() Maintenance {
	return Maintenance{
		Interval:   20 * time.Millisecond,
		IdleIOPS:   5000,
		EpochLen:   100 * time.Millisecond,
		ColdEpochs: 2,
	}
}

// TestMaintenanceDeterminism replays the same trace twice with
// maintenance enabled across a workers x shards matrix; every cell must
// reproduce byte-identical Results, and verification must hold on every
// read of a relocated extent. Under the race detector only the cell
// with both pool and shard concurrency runs (workers 4, shards 3); the
// whole matrix runs without it.
func TestMaintenanceDeterminism(t *testing.T) {
	tr := smallTrace(t, 1500)
	workerSet, shardSet := []int{1, 4}, []int{1, 3}
	if race.Enabled {
		workerSet, shardSet = []int{4}, []int{3}
	}
	for _, workers := range workerSet {
		for _, shards := range shardSet {
			run := func() *Results {
				res, err := Replay(tr, testVolume,
					WithSSDConfig(smallSSD()),
					WithVerify(),
					WithReplayWorkers(workers),
					WithShards(shards),
					WithMaintenance(maintPolicy()))
				if err != nil {
					t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("workers=%d shards=%d: repeated maintenance replays diverge:\n%+v\n%+v",
					workers, shards, a, b)
			}
			if a.MaintTicks == 0 {
				t.Fatalf("workers=%d shards=%d: maintenance never ticked", workers, shards)
			}
		}
	}
}

// TestMaintenanceHeatHistogramMerge checks the sharded replay reports
// one merged five-bucket heat histogram covering every shard's extents.
func TestMaintenanceHeatHistogramMerge(t *testing.T) {
	tr := smallTrace(t, 1500)
	single, err := Replay(tr, testVolume,
		WithSSDConfig(smallSSD()), WithMaintenance(maintPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Replay(tr, testVolume,
		WithSSDConfig(smallSSD()), WithShards(3), WithMaintenance(maintPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Results{"single": single, "sharded": sharded} {
		if len(res.HeatHist) != 5 {
			t.Fatalf("%s: heat histogram %v, want 5 buckets", name, res.HeatHist)
		}
		var sum int64
		for _, n := range res.HeatHist {
			sum += n
		}
		if sum == 0 {
			t.Fatalf("%s: heat histogram empty", name)
		}
		if !strings.Contains(res.Format(), "heat:") {
			t.Fatalf("%s: Format() missing the heat line:\n%s", name, res.Format())
		}
	}
	var rep struct {
		HeatHist []int64 `json:"heat_hist"`
	}
	decodeReport(t, sharded, &rep)
	if len(rep.HeatHist) != 5 {
		t.Fatalf("report heat histogram %v, want 5 buckets", rep.HeatHist)
	}
}

// TestMaintenanceServe drives a sharded serve-mode system with
// maintenance enabled: the per-batch re-arm must keep the scheduler
// ticking, and the merged results must stay verified.
func TestMaintenanceServe(t *testing.T) {
	s, err := NewSystem(testVolume,
		WithSSDConfig(smallSSD()), WithShards(2), WithVerify(),
		WithMaintenance(maintPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// One client writes a region then leaves it idle while sparse later
	// traffic gives maintenance room to tick.
	for i := 0; i < 60; i++ {
		off := int64(i%32) * 4096
		at := time.Duration(i) * 5 * time.Millisecond
		if i < 32 {
			_, err = s.WriteAt(ctx, at, off, 4096)
		} else {
			_, err = s.ReadAt(ctx, at, off, 4096)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.StopServe()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaintTicks == 0 {
		t.Fatalf("serve mode never ticked maintenance: %+v", res)
	}
	if len(res.HeatHist) != 5 {
		t.Fatalf("serve mode heat histogram %v, want 5 buckets", res.HeatHist)
	}
}
