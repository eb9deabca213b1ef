package edc

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestNewSystemValidation is the one table of what a System refuses to
// be configured as: every validation error NewSystem returns — typed
// where a sentinel exists — and every row of the refusal table,
// including the two that wait for Serve because only serving rules the
// combination out.
func TestNewSystemValidation(t *testing.T) {
	powerCut := &FaultPlan{Seed: 1, PowerCutAt: time.Second}
	for _, tc := range []struct {
		name  string
		opts  []Option
		is    error  // sentinel the error must wrap, if any
		want  string // text the error must contain
		serve bool   // NewSystem accepts; Serve refuses
	}{
		{name: "unknown scheme", opts: []Option{WithScheme("Zstd")}, is: ErrUnknownScheme, want: `"Zstd"`},
		{name: "unknown backend", opts: []Option{WithBackend(BackendKind(42), 1)}, is: ErrUnknownBackend, want: "42"},
		{name: "negative devices", opts: []Option{WithBackend(RAIS5, -1)}, want: "negative device count"},
		{name: "multi-disk HDD", opts: []Option{WithBackend(HDD, 2)}, want: "HDD backend is one disk"},
		{name: "negative gz ceiling", opts: []Option{WithElasticThresholds(-1, 100)}, want: "elastic thresholds"},
		{name: "gz above lzf ceiling", opts: []Option{WithElasticThresholds(900, 100)}, want: "elastic thresholds"},
		{name: "negative cache", opts: []Option{WithCache(-1)}, want: "negative cache size"},
		{name: "negative snapshot interval", opts: []Option{WithSnapshotEvery(-time.Second)}, want: "negative snapshot interval"},
		{name: "more shards than blocks", opts: []Option{WithShards(1 << 30)}, want: "shards exceed"},
		{name: "fault probability out of range", opts: []Option{WithFaults(&FaultPlan{Seed: 1, ReadHard: 1.5})}, want: "read_hard"},
		{name: "unparsable tenant bandwidth", opts: []Option{WithQoS(QoSConfig{Tenants: map[string]QoSTenant{"web": {Bandwidth: "nope"}}})}, want: `tenant "web"`},
		{name: "unknown tenant class", opts: []Option{WithQoS(QoSConfig{Tenants: map[string]QoSTenant{"web": {Class: QoSClass(42)}}})}, want: "unknown class"},
		{name: "negative maintenance interval", opts: []Option{WithMaintenance(Maintenance{Interval: -time.Second})}, want: "negative interval"},

		{name: "power cut × shards", opts: []Option{WithFaults(powerCut), WithShards(4)},
			want: "edc: power-cut recovery is not supported with WithShards(4): shards crash and recover independently of each other"},
		{name: "serve × power cut", opts: []Option{WithFaults(powerCut)}, serve: true, want: "serve mode does not support power-cut fault plans"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSystem(testVolume, append([]Option{WithSSDConfig(smallSSD())}, tc.opts...)...)
			if tc.serve {
				if err != nil {
					t.Fatalf("NewSystem refused what only Serve rules out: %v", err)
				}
				err = s.Serve()
			}
			if err == nil {
				t.Fatal("accepted")
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("err = %v, want one wrapping %v", err, tc.is)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want it to contain %q", err, tc.want)
			}
		})
	}
	// The same stack minus the clash is accepted: no row fires alone.
	for name, opts := range map[string][]Option{
		"defaults":  nil,
		"power cut": {WithFaults(powerCut)},
	} {
		if _, err := NewSystem(testVolume, opts...); err != nil {
			t.Errorf("%s: refused: %v", name, err)
		}
	}
}

// TestZeroValuedOptionsKeepDefaults pins what an option handed its zero
// value means: the default, exactly as if the option were absent.
func TestZeroValuedOptionsKeepDefaults(t *testing.T) {
	tr := smallTrace(t, 300)
	report := func(opts ...Option) []byte {
		res, err := Replay(tr, testVolume, opts...)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res.Report())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	zeroed := report(WithScheme(""), WithElasticThresholds(0, 0), WithSSDConfig(SSDConfig{}),
		WithDataProfile(DataProfile{}, 0), WithShards(0), WithFaults(nil))
	if plain := report(); !bytes.Equal(zeroed, plain) {
		t.Fatalf("zero-valued options changed the replay:\n zeroed: %s\n plain:  %s", zeroed, plain)
	}
}

// TestDeviceConstructionErrorSurfaces checks the one error only building
// a device can find — the volume does not fit the backend — comes out of
// Play and out of Serve with the same cause, at one shard and at two:
// NewSystem builds nothing, so it cannot know.
func TestDeviceConstructionErrorSurfaces(t *testing.T) {
	const tooBig = 1 << 40
	for _, shards := range []int{1, 2} {
		for _, mode := range []string{"Play", "Serve"} {
			s, err := NewSystem(tooBig, WithSSDConfig(smallSSD()), WithShards(shards))
			if err != nil {
				t.Fatalf("shards=%d: NewSystem: %v", shards, err)
			}
			if mode == "Play" {
				_, err = s.Play(smallTrace(t, 10))
			} else {
				err = s.Serve()
			}
			if err == nil || !strings.Contains(err.Error(), "exceeds backend capacity") {
				t.Errorf("shards=%d: %s: err = %v, want the backend-capacity cause", shards, mode, err)
			}
			if _, err := s.Play(smallTrace(t, 10)); !errors.Is(err, ErrReplayed) {
				t.Errorf("shards=%d: Play after a failed %s: err = %v, want ErrReplayed", shards, mode, err)
			}
		}
	}
}
