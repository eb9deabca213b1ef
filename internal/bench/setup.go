package bench

import (
	"fmt"
	"time"

	"edc/internal/ssd"
	"edc/internal/trace"
)

// singleSSDConfig is the device model for single-SSD experiments:
// 512 MiB raw so the 256 MiB volume sees realistic GC pressure.
func singleSSDConfig() ssd.Config {
	cfg := ssd.DefaultConfig()
	cfg.Blocks = 2048
	return cfg
}

// raisSSDConfig is the member-device model for array experiments.
func raisSSDConfig() ssd.Config {
	cfg := ssd.DefaultConfig()
	cfg.Blocks = 1024 // 256 MiB each; 5-device RAIS5 ≈ 950 MiB logical
	return cfg
}

func init() {
	register("tab1", "Experimental setup (Table I)", runTab1)
	register("tab2", "Workload characteristics (Table II)", runTab2)
}

func runTab1(p Params) ([]*Table, error) {
	cfg := singleSSDConfig()
	t := &Table{
		ID:     "tab1",
		Title:  "Simulated experimental setup (paper Table I analogue)",
		Header: []string{"component", "configuration"},
		Rows: [][]string{
			{"Host model", "two-station tandem queue (CPU + device), virtual time"},
			{"Device model", fmt.Sprintf("X25-E-class SLC: read %v/page, program %v/page, erase %v/block",
				cfg.ReadPageLatency, cfg.ProgramLatency, cfg.EraseLatency)},
			{"Interface", fmt.Sprintf("%d MB/s, transfer time proportional to size", cfg.TransferBW>>20)},
			{"Geometry", fmt.Sprintf("%d blocks x %d pages x %d B (%.0f MiB raw, %.0f%% over-provisioned)",
				cfg.Blocks, cfg.PagesPerBlock, cfg.PageSize,
				float64(cfg.Blocks*cfg.PagesPerBlock*cfg.PageSize)/(1<<20), cfg.OverProvision*100)},
			{"GC", fmt.Sprintf("greedy, foreground, watermarks %.0f%%/%.0f%%", cfg.GCLowWater*100, cfg.GCHighWater*100)},
			{"Array", "RAIS5 of 5 identical devices, 64 KiB stripe unit (fig11)"},
			{"Traces", "synthetic Fin1/Fin2 (SPC OLTP) + Usr_0/Prxy_0 (MSR) profiles"},
			{"Trace generation", "MMPP burst/idle arrivals; SDGen-style content (internal/datagen)"},
			{"Compression algorithms", "lzf, lz4, gz (LZ77+Huffman), bwz (BWT+MTF+Huffman)"},
		},
		Notes: []string{
			"Real hardware in the paper: Xeon X5680, PERC H710, 5x Intel X25-E 64 GB (see DESIGN.md substitutions).",
		},
	}
	return []*Table{t}, nil
}

func runTab2(p Params) ([]*Table, error) {
	t := &Table{
		ID:     "tab2",
		Title:  "Key characteristics of evaluation workloads (Table II analogue)",
		Header: []string{"trace", "requests", "read%", "avg KB", "mean IOPS", "peak/mean", "footprint MiB"},
	}
	for _, ts := range standardTraces {
		tr, err := ts.at(p).generate()
		if err != nil {
			return nil, err
		}
		st := tr.Stats()
		mean, peak := burstStats(tr)
		pm := 0.0
		if mean > 0 {
			pm = peak / mean
		}
		t.Rows = append(t.Rows, []string{
			tr.Name,
			fmt.Sprintf("%d", st.Requests),
			f1(st.ReadRatio * 100),
			f1(st.AvgSize / 1024),
			f1(st.AvgIOPS),
			f1(pm),
			f1(float64(st.MaxOffset) / (1 << 20)),
		})
	}
	t.Notes = append(t.Notes,
		"Synthetic approximations of the published traces; drop real SPC/MSR files in via internal/trace parsers to reproduce on original data.")
	return []*Table{t}, nil
}

// burstStats computes the 1-second-binned IOPS mean and peak.
func burstStats(tr *trace.Trace) (mean, peak float64) {
	if len(tr.Requests) == 0 {
		return 0, 0
	}
	bins := make(map[int64]int)
	for _, r := range tr.Requests {
		bins[int64(r.Arrival/time.Second)]++
	}
	last := int64(tr.Duration() / time.Second)
	var sum float64
	for _, c := range bins {
		v := float64(c)
		sum += v
		if v > peak {
			peak = v
		}
	}
	return sum / float64(last+1), peak
}
