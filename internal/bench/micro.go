package bench

import (
	"fmt"
	"math/rand"
	"time"

	"edc/internal/compress"
	"edc/internal/core"
	"edc/internal/datagen"
	"edc/internal/metrics"
	"edc/internal/ssd"
	"edc/internal/workload"
)

func init() {
	register("fig1", "SSD response time vs request size (Fig. 1)", runFig1)
	register("fig2", "Codec compression efficiency (Fig. 2)", runFig2)
	register("fig3", "Workload burstiness/idleness (Fig. 3)", runFig3)
}

// runFig1 reproduces the IOmeter microbenchmark: mean device service
// time for random accesses of increasing size, normalized to 4 KiB.
// The paper observes an approximately linear correlation.
func runFig1(p Params) ([]*Table, error) {
	dev, err := ssd.New(ssd.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7 + p.Seed))
	sizes := []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
	const n = 2000
	type row struct {
		size      int64
		read, wrt time.Duration
	}
	var rows []row
	for _, size := range sizes {
		var rsum, wsum time.Duration
		pages := (size + 4095) / 4096
		for i := 0; i < n; i++ {
			lpn := rng.Int63n(dev.LogicalPages() - pages)
			rt, err := dev.ReadTime(lpn, size)
			if err != nil {
				return nil, err
			}
			wt, err := dev.WriteTime(lpn, size)
			if err != nil {
				return nil, err
			}
			rsum += rt
			wsum += wt
		}
		rows = append(rows, row{size, rsum / n, wsum / n})
	}
	t := &Table{
		ID:     "fig1",
		Title:  "Response time vs request size on the simulated SSD (normalized to 4 KiB)",
		Header: []string{"size KiB", "read us", "write us", "read norm", "write norm"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.size>>10),
			fmt.Sprintf("%d", r.read.Microseconds()),
			fmt.Sprintf("%d", r.wrt.Microseconds()),
			f2(float64(r.read) / float64(rows[0].read)),
			f2(float64(r.wrt) / float64(rows[0].wrt)),
		})
	}
	// Linearity check for the notes: compare 256K/4K against 64.
	t.Notes = append(t.Notes, fmt.Sprintf(
		"linearity: 256K/4K read ratio = %.1f (ideal 64.0 for a fully size-proportional device)",
		float64(rows[len(rows)-1].read)/float64(rows[0].read)))
	return []*Table{t}, nil
}

// fig2Chunk is the unit fig2 compresses independently.
const fig2Chunk = 128 << 10

// fig2Corpus is the bytes fig2 compresses per dataset and codec: 16 MiB
// at the default request count (12 000) and above, fewer whole chunks in
// proportion below it, one at least.
func fig2Corpus(p Params) int {
	const full = 16 << 20 / fig2Chunk
	return max(1, min(full, full*p.requests()/12000)) * fig2Chunk
}

// runFig2 measures every codec on the paper's two datasets: compression
// ratio plus real (wall-clock) and modeled compress/decompress speeds.
func runFig2(p Params) ([]*Table, error) {
	reg := compress.Default()
	cost := core.DefaultCostModel()
	datasets := []datagen.Profile{datagen.LinuxSrc(), datagen.FirefoxBin()}
	codecNames := []string{"lzf", "lz4", "gz", "bwz"}
	total := fig2Corpus(p)
	const chunk = fig2Chunk
	t := &Table{
		ID:     "fig2",
		Title:  "Compression efficiency per codec and dataset (ratio, measured MB/s, modeled MB/s)",
		Header: []string{"dataset", "codec", "ratio", "C MB/s", "D MB/s", "model C", "model D"},
	}
	for _, ds := range datasets {
		gen := datagen.New(ds, 21+p.Seed)
		data := gen.Block(0, total, 0)
		for _, name := range codecNames {
			c, err := reg.ByName(name)
			if err != nil {
				return nil, err
			}
			var compBytes int64
			start := time.Now()
			comps := make([][]byte, 0, total/chunk)
			for off := 0; off < total; off += chunk {
				out := c.Compress(data[off : off+chunk])
				compBytes += int64(len(out))
				comps = append(comps, out)
			}
			compDur := time.Since(start)
			start = time.Now()
			for _, blob := range comps {
				if _, err := c.Decompress(blob, chunk); err != nil {
					return nil, err
				}
			}
			decompDur := time.Since(start)
			mbps := func(d time.Duration) float64 {
				if d <= 0 {
					return 0
				}
				return float64(total) / d.Seconds() / 1e6
			}
			cc := cost[c.Tag()]
			t.Rows = append(t.Rows, []string{
				ds.Name, name,
				f2(compress.Ratio(total, int(compBytes))),
				f1(mbps(compDur)), f1(mbps(decompDur)),
				f1(cc.CompressBps / 1e6), f1(cc.DecompressBps / 1e6),
			})
		}
	}
	t.Notes = append(t.Notes,
		"Expected ordering (paper Fig. 2): ratio bwz>gz>lzf~lz4; speed lz4>=lzf>>gz>>bwz; decompression faster than compression.")
	return []*Table{t}, nil
}

// runFig3 renders the 1-second IOPS series of the OLTP (Fin1) and
// enterprise (Usr_0) profiles: the burst/idle alternation EDC exploits.
func runFig3(p Params) ([]*Table, error) {
	profiles := []workload.Profile{
		workload.Fin1(p.volume()),
		workload.Usr0(p.volume()),
	}
	const window = 3 * time.Minute
	series := make([]*metrics.TimeSeries, len(profiles))
	stats := &Table{
		ID:     "fig3",
		Title:  "Burstiness and idleness of the access patterns (1 s bins over 3 min)",
		Header: []string{"workload", "mean IOPS", "peak IOPS", "peak/mean", "idle bins %", "<25% bins %"},
	}
	for i, prof := range profiles {
		tr, err := prof.Generate(window, 300+int64(i)+p.Seed)
		if err != nil {
			return nil, err
		}
		ts := metrics.NewTimeSeries(time.Second)
		for _, r := range tr.Requests {
			ts.Add(r.Arrival, 1)
		}
		series[i] = ts
		mean, peak, idle := ts.Stats()
		low := 0
		pts := ts.Dense()
		for _, pt := range pts {
			if pt.V < mean/4 {
				low++
			}
		}
		stats.Rows = append(stats.Rows, []string{
			prof.Name, f1(mean), f1(peak), f1(peak / mean),
			f1(idle * 100), f1(float64(low) / float64(len(pts)) * 100),
		})
	}
	spark := &Table{
		ID:     "fig3-series",
		Title:  "IOPS per second (first 100 s; # = 100 IOPS, + = partial)",
		Header: []string{"t", profiles[0].Name, profiles[1].Name},
	}
	for sec := 0; sec < 100; sec++ {
		row := []string{fmt.Sprintf("%3ds", sec)}
		for _, ts := range series {
			v := 0.0
			for _, pt := range ts.Dense() {
				if int(pt.T/time.Second) == sec {
					v = pt.V
					break
				}
			}
			bar := ""
			for k := 0.0; k+100 <= v; k += 100 {
				bar += "#"
			}
			if int(v)%100 >= 50 {
				bar += "+"
			}
			row = append(row, fmt.Sprintf("%4d %s", int(v), bar))
		}
		spark.Rows = append(spark.Rows, row)
	}
	return []*Table{stats, spark}, nil
}
