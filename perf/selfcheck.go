package main

import (
	"fmt"

	"edc"
)

// selfCheckMain implements `perf selfcheck`: does the benchmark measure
// what it says? Two orderings that must hold if the workloads exercise
// the layers they claim to, run once when the benchmark is (re)cut and
// recorded in README.md — not part of the timed runs.
//
//   - replay-fin1-write under Native, EDC and Gzip must order ops_per_s
//     Native > EDC > Gzip (more codec work, less throughput) and
//     stored_per_user_byte Native > EDC > Gzip (more codec work, less
//     space);
//   - serve-hot-small without its cache must lose ops_per_s (every read
//     then walks the mapping and the device model instead of one LRU
//     probe).
func selfCheckMain(seed int64, seconds int) int {
	ok := true
	fin1 := workloadByName("replay-fin1-write")
	var ops, stored []float64
	for _, scheme := range []edc.Scheme{edc.SchemeNative, edc.SchemeEDC, edc.SchemeGzip} {
		w := *fin1
		w.scheme, w.setups = scheme, 1
		p, err := w.run(seed, w.rate*seconds, nil, false)
		if err != nil || p.failed != 0 {
			fmt.Printf("replay-fin1-write under %s failed: %v %s\n", scheme, err, p.why)
			return 1
		}
		v := endToEndValues(p)
		fmt.Printf("replay-fin1-write  %-6s  ops_per_s %10.1f  stored_per_user_byte %.4f\n", scheme, v["ops_per_s"], v["stored_per_user_byte"])
		ops, stored = append(ops, v["ops_per_s"]), append(stored, v["stored_per_user_byte"])
	}
	if !(ops[0] > ops[1] && ops[1] > ops[2]) || !(stored[0] > stored[1] && stored[1] > stored[2]) {
		fmt.Println("FAIL: Native > EDC > Gzip does not hold for both metrics")
		ok = false
	}

	hot := workloadByName("serve-hot-small")
	var hotOps []float64
	for _, cache := range []int64{hot.cache, 0} {
		w := *hot
		w.cache, w.setups = cache, 1
		// Without the cache the 18k reads/s exceed the simulated device, so
		// the below-the-knee check fails by design; only wall-clock
		// throughput is compared.
		p, err := w.run(seed, w.rate*seconds, nil, false)
		if err != nil {
			fmt.Printf("serve-hot-small with cache %d failed: %v\n", cache, err)
			return 1
		}
		v := endToEndValues(p)
		fmt.Printf("serve-hot-small    cache %3d MiB  ops_per_s %10.1f\n", cache/mib, v["ops_per_s"])
		hotOps = append(hotOps, v["ops_per_s"])
	}
	if !(hotOps[0] > hotOps[1]) {
		fmt.Println("FAIL: removing the cache did not cost ops_per_s")
		ok = false
	}
	if !ok {
		return 1
	}
	fmt.Println("self-check OK")
	return 0
}
