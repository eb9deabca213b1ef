// Enterprise: replay an MSR-Cambridge-style volume (usr_0) against a
// five-device RAIS5 array — the paper's Fig. 11 setting — and show how
// the scheme ordering carries over from a single SSD to an array,
// including parity-induced write amplification.
//
//	go run ./examples/enterprise
package main

import (
	"fmt"
	"log"
	"time"

	"edc"
)

func main() {
	const volume = 256 << 20

	prof, err := edc.WorkloadByName("usr0", volume)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := prof.GenerateN(8000, 11)
	if err != nil {
		log.Fatal(err)
	}

	ssd := edc.DefaultSSDConfig()
	ssd.Blocks = 1024 // 256 MiB per member device

	fmt.Println("RAIS5, 5 devices, 64 KiB stripe unit — usr_0-style workload")
	fmt.Printf("%-7s %12s %8s %16s %14s\n",
		"scheme", "mean resp", "ratio", "flash pages", "write amp")
	for _, scheme := range []edc.Scheme{edc.SchemeNative, edc.SchemeLzf, edc.SchemeGzip, edc.SchemeEDC} {
		res, err := edc.Replay(tr, volume,
			edc.WithScheme(scheme),
			edc.WithBackend(edc.RAIS5, 5),
			edc.WithSSDConfig(ssd),
			edc.WithDataProfile(edc.DataProfiles()["enterprise"], 3))
		if err != nil {
			log.Fatalf("%s: %v", scheme, err)
		}
		var host, flash int64
		for _, d := range res.Devices {
			host += d.HostPagesWritten
			flash += d.FlashPagesWritten
		}
		wa := 0.0
		if host > 0 {
			wa = float64(flash) / float64(host)
		}
		fmt.Printf("%-7s %12v %8.2f %16d %14.2f\n",
			scheme,
			res.MeanResponse().Round(time.Microsecond),
			res.TrafficRatio(),
			flash, wa)
	}
	fmt.Println("\nCompression reduces the pages the array writes (data + parity),")
	fmt.Println("which is exactly the endurance benefit the paper targets on RAIS.")
}
