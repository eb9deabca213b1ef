// Command edcfsck checks EDC on-disk artifacts: mapping-table snapshots
// (written by core.Mapping.SaveSnapshot) and append-only write journals
// (written by core.Journal). It verifies structure, checksums and
// internal invariants, and prints a summary.
//
// Usage:
//
//	edcfsck -kind snapshot -capacity 512 mapping.edcm
//	edcfsck -kind journal journal.edcj
//	edcfsck -kind journal -snapshot mapping.edcm -capacity 512 journal.edcj
//
// With -snapshot, the journal is replayed on top of the snapshot the
// way crash recovery would, and the recovered mapping's invariants are
// checked — a dry run of core.RecoverMapping. Relocate records (written
// by background maintenance) are verified like the recovery path
// verifies them: the old slot must still be mapped to the run being
// moved (a second relocation of the same slot is refused as a double
// free) and its recorded size must match the mapping. Dedup records
// (journal v2: "ED" ref / "EU" unref, see DESIGN.md appendix A) are
// verified the same way — a ref's target extent must be live with the
// recorded identity, and an unref of a still-mapped extent, or a second
// unref of the same slot, is refused. The invariant check cross-counts
// every extent's reference count against the mapping table, so a
// snapshot or recovery whose refcounts disagree with the table fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"edc/internal/core"
)

func main() {
	var (
		kind     = flag.String("kind", "snapshot", "artifact kind: snapshot or journal")
		capacity = flag.Int64("capacity", 1024, "backing device capacity in MiB")
		snapPath = flag.String("snapshot", "", "journal: replay onto this snapshot and check the recovered mapping")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: edcfsck [-kind snapshot|journal] <file>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()

	switch *kind {
	case "snapshot":
		alloc := core.NewAllocator(*capacity << 20)
		m, err := core.LoadSnapshot(f, alloc, nil)
		if err != nil {
			fatalf("snapshot invalid: %v", err)
		}
		if err := m.CheckInvariants(); err != nil {
			fatalf("snapshot inconsistent: %v", err)
		}
		fmt.Printf("snapshot OK: %d live blocks in %d extents, %.1f MiB slots in use, %.1f MiB pinned by partially-dead extents\n",
			m.LiveBlocks(), m.Extents(),
			float64(alloc.InUse())/(1<<20), float64(m.DeadSlotBytes())/(1<<20))
	case "journal":
		data, err := io.ReadAll(f)
		if err != nil {
			fatalf("%v", err)
		}
		records, torn, err := core.CheckJournal(data)
		if err != nil {
			fatalf("journal invalid after %d good records: %v", records, err)
		}
		recs, err := core.DecodeJournal(data)
		if err != nil {
			fatalf("journal invalid: %v", err)
		}
		var relocs, refs, unrefs int
		for _, r := range recs {
			switch {
			case r.Relocate:
				relocs++
			case r.Ref:
				refs++
			case r.Unref:
				unrefs++
			}
		}
		inserts := records - relocs - refs - unrefs
		// Dedup (v2) records extend the summary only when present, so
		// journals from dedup-off runs print the historical line.
		dedupTail := ""
		if refs+unrefs > 0 {
			dedupTail = fmt.Sprintf(", %d refs, %d unrefs", refs, unrefs)
		}
		tail := ""
		if torn {
			tail = ", torn tail dropped"
		}
		if *snapPath == "" {
			fmt.Printf("journal OK: %d records (%d inserts, %d relocates%s)%s\n",
				records, inserts, relocs, dedupTail, tail)
			return
		}
		snap, err := os.ReadFile(*snapPath)
		if err != nil {
			fatalf("%v", err)
		}
		alloc := core.NewAllocator(*capacity << 20)
		m, replayed, err := core.RecoverMapping(snap, data, alloc)
		if err != nil {
			fatalf("recovery failed: %v", err)
		}
		if err := m.CheckInvariants(); err != nil {
			fatalf("recovered mapping inconsistent: %v", err)
		}
		fmt.Printf("journal OK: %d records (%d inserts, %d relocates%s)%s; recovery OK: %d replayed onto snapshot, %d live blocks in %d extents, %.1f MiB slots in use\n",
			records, inserts, relocs, dedupTail, tail, replayed, m.LiveBlocks(), m.Extents(),
			float64(alloc.InUse())/(1<<20))
	default:
		fatalf("unknown kind %q", *kind)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "edcfsck: "+format+"\n", args...)
	os.Exit(1)
}
