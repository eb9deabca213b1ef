package core

import (
	"sync"
	"testing"
	"time"

	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/parallel"
	"edc/internal/race"
	"edc/internal/sim"
	"edc/internal/ssd"
	"edc/internal/trace"
)

// heldPool is a private codec pool whose every worker is parked on a
// gate, so no job runs on a worker: a job runs when its waiter joins it
// or when a submitter finds the channel full and takes it from the head.
// Verifications then run long after their reads were submitted, at
// points fixed by the operation order.
func heldPool(t *testing.T, workers int) *parallel.SharedPool {
	t.Helper()
	pool := parallel.NewSharedPool(workers)
	gate := make(chan struct{})
	var held sync.WaitGroup
	held.Add(workers)
	q := pool.NewQueue()
	for i := 0; i < workers; i++ {
		parallel.Go(q, func() int { held.Done(); <-gate; return 0 })
	}
	held.Wait()
	t.Cleanup(func() {
		close(gate)
		pool.Close()
	})
	return pool
}

// rewriteTrace fills 32 slots of 16 KiB with 8 KiB writes, then reads a
// slot and overwrites it 500 us later, round after round: the overwrite
// kills the extent the read's verification is still to check. The pace
// keeps the calculated IOPS low enough that the policy compresses.
func rewriteTrace(rounds int) *trace.Trace {
	tr := &trace.Trace{Name: "rewrite"}
	at := time.Duration(0)
	add := func(slot int, write bool) {
		tr.Requests = append(tr.Requests, trace.Request{Arrival: at, Offset: int64(slot%32) * 16384, Size: 8192, Write: write})
		at += 500 * time.Microsecond
	}
	for s := 0; s < 32; s++ {
		add(s, true)
	}
	for r := 0; r < rounds; r++ {
		add(r*7, false)
		add(r*7, true)
	}
	return tr
}

// countPinnedFrees wraps the mapping's slot-release callback to count the
// extents that die while a verified read holds their snapshot pinned.
func countPinnedFrees(se *storeEngine) *int {
	n := new(int)
	free := se.mapping.onFree
	se.mapping.onFree = func(e *Extent) {
		if e.pins > 0 {
			*n++
		}
		free(e)
	}
	return n
}

// checkSnapshotsSettled requires every pin to be released after a run
// and the free list to be within its bound.
func checkSnapshotsSettled(t *testing.T, what string, se *storeEngine) {
	t.Helper()
	se.mapping.eachExtent(func(e *Extent) {
		if e.pins != 0 {
			t.Fatalf("%s: extent at %d still holds %d pins", what, e.Offset, e.pins)
		}
	})
	held := 0
	for _, l := range se.snaps.lists {
		for _, b := range l {
			held += cap(b)
		}
	}
	if held != se.snaps.bytes || held > snapshotPoolBytes {
		t.Fatalf("%s: snapshot free list holds %d bytes, counts %d, bound %d", what, held, se.snaps.bytes, snapshotPoolBytes)
	}
}

const rewriteRounds = 600

// TestVerifyPinsOverwrittenSnapshots replays reads whose extents are
// overwritten while their lagged verifications wait unrun in a held
// pool: the dead extents' buffers must not serve the new snapshots until
// the checks settle, so every verification passes.
func TestVerifyPinsOverwrittenSnapshots(t *testing.T) {
	rig := newTestRig(t, Options{ReplayWorkers: 2, Data: datagen.New(datagen.LinuxSrc(), 11)})
	rig.dev.sharedPool = heldPool(t, 4)
	pinned := countPinnedFrees(rig.dev.se)
	st, err := rig.dev.Play(rewriteTrace(rewriteRounds))
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != rewriteRounds {
		t.Fatalf("%d reads completed, want %d", st.Reads, rewriteRounds)
	}
	if *pinned < rewriteRounds/2 {
		t.Fatalf("only %d of %d overwrites killed an extent with a pinned snapshot", *pinned, rewriteRounds)
	}
	checkSnapshotsSettled(t, "replay", rig.dev.se)
}

// TestVerifyPinsOverwrittenSnapshotsServe is the same scenario through a
// stamp-ordered single-shard server on the held pool.
func TestVerifyPinsOverwrittenSnapshotsServe(t *testing.T) {
	opts := Options{ReplayWorkers: 2, Data: datagen.New(datagen.LinuxSrc(), 11), VerifyReads: true}
	sv, err := NewServer(ServeSetup{
		ShardSetup: ShardSetup{
			Shards:      1,
			VolumeBytes: 2 << 20,
			Backend: func(eng *sim.Engine) (*Backend, error) {
				cfg := ssd.DefaultConfig()
				cfg.Blocks = 512
				d, err := ssd.New(cfg)
				if err != nil {
					return nil, err
				}
				return NewSSDBackend(eng, d), nil
			},
			Options: func(int) (Options, error) { return opts, nil },
		},
		pool: heldPool(t, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Before the first submission: the shard's loop reads the mapping
	// only after it receives an operation.
	se := sv.shards[0].dev.se
	pinned := countPinnedFrees(se)
	st, err := serveLag(t, sv, rewriteTrace(rewriteRounds))
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != rewriteRounds {
		t.Fatalf("%d reads completed, want %d", st.Reads, rewriteRounds)
	}
	if *pinned < rewriteRounds/2 {
		t.Fatalf("only %d of %d overwrites killed an extent with a pinned snapshot", *pinned, rewriteRounds)
	}
	checkSnapshotsSettled(t, "serve", se)
}

// TestVerifyCutAbandonsPins cuts power just after a verified read was
// submitted: the abandoned read keeps its pin, so its snapshot's buffer
// must stay out of the free list, and the recovered device — whose
// engine shares nothing with the cut one — must verify every read of the
// rest of the trace.
func TestVerifyCutAbandonsPins(t *testing.T) {
	opts := Options{ReplayWorkers: 2, Data: datagen.New(datagen.LinuxSrc(), 11), VerifyReads: true}
	tr := rewriteTrace(rewriteRounds)
	mid := len(tr.Requests) / 2
	for tr.Requests[mid].Write {
		mid++
	}
	cut := tr.Requests[mid].Arrival + 10*time.Microsecond
	eng1, be1 := freshSSDRig(t)
	dev1, err := NewDevice(eng1, be1, 256<<20, opts)
	if err != nil {
		t.Fatal(err)
	}
	dev1.sharedPool = heldPool(t, 4)
	st1, cs, err := dev1.PlayUntil(tr, cut)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Lost == 0 {
		t.Fatal("no request was in flight at the cut")
	}
	pinned := map[*byte]bool{}
	dev1.se.mapping.eachExtent(func(e *Extent) {
		if e.pins > 0 {
			pinned[&dev1.se.payloads[e][0]] = true
		}
	})
	if len(pinned) == 0 {
		t.Fatal("the cut abandoned no pinned snapshot")
	}
	for _, l := range dev1.se.snaps.lists {
		for _, b := range l {
			if pinned[&b[:1][0]] {
				t.Fatal("a pinned snapshot's buffer is on the free list after the cut")
			}
		}
	}

	eng2, be2 := freshSSDRig(t)
	dev2, err := RecoverDevice(eng2, be2, 256<<20, opts, cs)
	if err != nil {
		t.Fatal(err)
	}
	rest := &trace.Trace{Name: tr.Name}
	for _, r := range tr.Requests {
		if r.Arrival > cut {
			rest.Requests = append(rest.Requests, r)
		}
	}
	st2, err := dev2.Play(rest)
	if err != nil {
		t.Fatal(err)
	}
	if got := st1.Resp.Count() + cs.Lost + st2.Resp.Count(); got != int64(len(tr.Requests)) {
		t.Fatalf("%d requests accounted for, want %d", got, len(tr.Requests))
	}
	checkSnapshotsSettled(t, "recovered", dev2.se)
}

// TestSnapshotPoolFit holds take to its slack rule: a recycled buffer
// holds the length asked for with at most an eighth to spare, and put
// stops at the byte bound.
func TestSnapshotPoolFit(t *testing.T) {
	var sp snapshotPool
	for _, c := range []int{1152, 2304, 2688, 3072, 3200, 40960} {
		sp.put(make([]byte, 0, c))
	}
	for n := 1; n <= 48<<10; n++ {
		buf := sp.take(n)
		if buf == nil {
			continue
		}
		if len(buf) != 0 || cap(buf) < n || cap(buf)-n > n/8 {
			t.Fatalf("take(%d) returned len %d cap %d", n, len(buf), cap(buf))
		}
		sp.put(buf)
	}
	for _, n := range []int{1024, 1152, 2100, 2400, 2900, 3150, 37000} {
		buf := sp.take(n)
		if buf == nil {
			t.Errorf("take(%d) found nothing among the fitting buffers", n)
			continue
		}
		sp.put(buf)
	}
	sp = snapshotPool{}
	for i := 0; i < 2*snapshotPoolBytes/4096; i++ {
		sp.put(make([]byte, 0, 4096))
	}
	if sp.bytes != snapshotPoolBytes {
		t.Fatalf("pool holds %d bytes; bound %d", sp.bytes, snapshotPoolBytes)
	}
}

// TestVerifiedReadAllocs bounds a steady-state verified read — planned,
// read from the device, decompressed, regenerated and compared on the
// pool, then parked and settled — at no allocation: the read and segment
// records, the job's future and both scratch buffers are recycled.
func TestVerifiedReadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	d, offs := verifiedReadRig(t)
	i := 0
	read := func() {
		d.fe.dispatch(d.eng.Now(), offs[i%len(offs)], 8192, false, "", nil, nil)
		d.eng.Run()
		i++
	}
	for range 200 { // fill the lag ring and every free list
		read()
	}
	if got := testing.AllocsPerRun(500, read); got > 0.05 {
		t.Fatalf("a verified read allocates %v times; want none", got)
	}
	d.close()
	if d.fs.err != nil {
		t.Fatal(d.fs.err)
	}
}

// verifiedReadRig opens a verify-mode device on a one-worker private
// pool and stores 32 compressed 8 KiB extents; it returns the device and
// their offsets.
func verifiedReadRig(tb testing.TB) (*Device, []int64) {
	tb.Helper()
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Blocks = 2048
	sd, err := ssd.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := NewDevice(eng, NewSSDBackend(eng, sd), 256<<20, Options{
		ReplayWorkers: 2, VerifyReads: true, Data: datagen.New(datagen.LinuxSrc(), 11),
	})
	if err != nil {
		tb.Fatal(err)
	}
	pool := parallel.NewSharedPool(1)
	tb.Cleanup(pool.Close)
	d.sharedPool = pool
	if err := d.open(false); err != nil {
		tb.Fatal(err)
	}
	var offs []int64
	for s := int64(0); s < 32; s++ {
		d.fe.dispatch(d.eng.Now(), s*16384, 8192, true, "", nil, nil)
		d.eng.Run()
		d.wp.drain()
		offs = append(offs, s*16384)
	}
	comp := 0
	d.se.mapping.eachExtent(func(e *Extent) {
		if e.Tag != compress.TagNone {
			comp++
		}
	})
	if comp < len(offs)/2 {
		tb.Fatalf("only %d of %d extents are compressed", comp, len(offs))
	}
	return d, offs
}

// BenchmarkVerifiedRead times one steady-state verified read of a
// compressed 8 KiB extent (see TestVerifiedReadAllocs), its pool job
// included.
func BenchmarkVerifiedRead(b *testing.B) {
	d, offs := verifiedReadRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.fe.dispatch(d.eng.Now(), offs[i%len(offs)], 8192, false, "", nil, nil)
		d.eng.Run()
	}
	b.StopTimer()
	d.close()
	if d.fs.err != nil {
		b.Fatal(d.fs.err)
	}
}
