package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/parallel"
	"edc/internal/trace"
)

// verifyProbe sits on a device's read entry and completion callbacks. It
// corrupts the kept payload of the k-th verified read (a read of one
// compressed extent) just before that read is issued, and records — in
// verified reads completed — when that read completed and when the
// pipeline's failure first became visible.
type verifyProbe struct {
	dev *Device
	k   int // 1-based ordinal among verified reads; 0 corrupts nothing

	issued     int // verified reads issued
	completed  int // verified reads completed
	victimOff  int64
	victimDone int // completed count at the corrupted read's completion
	noticed    int // completed count when the failure was first visible; 0 if only at exit
}

func attachVerifyProbe(d *Device, k int) *verifyProbe {
	p := &verifyProbe{dev: d, k: k, victimOff: -1}
	onRead := d.fe.onRead
	d.fe.onRead = func(issue time.Duration, off, size int64, done func(time.Duration)) {
		plan, err := d.se.mapping.ReadPlan(off, size)
		var ext *Extent
		if err == nil && len(plan) == 1 && plan[0].Ext != nil && plan[0].Ext.Tag != compress.TagNone {
			ext = plan[0].Ext
		}
		if ext == nil {
			onRead(issue, off, size, done)
			return
		}
		p.issued++
		victim := p.issued == p.k
		if victim {
			// Half a stream cannot decode to the whole extent, in any codec.
			kept := d.se.payloads[ext]
			d.se.payloads[ext] = append([]byte(nil), kept[:len(kept)/2]...)
			p.victimOff = ext.Offset
		}
		onRead(issue, off, size, func(resp time.Duration) {
			// finishRead runs this after the read's verification was
			// parked (or, inline, performed).
			p.completed++
			if victim {
				p.victimDone = p.completed
			}
			if p.noticed == 0 && d.fs.failed() {
				p.noticed = p.completed
			}
			if done != nil {
				done(resp)
			}
		})
	}
	return p
}

// check holds one finished run to the lagged-join contract: err is the
// mismatch naming the corrupted extent, it was noticed no more than one
// ring of verified reads after the corrupted read completed (or at the
// exit drain), nothing is left parked, and the ring is empty.
func (p *verifyProbe) check(t *testing.T, what string, err error, pooled bool) {
	t.Helper()
	if p.victimOff < 0 {
		t.Fatalf("%s: only %d verified reads were issued; corruption at read %d never happened", what, p.issued, p.k)
	}
	want := fmt.Sprintf("extent at %d", p.victimOff)
	if err == nil || !strings.Contains(err.Error(), "core: verify:") || !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: error %v; want the verification failure naming %q", what, err, want)
	}
	rp := p.dev.rp
	window := 0
	if pooled {
		window = len(rp.lag)
		q := parallel.Shared().NewQueue()
		backlog := q.Cap()
		q.Close()
		if window != backlog {
			t.Fatalf("%s: lag ring holds %d futures; the executor's backlog is %d", what, window, backlog)
		}
	}
	if p.noticed != 0 && (p.noticed < p.victimDone || p.noticed > p.victimDone+window) {
		t.Fatalf("%s: corrupted read completed as verified read %d, failure noticed at %d; window is %d",
			what, p.victimDone, p.noticed, window)
	}
	if !pooled && p.victimDone != 0 && p.noticed != p.victimDone {
		t.Fatalf("%s: inline verification noticed the failure at read %d, not at the corrupted read %d",
			what, p.noticed, p.victimDone)
	}
	if rp.lagN != 0 {
		t.Fatalf("%s: %d verifications still parked after the run", what, rp.lagN)
	}
	for i, f := range rp.lag {
		if f != nil {
			t.Fatalf("%s: ring slot %d still holds a future", what, i)
		}
	}
}

// sameAs requires two runs of one scenario to have failed at the same
// operation.
func (p *verifyProbe) sameAs(t *testing.T, what string, q *verifyProbe) {
	t.Helper()
	if p.victimOff != q.victimOff || p.victimDone != q.victimDone || p.noticed != q.noticed || p.completed != q.completed {
		t.Fatalf("%s: runs differ: victim %d/%d done %d/%d noticed %d/%d completed %d/%d", what,
			p.victimOff, q.victimOff, p.victimDone, q.victimDone, p.noticed, q.noticed, p.completed, q.completed)
	}
}

// checkVerifySnapshots requires verify mode to hold a payload for every
// live compressed extent and for nothing else: a read of a raw extent
// verifies nothing, so a snapshot of one would be dead weight.
func checkVerifySnapshots(t *testing.T, what string, se *storeEngine) {
	t.Helper()
	raw, comp := 0, 0
	se.mapping.eachExtent(func(e *Extent) {
		_, kept := se.payloads[e]
		if e.Tag == compress.TagNone {
			raw++
			if kept {
				t.Errorf("%s: raw extent at %d holds a payload snapshot", what, e.Offset)
			}
			return
		}
		comp++
		if !kept {
			t.Errorf("%s: compressed extent at %d holds no payload snapshot", what, e.Offset)
		}
	})
	if raw == 0 || comp == 0 {
		t.Fatalf("%s: %d raw and %d compressed extents; the check needs both", what, raw, comp)
	}
	if len(se.payloads) != comp {
		t.Fatalf("%s: %d payload snapshots for %d live compressed extents", what, len(se.payloads), comp)
	}
}

// TestVerifyKeepsCompressedPayloadsOnly checks the snapshots a verify-mode
// device keeps, live and after crash recovery rebuilt them.
func TestVerifyKeepsCompressedPayloadsOnly(t *testing.T) {
	opts := Options{Data: datagen.New(datagen.Enterprise(), 11), VerifyReads: true}
	eng1, be1 := freshSSDRig(t)
	dev1, err := NewDevice(eng1, be1, 256<<20, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, cs, err := dev1.PlayUntil(seqTrace(600, 2*time.Millisecond), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	checkVerifySnapshots(t, "live", dev1.se)

	eng2, be2 := freshSSDRig(t)
	dev2, err := RecoverDevice(eng2, be2, 256<<20, opts, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkVerifySnapshots(t, "recovered", dev2.se)
}

const verifyTraceOps = 900

// verifyTrace fills 64 slots of 16 KiB with 8 KiB writes (far enough
// apart that no two merge, so every read covers exactly one extent), then
// reads them back three times for every rewrite.
func verifyTrace() *trace.Trace {
	tr := &trace.Trace{Name: "verify"}
	for i := 0; i < verifyTraceOps; i++ {
		slot, write := i, true
		if i >= 64 {
			slot, write = i*13, i%4 == 0
		}
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: time.Duration(i) * 50 * time.Microsecond,
			Offset:  int64(slot%64) * 16384, Size: 8192, Write: write,
		})
	}
	return tr
}

// verifyOptions routes verification through the pool whatever the host's
// core count, over content that mostly compresses.
func verifyOptions() Options {
	return Options{ReplayWorkers: 2, Data: datagen.New(datagen.LinuxSrc(), 11)}
}

// playCorrupted replays the standard unit trace on a fresh pooled rig,
// corrupting verified read k.
func playCorrupted(t *testing.T, k int) (*verifyProbe, *RunStats, error) {
	t.Helper()
	rig := newTestRig(t, verifyOptions())
	p := attachVerifyProbe(rig.dev, k)
	st, err := rig.dev.Play(verifyTrace())
	return p, st, err
}

// TestLaggedVerifyFailureSurfaces corrupts one kept payload before a read
// in the middle of a run and before the last verified read of a run: the
// first must fail the run within one ring of verified reads, the second
// only at the exit drain, and both must come back from Play in the error
// and in Results.Err, identically on every run.
func TestLaggedVerifyFailureSurfaces(t *testing.T) {
	clean, _, err := playCorrupted(t, 0)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if clean.issued < 100 || clean.issued != clean.completed {
		t.Fatalf("clean run: %d verified reads issued, %d completed; the trace should verify at least 100", clean.issued, clean.completed)
	}
	cleanFree := len(clean.dev.se.freeBufs)

	var first *verifyProbe
	for run := 0; run < 3; run++ {
		p, st, err := playCorrupted(t, clean.issued/2)
		p.check(t, "Play, mid-run", err, true)
		if st.Err == nil || st.Err.Error() != err.Error() {
			t.Fatalf("Play, mid-run: RunStats.Err %v; want %v", st.Err, err)
		}
		if p.noticed == 0 {
			t.Fatalf("Play, mid-run: failure at verified read %d of %d was only noticed at exit", p.victimDone, clean.issued)
		}
		if first == nil {
			first = p
		}
		p.sameAs(t, "Play, mid-run", first)
	}

	// The last verified read of the run: nothing completes after it, so
	// only the drain in close can notice — and everything up to there
	// ran as in the clean run, so the freelist must end where the clean
	// run's did: every parked future gave its two buffers back.
	p, st, err := playCorrupted(t, clean.issued)
	p.check(t, "Play, last read", err, true)
	if p.noticed != 0 {
		t.Fatalf("Play, last read: noticed at verified read %d, before the exit drain", p.noticed)
	}
	if st.Err == nil {
		t.Fatal("Play, last read: RunStats.Err is nil")
	}
	if got := len(p.dev.se.freeBufs); got != cleanFree {
		t.Fatalf("Play, last read: freelist holds %d buffers after the drain; the clean run ends with %d", got, cleanFree)
	}
}

// TestVerifyFailureSurfacesPlayUntil checks the power-cut replay: it
// opens its run like Play, so verification is pooled and lagged there
// too, and a cut past the end of the trace must fail at the very
// operation Play fails at.
func TestVerifyFailureSurfacesPlayUntil(t *testing.T) {
	played, _, _ := playCorrupted(t, 60)
	for run := 0; run < 2; run++ {
		rig := newTestRig(t, verifyOptions())
		p := attachVerifyProbe(rig.dev, 60)
		_, _, err := rig.dev.PlayUntil(verifyTrace(), time.Second)
		p.check(t, "PlayUntil", err, true)
		p.sameAs(t, "PlayUntil vs Play", played)
	}
}

// TestLaggedVerifyFailureSurfacesServe runs the same corruption through
// a paced single-shard server: Stop must return the mismatch, noticed at
// the same operation however real time slices the mailbox batches.
func TestLaggedVerifyFailureSurfacesServe(t *testing.T) {
	var first *verifyProbe
	for run := 0; run < 3; run++ {
		sv := newPacedServerWith(t, 1, 2<<20, verifyOptions())
		// Before the first submission: the shard's loop reads the hook
		// only after it receives an operation.
		p := attachVerifyProbe(sv.shards[0].dev, 60)
		ctx := context.Background()
		done := make(chan struct{}, verifyTraceOps)
		for i, r := range verifyTrace().Requests {
			aw, err := sv.SubmitAt(ctx, r.Arrival, r.Offset, r.Size, r.Write)
			if err != nil {
				t.Fatal(err)
			}
			// Operations around the failure may or may not report it;
			// every one of them must return.
			go func() { _, _ = aw(ctx); done <- struct{}{} }()
			if run == 1 && i%16 == 0 {
				time.Sleep(200 * time.Microsecond)
			}
		}
		st, err := sv.Stop()
		for i := 0; i < verifyTraceOps; i++ {
			<-done
		}
		p.check(t, "paced serve", err, true)
		if st.Err == nil {
			t.Fatal("paced serve: RunStats.Err is nil")
		}
		if first == nil {
			first = p
		}
		p.sameAs(t, "paced serve", first)
	}
}
