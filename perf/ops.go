package main

import (
	"fmt"
	"math/rand"
	"time"

	"edc/internal/workload"
)

// opStream is the compact form every serve request is generated into
// during set-up: 16 bytes per operation (intended virtual arrival, and
// byte offset with the write bit folded in), all of one block size. The
// product sees only what submit unpacks from it.
type opStream struct {
	stamp []int64  // intended virtual arrival, ns from serve start
	key   []uint64 // byte offset<<1 | write bit
	bs    int64    // block size of every operation
}

func packOp(off int64, write bool) uint64 {
	k := uint64(off) << 1
	if write {
		k |= 1
	}
	return k
}

func unpackOp(k uint64) (off int64, write bool) {
	return int64(k >> 1), k&1 == 1
}

func (s *opStream) len() int { return len(s.stamp) }

func (s *opStream) add(at time.Duration, off int64, write bool) {
	s.stamp = append(s.stamp, int64(at))
	s.key = append(s.key, packOp(off, write))
}

// at returns operation i unpacked.
func (s *opStream) at(i int) (stamp time.Duration, off int64, write bool) {
	off, write = unpackOp(s.key[i])
	return time.Duration(s.stamp[i]), off, write
}

// settleGap separates the last preload stamp from the barrier read that
// follows it. Paced serve completes an operation only once a later
// arrival has moved the shard's watermark past its completion time, so
// the barrier must arrive after the slowest preload write has finished
// (sub-millisecond here) — and soon enough that the intensity monitor's
// 62.5 ms fast window still holds preload traffic when the timed phase
// begins, so the first timed writes see the same calculated IOPS as the
// rest.
const settleGap = 10 * time.Millisecond

// preloadOps writes every block of the volume once, in a seeded permuted
// order at the timed phase's block size and rate, then reads block 0 as
// the barrier. Permuted because a sequential fill lets the SD merge runs
// to its cap, after which every small read fetches and decodes a whole
// merged extent and the virtual device saturates.
func preloadOps(seed int64, volume, bs int64, qps float64) *opStream {
	n := int(volume / bs)
	s := &opStream{bs: bs, stamp: make([]int64, 0, n+1), key: make([]uint64, 0, n+1)}
	gap := time.Duration(float64(time.Second) / qps)
	rng := rand.New(rand.NewSource(seed ^ 0x70726566))
	var at time.Duration
	for _, blk := range rng.Perm(n) {
		at += gap
		s.add(at, int64(blk)*bs, true)
	}
	s.add(at+settleGap, 0, false)
	return s
}

// timedOps draws exactly n operations of step from the product's
// open-loop generator, their stamps offset by base.
func timedOps(step workload.Step, volume, seed int64, n int, base time.Duration) (*opStream, error) {
	step.D = 1000 * time.Hour // the op count bounds the stream, not the duration
	st, err := workload.NewStream(workload.Spec{step}, volume, seed, 0, 1)
	if err != nil {
		return nil, err
	}
	s := &opStream{bs: step.BS, stamp: make([]int64, 0, n), key: make([]uint64, 0, n)}
	for s.len() < n {
		op, ok := st.Next()
		if !ok {
			return nil, fmt.Errorf("perf: open-loop stream ended after %d of %d operations", s.len(), n)
		}
		s.add(base+op.At, op.Off, op.Write)
	}
	return s, nil
}
