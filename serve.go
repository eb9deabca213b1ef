package edc

import (
	"context"
	"errors"
	"time"

	"edc/internal/core"
)

// Serve mode runs the configured EDC stack live instead of replaying a
// recorded trace: after Serve, any number of goroutines may call
// Read/Write concurrently; requests route by LBA to per-shard pipelines
// whose event loops run as long-lived goroutines draining bounded
// submission mailboxes. Latency is open-loop in virtual time — measured
// from each operation's intended arrival stamp to its virtual
// completion — so offered load beyond the simulated device's capacity
// surfaces as unbounded queueing delay, exactly the signal closed-loop
// replay cannot produce. StopServe drains everything and returns the
// same Results a replay would.

// ErrNotServing reports a serve-mode call (Read, Write, StopServe) on a
// System that never entered serve mode.
var ErrNotServing = errors.New("edc: system is not serving (call Serve first)")

// ErrServeStopped reports a submission to — or a second StopServe of — a
// System whose serving already stopped.
var ErrServeStopped = core.ErrServeStopped

// Serve switches the System into live serving. It consumes the System's
// single use (a later Play returns ErrReplayed) and is incompatible with
// power-cut fault plans. After Serve returns, every submission method is
// goroutine-safe.
//
// Each shard runs its virtual clock only up to the highest arrival stamp
// it has admitted (its watermark): a completion past the newest stamp
// waits for a later arrival or StopServe, so an engine that ran dry can
// never clamp an arrival still in flight to wherever its clock happened
// to be. A load generator that submits in global stamp order through
// SubmitAt and awaits concurrently therefore gets virtual-time results
// that are a pure function of its operations, independent of GOMAXPROCS
// and mailbox batching. The blocking calls (Read, Write, ReadAt,
// WriteAt, ReadAtTag, WriteAtTag) wait on their own operation, which no
// later arrival from their caller can release, so while one waits its
// shard runs on past the watermark.
func (s *System) Serve() error {
	if s.played {
		return ErrReplayed
	}
	s.played = true
	srv, err := core.NewServer(s.cfg.serve)
	if err != nil {
		return err
	}
	s.srv = srv
	return nil
}

// Read submits one read of [off, off+size) arriving as soon as possible
// and blocks until it completes, returning the open-loop virtual
// latency. Goroutine-safe; ctx cancels the wait.
func (s *System) Read(ctx context.Context, off, size int64) (time.Duration, error) {
	return s.do(ctx, 0, off, size, false, "")
}

// Write submits one write of [off, off+size) arriving as soon as
// possible and blocks until it completes. Goroutine-safe.
func (s *System) Write(ctx context.Context, off, size int64) (time.Duration, error) {
	return s.do(ctx, 0, off, size, true, "")
}

// ReadAt is Read with an explicit intended virtual arrival stamp (offset
// from serve start): the shard admits the operation no earlier than at,
// and the returned latency is measured from at — the
// coordinated-omission-free open-loop measurement a stamped generator
// wants.
func (s *System) ReadAt(ctx context.Context, at time.Duration, off, size int64) (time.Duration, error) {
	return s.do(ctx, at, off, size, false, "")
}

// WriteAt is Write with an explicit intended virtual arrival stamp; see
// ReadAt.
func (s *System) WriteAt(ctx context.Context, at time.Duration, off, size int64) (time.Duration, error) {
	return s.do(ctx, at, off, size, true, "")
}

// ReadAtTag is ReadAt with the submitting tenant's tag: the operation
// is shaped by the tenant's bandwidth schedule, bounded by its queue
// depth (ErrAdmissionRejected), and accounted in the tenant's own
// Results section. Under a strict QoSConfig an unknown tenant fails
// with ErrUnknownTenant. The empty tag is untagged traffic and behaves
// exactly as ReadAt.
func (s *System) ReadAtTag(ctx context.Context, at time.Duration, off, size int64, tenant string) (time.Duration, error) {
	return s.do(ctx, at, off, size, false, tenant)
}

// WriteAtTag is WriteAt with the submitting tenant's tag; see
// ReadAtTag.
func (s *System) WriteAtTag(ctx context.Context, at time.Duration, off, size int64, tenant string) (time.Duration, error) {
	return s.do(ctx, at, off, size, true, tenant)
}

// do is the one blocking call every blocking method makes.
func (s *System) do(ctx context.Context, at time.Duration, off, size int64, write bool, tenant string) (time.Duration, error) {
	if s.srv == nil {
		return 0, ErrNotServing
	}
	return s.srv.Do(ctx, at, off, size, write, tenant)
}

// Await blocks for one submitted operation's completion; see SubmitAt.
// Call it once: a second call fails at once instead of waiting, and
// never returns another operation's result. A call whose context was
// cancelled does not count; the next call still gets the result.
type Await = core.Await

// SubmitAt mails one stamped operation to its shard(s) and returns an
// Await for its completion instead of blocking. A load generator that
// submits operations in global stamp order through SubmitAt keeps every
// shard's virtual clock behind the stamps still to come, so the
// reported open-loop latencies measure true queueing delay rather than
// submission-order skew between client goroutines (internal/bench's
// serve driver sequences its clients through this). A completion past
// the newest stamp is released by a later arrival or by StopServe, so
// await concurrently, or stop before awaiting the tail.
func (s *System) SubmitAt(ctx context.Context, at time.Duration, off, size int64, write bool) (Await, error) {
	if s.srv == nil {
		return nil, ErrNotServing
	}
	return s.srv.SubmitAt(ctx, at, off, size, write)
}

// SubmitAtTag is SubmitAt with the submitting tenant's tag; see
// ReadAtTag for the tag's semantics.
func (s *System) SubmitAtTag(ctx context.Context, at time.Duration, off, size int64, write bool, tenant string) (Await, error) {
	if s.srv == nil {
		return nil, ErrNotServing
	}
	return s.srv.SubmitAtTag(ctx, at, off, size, write, tenant)
}

// ServeStalls returns how many submissions so far found a full shard
// mailbox and had to block — the serve-mode backpressure signal.
func (s *System) ServeStalls() int64 {
	if s.srv == nil {
		return 0
	}
	return s.srv.Stalls()
}

// StopServe closes the intake, drains every shard's mailbox and
// pipeline, and returns the merged Results (the same shape a replay
// produces, plus Results.SubmitStalls).
func (s *System) StopServe() (*Results, error) {
	if s.srv == nil {
		return nil, ErrNotServing
	}
	return s.srv.Stop()
}
