// Package core implements the paper's contribution: the Elastic Data
// Compression (EDC) block layer. It contains the workload monitor
// (calculated-IOPS measurement, Sec. III-D), the sampling compressibility
// estimator, the sequentiality detector (Sec. III-E, Fig. 7), the
// quantized-slot mapping table (Sec. III-C, Fig. 5), the elastic policy
// and its fixed-algorithm baselines, and the event-driven block device
// that replays traces against a simulated backend: one SSD, a RAIS
// array or a disk, all members of the one Backend type (backend.go).
//
// # Pipeline
//
// A Device is pure wiring over four stages, each in its own file:
//
//   - frontend: closed-loop admission control with a deferred FIFO
//     (frontend.go)
//   - write path: SD merge → compressibility estimate → policy codec
//     choice → the store step (writepath.go)
//   - read path: host cache → mapping lookup → device read →
//     decompression → optional verification (readpath.go)
//   - store engine: slot allocator, mapping table, backend, and the one
//     store step (codec hand-off, slot decision, allocation, device write)
//     host writes and relocations both call (engine.go), over the
//     Backend: member devices with their own queues and fault streams
//     behind a layout (backend.go)
//
// Replay runs on a virtual-time event loop (internal/sim); codec work is
// charged the deterministic per-codec time (cost.go) on the one host CPU
// station, so results are machine-independent and bit-reproducible. Whatever drives a Device
// — Play, PlayUntil, or a serve shard's loop — brackets the run with
// open and close (device.go): persistence and background timers armed,
// one queue on the process-wide codec pool (internal/parallel), parked
// verifications joined at the end. ShardedDevice (replay) and Server
// (live traffic) cut the volume by LBA with one partition type and build
// their n independent pipelines from one ShardSetup.
//
// # Observability
//
// Every stage carries an optional *obs.Collector (Options.Obs): one hook
// call per decision — admit/defer, SD merge/flush with reason, estimator
// verdict, policy codec choice with the calculated IOPS it saw, slot
// class and waste, cache hit/miss, decompression. A nil collector is a
// no-op and the instrumented replay is bit-identical to an
// uninstrumented one; sharded replays buffer per shard and merge
// deterministically. See OBSERVABILITY.md at the repository root.
package core
