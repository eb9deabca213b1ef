package edc

import (
	"errors"

	"edc/internal/core"
	"edc/internal/fault"
	"edc/internal/qos"
)

// Typed facade errors. Every error the facade returns for a
// misconfigured or misused System wraps one of these sentinels, so
// callers branch with errors.Is instead of matching message strings.
var (
	// ErrUnknownScheme reports a Scheme the facade does not recognize.
	ErrUnknownScheme = errors.New("edc: unknown scheme")
	// ErrUnknownWorkload reports a workload name WorkloadByName does not
	// recognize.
	ErrUnknownWorkload = errors.New("edc: unknown workload")
	// ErrUnknownBackend reports a BackendKind outside
	// SingleSSD/RAIS0/RAIS5/HDD.
	ErrUnknownBackend = errors.New("edc: unknown backend kind")
	// ErrReplayed reports a second Play on a single-use System.
	ErrReplayed = core.ErrReplayed
	// ErrUnknownTenant reports a request tagged with a tenant absent
	// from a strict QoSConfig (replay fails the run; tagged serve calls
	// return it per operation).
	ErrUnknownTenant = qos.ErrUnknownTenant
	// ErrAdmissionRejected reports a tagged operation refused admission
	// because its tenant exceeded the configured queue depth.
	ErrAdmissionRejected = qos.ErrAdmissionRejected
)

// FaultError is one injected device failure, carried inside replay
// errors when a fault plan exhausts the pipeline's recovery budget.
// Extract it with errors.As; classify it with errors.Is against
// ErrFaultTransient / ErrFaultHard.
type FaultError = fault.Error

// Fault classification sentinels (errors.Is targets for a FaultError).
var (
	// ErrFaultTransient classifies a retryable injected fault.
	ErrFaultTransient = fault.ErrTransient
	// ErrFaultHard classifies a hard (media) injected fault.
	ErrFaultHard = fault.ErrHard
)
