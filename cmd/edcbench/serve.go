package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"edc/internal/bench"
	"edc/internal/workload"
)

// loadSpec resolves the -spec value: an existing file is read whole;
// anything else is treated as inline DSL with ';' standing in for
// newlines so a multi-step spec fits on one command line.
func loadSpec(v string) (workload.Spec, error) {
	if v == "" {
		return nil, fmt.Errorf("-serve requires -spec (a spec file or inline DSL)")
	}
	src := v
	if b, err := os.ReadFile(v); err == nil {
		src = string(b)
	} else {
		src = strings.ReplaceAll(v, ";", "\n")
	}
	return workload.ParseSpec(src)
}

// runServe performs one open-loop serve run of the spec and prints the
// per-step table (or, with -json, the full machine-readable
// ServeResult).
func runServe(sp bench.ServeParams, specArg, format string, jsonOut bool, stdout io.Writer) error {
	spec, err := loadSpec(specArg)
	if err != nil {
		return err
	}
	sp.Spec = spec
	sr, err := bench.RunServe(sp)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(sr)
	}
	return bench.WriteTables(stdout, []*bench.Table{bench.ServeTable(sr)}, format)
}
