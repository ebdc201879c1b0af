// Package prof wires runtime/pprof into the CLIs: one call at startup, one
// deferred call at exit, driven by the conventional -cpuprofile and
// -memprofile flags. Profiles are written in the format `go tool pprof`
// expects.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath and arranges for a heap profile
// to be written to memPath; either path may be empty to disable that
// profile. Both files are created up front, so a bad path fails here, before
// the run, rather than after it; on error no profile is left running. It
// returns a stop function that must run before the process exits (deferred
// in the CLI run functions, which return an exit code instead of calling
// os.Exit directly for exactly this reason): stop finishes the CPU profile
// and writes the heap profile after a final GC, so the numbers reflect live
// memory, not garbage awaiting collection.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile, memFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		cpuFile = f
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, fmt.Errorf("mem profile: %w", err)
		}
		memFile = f
	}
	return func() error {
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memFile != nil {
			runtime.GC() // flush garbage so the profile shows live objects
			if err := pprof.WriteHeapProfile(memFile); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("mem profile: %w", err)
			}
			if err := memFile.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("mem profile: %w", err)
			}
		}
		return firstErr
	}, nil
}
