// Package hostprof profiles the simulator itself, the host program, for
// the -cpuprofile and -memprofile flags of mcsim and sweep. What the
// simulated machine does is package metrics' business; this is where
// the host's time and memory go, read with `go tool pprof`.
package hostprof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath and returns stop, which
// ends it and writes an allocation profile (every allocation since the
// process started, as `go test -memprofile` does) to memPath. An empty
// path skips that profile; with both empty Start does nothing and stop
// returns nil.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("hostprof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("hostprof: %w", err)
		}
	}
	return func() error {
		if err := finish(cpu, memPath); err != nil {
			return fmt.Errorf("hostprof: %w", err)
		}
		return nil
	}, nil
}

// finish ends the CPU profile into cpu, if any, and writes the
// allocation profile to memPath, if any.
func finish(cpu *os.File, memPath string) error {
	if cpu != nil {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
	}
	if memPath == "" {
		return nil
	}
	f, err := os.Create(memPath)
	if err != nil {
		return err
	}
	runtime.GC() // bring the profile's statistics up to date
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
