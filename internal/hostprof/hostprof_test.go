package hostprof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", p, err)
		}
	}
}

func TestStartWithoutPathsDoesNothing(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartReportsUnwritablePath(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "p.pprof")
	if _, err := Start(missing, ""); err == nil {
		t.Error("cpu profile in a missing directory: no error")
	}
	stop, err := Start("", missing)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("allocation profile in a missing directory: no error")
	}
}
