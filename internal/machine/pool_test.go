package machine

import (
	"runtime/debug"
	"sync"
	"testing"

	"memsim/internal/consistency"
	"memsim/internal/isa"
)

// TestIdleMachinesAge: a released machine is what the next Acquire of
// its processor count gets, also after one collection; after two it is
// the GC's, as from a sync.Pool. Collections are off while the test
// ages the pool by hand. Workers then share the lists with the ageing,
// as memsimd's workers share them with the finalizer (run with -race).
func TestIdleMachinesAge(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	halt := []isa.Inst{{Op: isa.HALT}}
	cfg := Config{Procs: 2, Model: consistency.RC, CacheSize: 1 << 10, LineSize: 16, SharedWords: 64}
	acquire := func() *Machine {
		m, err := Acquire(cfg, [][]isa.Inst{halt, halt})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ageIdle()
	ageIdle()
	m := acquire()
	m.Release()
	if acquire() != m {
		t.Fatal("Acquire built a machine with a released one waiting")
	}
	m.Release()
	ageIdle()
	if acquire() != m {
		t.Fatal("a machine released before one collection was not reused")
	}
	m.Release()
	ageIdle()
	ageIdle()
	if acquire() == m {
		t.Fatal("a machine that waited through two collections was reused")
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m, err := Acquire(cfg, [][]isa.Inst{halt, halt})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Run(0); err != nil {
					t.Error(err)
				}
				m.Release()
				if i%10 == 0 {
					ageIdle()
				}
			}
		}()
	}
	wg.Wait()
}
