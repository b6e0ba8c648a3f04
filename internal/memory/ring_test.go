package memory

import (
	"math/rand"
	"testing"
)

// Differential test: the ring deque against a plain slice, the
// transparently correct reference, on random mixes of the three things
// the module does to its input queue: push one at the back (Receive),
// pop one from the front (kick), and put a batch back at the front in
// order (replayPending). After every operation the two must agree
// element for element.

func checkSame(t *testing.T, step int, r *ring[int], ref []int) {
	t.Helper()
	if r.len() != len(ref) {
		t.Fatalf("step %d: ring holds %d, reference %d", step, r.len(), len(ref))
	}
	for i, want := range ref {
		if got := r.at(i); got != want {
			t.Fatalf("step %d: element %d is %d, reference %d", step, i, got, want)
		}
	}
	if n := len(r.buf); n&(n-1) != 0 {
		t.Fatalf("step %d: buffer length %d is not a power of two", step, n)
	}
}

func TestRingAgainstSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r ring[int]
		var ref []int
		next := 0
		wrapped, grewWrapped := false, false
		// Growth must unwrap a queue that straddles the end of its buffer.
		noteGrowth := func() {
			if r.n == len(r.buf) && r.head != 0 {
				grewWrapped = true
			}
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				noteGrowth()
				r.pushBack(next)
				ref = append(ref, next)
				next++
			case op < 9:
				for k := rng.Intn(8); k >= 0 && len(ref) > 0; k-- {
					if got := r.popFront(); got != ref[0] {
						t.Fatalf("seed %d step %d: popped %d, reference %d", seed, step, got, ref[0])
					}
					ref = ref[1:]
				}
			default:
				// A batch goes back to the front keeping its order, the
				// way replayPending does it.
				batch := make([]int, rng.Intn(40))
				for i := range batch {
					batch[i] = next
					next++
				}
				for i := len(batch) - 1; i >= 0; i-- {
					noteGrowth()
					r.pushFront(batch[i])
				}
				ref = append(batch, ref...)
			}
			if r.head+r.n > len(r.buf) {
				wrapped = true
			}
			checkSame(t, step, &r, ref)
		}
		if !wrapped || !grewWrapped {
			t.Errorf("seed %d: wrapped=%v grew-while-wrapped=%v; the script never reached the cases it is for",
				seed, wrapped, grewWrapped)
		}
	}
}

// TestRingWarmAllocatesNothing: once the buffer has reached the
// queue's high-water mark, no mix of operations below it allocates.
func TestRingWarmAllocatesNothing(t *testing.T) {
	var r ring[int]
	for i := 0; i < 100; i++ {
		r.pushBack(i)
	}
	for r.len() > 0 {
		r.popFront()
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 40; i++ {
			r.pushBack(i)
		}
		for i := 0; i < 60; i++ {
			r.pushFront(i)
		}
		for r.len() > 0 {
			r.popFront()
		}
	})
	if avg != 0 {
		t.Errorf("warm ring allocates %v times per round, want 0", avg)
	}
}
