package workloads

import (
	"fmt"
	"slices"
	"sync"

	"memsim/internal/isa"
	"memsim/internal/progb"
)

// qsortThreshold is the task size below which a range is finished with
// insertion sort instead of being partitioned further.
const qsortThreshold = 32

// qsortPollBackoff is the iteration count of the idle-worker pause
// between lock-free peeks of the task stack; it bounds simulation event
// pressure while waiting (fairness comes from the peek itself).
const qsortPollBackoff = 32

// Qsort builds the paper's Qsort benchmark: a parallel quicksort of n
// signed integers driven by a shared stack of (lo, hi) tasks guarded
// by a spinlock — work is allocated to processors FCFS, so scheduling
// is dynamic and every architectural change perturbs the partitioning
// (§3.3). A shared "done" counter of finally-placed elements provides
// termination: leaf tasks add their length, partitions add one for the
// pivot they place.
//
// The paper sorted 500,000 integers; the experiments package scales n
// down while keeping the working set larger than both cache sizes.
func Qsort(procs, n int, seed int64) Workload {
	return qsort(procs, n, seed, false)
}

// QsortRWO is Qsort with the read-with-ownership optimization the
// paper's §3.3 discusses: loads of array elements that are about to be
// written (insertion-sort shifts, partition swaps) fetch their lines
// exclusively, so the following stores hit instead of paying a second
// ownership round trip. The paper notes this is worthwhile once each
// processor sorts its own partition — and that a compiler would have
// to recognize the pattern; here the "compiler" (the workload builder)
// simply knows.
func QsortRWO(procs, n int, seed int64) Workload {
	return qsort(procs, n, seed, true)
}

func qsort(procs, n int, seed int64, rwo bool) Workload {
	if n < 2 {
		panic("workloads: Qsort needs n >= 2")
	}
	// ldData loads an array element, with write intent when the
	// read-with-ownership variant is selected.
	name := "Qsort"
	if rwo {
		name = "QsortRWO"
	}
	a := NewAlloc()
	arrBase := a.Bytes(uint64(n)*8, 64)
	lockAddr := a.Line()
	spAddr := a.Line()
	doneAddr := a.Line()
	entBase := a.Bytes(uint64(2*n)*8, 64) // generous task-stack bound

	b := progb.New()
	ldData := func(rd, base isa.Reg, off int64) {
		if rwo {
			b.Ldx(rd, base, off)
		} else {
			b.Ld(rd, base, off)
		}
	}
	arr := b.Alloc()
	lockR := b.Alloc()
	spA := b.Alloc()
	doneA := b.Alloc()
	ent := b.Alloc()
	nReg := b.Alloc()

	b.LiU(arr, arrBase)
	b.LiU(lockR, lockAddr)
	b.LiU(spA, spAddr)
	b.LiU(doneA, doneAddr)
	b.LiU(ent, entBase)
	b.Li(nReg, int64(n))

	lo := b.Alloc()
	hi := b.Alloc()
	t := b.Alloc()

	mainloop := b.Here()
	exit := b.NewLabel()
	leaf := b.NewLabel()
	doPartition := b.NewLabel()

	// --- peek without the lock ---
	// Idle workers spin on plain reads of `done` and `sp`: both stay
	// cached until a push or an increment invalidates them, so waiting
	// generates no lock traffic at all. This matters beyond politeness:
	// under deterministic timing, pollers that re-acquire the lock in a
	// loop can starve the one processor trying to push new tasks,
	// livelocking the program. `done` is monotonic and written under
	// the lock, so observing done == n without the lock is conclusive;
	// a nonzero `sp` peek is merely a hint, re-verified under the lock.
	{
		sp := b.Alloc()
		b.Ld(t, doneA, 0)
		b.Beq(t, nReg, exit)
		b.Ld(sp, spA, 0)
		maybeWork := b.NewLabel()
		b.Bne(sp, isa.R0, maybeWork)
		// Nothing visible: brief pause to limit event pressure.
		b.Li(t, qsortPollBackoff)
		backoff := b.Here()
		b.Addi(t, t, -1)
		b.Bne(t, isa.R0, backoff)
		b.Jmp(mainloop)
		b.Bind(maybeWork)
		b.Free(sp)
	}

	// --- pop a task (or detect completion) under the stack lock ---
	EmitLock(b, lockR)
	{
		sp := b.Alloc()
		notDone := b.NewLabel()
		nonEmpty := b.NewLabel()
		b.Ld(t, doneA, 0)
		b.Bne(t, nReg, notDone)
		EmitUnlock(b, lockR)
		b.Jmp(exit)
		b.Bind(notDone)
		b.Ld(sp, spA, 0)
		b.Bne(sp, isa.R0, nonEmpty)
		EmitUnlock(b, lockR) // lost the race to another popper
		b.Jmp(mainloop)
		b.Bind(nonEmpty)
		b.Addi(sp, sp, -1)
		b.St(spA, 0, sp)
		b.Slli(t, sp, 4) // task slot = ent + sp*16
		b.Add(t, ent, t)
		b.Ld(lo, t, 0)
		b.Ld(hi, t, 8)
		EmitUnlock(b, lockR)
		b.Free(sp)
	}

	// --- dispatch on task size ---
	size := b.Alloc()
	b.Sub(size, hi, lo)
	b.Addi(size, size, 1)
	b.Slti(t, size, qsortThreshold+1)
	b.Beq(t, isa.R0, doPartition)

	// --- leaf: insertion sort [lo, hi]; done += size ---
	b.Bind(leaf)
	{
		ii := b.Alloc()
		jj := b.Alloc()
		v := b.Alloc()
		w := b.Alloc()
		av := b.Alloc()

		outer := b.NewLabel()
		outerDone := b.NewLabel()
		b.Addi(ii, lo, 1)
		b.Bind(outer)
		b.Blt(hi, ii, outerDone)
		// v = a[ii]
		b.Slli(av, ii, 3)
		b.Add(av, arr, av)
		ldData(v, av, 0)
		b.Addi(jj, ii, -1)
		inner := b.NewLabel()
		innerDone := b.NewLabel()
		b.Bind(inner)
		b.Blt(jj, lo, innerDone)
		b.Slli(av, jj, 3)
		b.Add(av, arr, av)
		ldData(w, av, 0)
		// if w <= v: stop shifting
		cont := b.NewLabel()
		b.Blt(v, w, cont)
		b.Jmp(innerDone)
		b.Bind(cont)
		b.St(av, 8, w) // a[jj+1] = w
		b.Addi(jj, jj, -1)
		b.Jmp(inner)
		b.Bind(innerDone)
		// a[jj+1] = v
		b.Addi(t, jj, 1)
		b.Slli(t, t, 3)
		b.Add(t, arr, t)
		b.St(t, 0, v)
		b.Addi(ii, ii, 1)
		b.Jmp(outer)
		b.Bind(outerDone)
		b.Free(ii, jj, v, w, av)

		// done += size, under the lock.
		EmitLock(b, lockR)
		b.Ld(t, doneA, 0)
		b.Add(t, t, size)
		b.St(doneA, 0, t)
		EmitUnlock(b, lockR)
		b.Jmp(mainloop)
	}

	// --- partition (Lomuto, pivot = a[hi]); push subranges ---
	b.Bind(doPartition)
	{
		pivot := b.Alloc()
		i := b.Alloc()
		j := b.Alloc()
		aj := b.Alloc()
		ai := b.Alloc()
		av := b.Alloc()

		// pivot = a[hi]
		b.Slli(av, hi, 3)
		b.Add(av, arr, av)
		b.Ld(pivot, av, 0)
		b.Addi(i, lo, -1)
		b.Mov(j, lo)

		ploop := b.NewLabel()
		pdone := b.NewLabel()
		skip := b.NewLabel()
		b.Bind(ploop)
		b.Bge(j, hi, pdone)
		b.Slli(av, j, 3)
		b.Add(av, arr, av)
		ldData(aj, av, 0)
		b.Blt(pivot, aj, skip)
		// a[j] <= pivot: i++, swap a[i] and a[j]
		b.Addi(i, i, 1)
		b.Slli(t, i, 3)
		b.Add(t, arr, t)
		ldData(ai, t, 0)
		b.St(t, 0, aj)
		b.St(av, 0, ai)
		b.Bind(skip)
		b.Addi(j, j, 1)
		b.Jmp(ploop)
		b.Bind(pdone)

		// p = i+1: swap a[p] with a[hi] (pivot into place).
		p := b.Alloc()
		b.Addi(p, i, 1)
		b.Slli(av, p, 3)
		b.Add(av, arr, av)
		ldData(ai, av, 0) // a[p]
		b.St(av, 0, pivot)
		b.Slli(t, hi, 3)
		b.Add(t, arr, t)
		b.St(t, 0, ai) // a[hi] = old a[p]

		// Push non-empty subranges and account the pivot, under lock.
		EmitLock(b, lockR)
		sp := b.Alloc()
		b.Ld(sp, spA, 0)
		// left [lo, p-1] if lo < p
		noLeft := b.NewLabel()
		b.Bge(lo, p, noLeft)
		b.Slli(av, sp, 4)
		b.Add(av, ent, av)
		b.St(av, 0, lo)
		b.Addi(t, p, -1)
		b.St(av, 8, t)
		b.Addi(sp, sp, 1)
		b.Bind(noLeft)
		// right [p+1, hi] if p < hi
		noRight := b.NewLabel()
		b.Bge(p, hi, noRight)
		b.Slli(av, sp, 4)
		b.Add(av, ent, av)
		b.Addi(t, p, 1)
		b.St(av, 0, t)
		b.St(av, 8, hi)
		b.Addi(sp, sp, 1)
		b.Bind(noRight)
		b.St(spA, 0, sp)
		// done += 1 (the pivot is final).
		b.Ld(t, doneA, 0)
		b.Addi(t, t, 1)
		b.St(doneA, 0, t)
		EmitUnlock(b, lockR)
		b.Free(pivot, i, j, aj, ai, av, p, sp)
		b.Jmp(mainloop)
	}

	b.Bind(exit)
	b.Halt()

	prog := progb.HoistLoads(b.MustBuild())

	setup := func(mem []uint64) {
		fillQsortArray(mem, arrBase, n, seed)
		mem[spAddr/8] = 1
		mem[entBase/8] = 0
		mem[entBase/8+1] = uint64(n - 1)
		mem[doneAddr/8] = 0
	}
	want := sync.OnceValue(func() []uint64 {
		sorted := make([]uint64, n)
		fillQsortArray(sorted, 0, n, seed)
		slices.Sort(sorted) // the elements are non-negative: unsigned order is signed order
		return sorted
	})
	validate := func(mem []uint64) error {
		base := arrBase / 8
		for i, w := range want() {
			if got := mem[base+uint64(i)]; got != w {
				return fmt.Errorf("qsort: a[%d] = %d, want %d", i, int64(got), int64(w))
			}
		}
		if mem[doneAddr/8] != uint64(n) {
			return fmt.Errorf("qsort: done = %d, want %d", mem[doneAddr/8], n)
		}
		return nil
	}

	return Workload{
		Name:        name,
		Procs:       procs,
		Programs:    sameProgram(procs, prog),
		SharedWords: a.WordsUsed(),
		Setup:       setup,
		Validate:    validate,
	}
}

func fillQsortArray(mem []uint64, base uint64, n int, seed int64) {
	rng := newLCG(seed)
	b := base / 8
	for i := 0; i < n; i++ {
		mem[b+uint64(i)] = uint64(int64(rng.intn(1 << 30)))
	}
}
