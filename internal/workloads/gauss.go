package workloads

import (
	"fmt"
	"math"
	"sync"

	"memsim/internal/isa"
	"memsim/internal/progb"
)

// Gauss builds the paper's Gauss benchmark: gaussian elimination (LU
// forward elimination, no pivoting) of an n x n matrix of doubles.
// Rows are distributed cyclically over the processors (static
// scheduling) and a barrier separates the pivot steps, so row k is
// final before step k uses it. The matrix is made diagonally dominant
// so elimination without pivoting is numerically safe.
//
// The paper ran n=250; the experiments package scales n so the
// per-processor working set keeps the paper's relationship to the
// cache (doesn't fit in the small cache, fits in the large one).
func Gauss(procs, n int, seed int64) Workload {
	if n < 2 {
		panic("workloads: Gauss needs n >= 2")
	}
	a := NewAlloc()
	matBase := a.Bytes(uint64(n*n)*8, 64)
	bar := AllocBarrier(a)

	b := progb.New()
	sense := b.Alloc()
	nReg := b.Alloc()
	kEnd := b.Alloc()
	mat := b.Alloc()
	k := b.Alloc()

	b.Li(sense, 0)
	b.Li(nReg, int64(n))
	b.Li(kEnd, int64(n-1))
	b.LiU(mat, matBase)

	b.ForRange(k, 0, kEnd, 1, func() {
		EmitBarrier(b, bar, sense)

		rowK := b.Alloc()
		pivot := b.Alloc()
		t := b.Alloc()

		// rowK = mat + k*n*8 ; pivot = A[k][k]
		b.Mul(t, k, nReg)
		b.Slli(t, t, 3)
		b.Add(rowK, mat, t)
		b.Slli(t, k, 3)
		b.Add(t, rowK, t)
		b.Ld(pivot, t, 0)

		// First owned row above k: i = (k+1) + ((id-(k+1)) mod P + P) mod P
		i := b.Alloc()
		b.Addi(i, k, 1)
		b.Sub(t, isa.RID, i)
		b.Rem(t, t, isa.RNP)
		b.Add(t, t, isa.RNP)
		b.Rem(t, t, isa.RNP)
		b.Add(i, i, t)

		loop := b.NewLabel()
		done := b.NewLabel()
		b.Bind(loop)
		b.Bge(i, nReg, done)
		{
			rowI := b.Alloc()
			m := b.Alloc()
			pK := b.Alloc()
			pI := b.Alloc()
			end := b.Alloc()

			// rowI = mat + i*n*8
			b.Mul(t, i, nReg)
			b.Slli(t, t, 3)
			b.Add(rowI, mat, t)
			// m = A[i][k] / pivot ; A[i][k] = m
			b.Slli(t, k, 3)
			b.Add(t, rowI, t)
			b.Ld(m, t, 0)
			b.Fdiv(m, m, pivot)
			b.St(t, 0, m)
			// Pointers over columns k+1 .. n-1.
			b.Slli(t, k, 3)
			b.Addi(t, t, 8)
			b.Add(pK, rowK, t)
			b.Add(pI, rowI, t)
			b.Mov(t, nReg)
			b.Slli(t, t, 3)
			b.Add(end, rowK, t)

			inner := b.NewLabel()
			innerDone := b.NewLabel()
			akj := b.Alloc()
			aij := b.Alloc()
			prod := b.Alloc()
			b.Bind(inner)
			b.Bge(pK, end, innerDone)
			b.Ld(akj, pK, 0)
			b.Ld(aij, pI, 0)
			b.Fmul(prod, m, akj)
			b.Fsub(aij, aij, prod)
			b.St(pI, 0, aij)
			b.Addi(pK, pK, 8)
			b.Addi(pI, pI, 8)
			b.Jmp(inner)
			b.Bind(innerDone)

			b.Add(i, i, isa.RNP)
			b.Free(rowI, m, pK, pI, end, akj, aij, prod)
		}
		b.Jmp(loop)
		b.Bind(done)
		b.Free(rowK, pivot, t, i)
	})

	EmitBarrier(b, bar, sense)
	b.Halt()

	prog := progb.HoistLoads(b.MustBuild())

	setup := func(mem []uint64) {
		fillGaussMatrix(mem, matBase, n, seed)
	}
	want := sync.OnceValue(func() []float64 { return gaussReference(n, seed) })
	validate := func(mem []uint64) error {
		base := matBase / 8
		for idx, w := range want() {
			got := math.Float64frombits(mem[base+uint64(idx)])
			if math.Float64bits(got) != math.Float64bits(w) {
				return fmt.Errorf("gauss: A[%d][%d] = %g, want %g", idx/n, idx%n, got, w)
			}
		}
		return nil
	}

	return Workload{
		Name:        "Gauss",
		Procs:       procs,
		Programs:    sameProgram(procs, prog),
		SharedWords: a.WordsUsed(),
		Setup:       setup,
		Validate:    validate,
	}
}

// fillGaussMatrix writes the deterministic input matrix.
func fillGaussMatrix(mem []uint64, matBase uint64, n int, seed int64) {
	rng := newLCG(seed)
	base := matBase / 8
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 2*rng.float1() - 1
			if i == j {
				v += float64(n)
			}
			mem[base+uint64(i*n+j)] = math.Float64bits(v)
		}
	}
}

// gaussReference performs the identical elimination in Go. Because
// each element's update sequence matches the simulated program's
// operation order exactly, results agree bit for bit.
func gaussReference(n int, seed int64) []float64 {
	mem := make([]uint64, n*n)
	fillGaussMatrix(mem, 0, n, seed)
	a := make([]float64, n*n)
	for i := range a {
		a[i] = math.Float64frombits(mem[i])
	}
	for k := 0; k < n-1; k++ {
		for i := k + 1; i < n; i++ {
			m := a[i*n+k] / a[k*n+k]
			a[i*n+k] = m
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= m * a[k*n+j]
			}
		}
	}
	return a
}
