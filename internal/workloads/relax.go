package workloads

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"memsim/internal/isa"
	"memsim/internal/progb"
)

// RelaxSchedule selects the inner-loop load ordering of the Relax
// benchmark (§4.1.3 and §5.2 / Figure 9 of the paper). In a
// row-traversed nine-point stencil with one-word lines, the only
// stencil load that misses is (i+1, j+1) — the bottom-right corner;
// where it sits among the nine loads decides how much of its latency
// each consistency model can hide.
type RelaxSchedule int

const (
	// RelaxDefault mimics the Cerberus compiler: all loads hoisted to
	// the top of the loop, in an order oblivious to which one misses
	// (the missing load lands mid-pack).
	RelaxDefault RelaxSchedule = iota
	// RelaxMissFirst issues the missing load first: optimal for the
	// weakly ordered systems (maximum overlap), deliberately bad for
	// SC (every following load stalls behind the miss).
	RelaxMissFirst
	// RelaxMissLast issues the missing load last: optimal for SC (the
	// eight hits complete first; the adds overlap the miss),
	// deliberately bad for weak ordering.
	RelaxMissLast
	numRelaxSchedules
)

func (s RelaxSchedule) String() string {
	switch s {
	case RelaxDefault:
		return "default"
	case RelaxMissFirst:
		return "miss-first"
	case RelaxMissLast:
		return "miss-last"
	}
	return fmt.Sprintf("schedule(%d)", int(s))
}

// ParseRelaxSchedule reads a schedule by its String form, in any case;
// "" is the default schedule.
func ParseRelaxSchedule(name string) (RelaxSchedule, error) {
	if name == "" {
		return RelaxDefault, nil
	}
	for s := RelaxDefault; s < numRelaxSchedules; s++ {
		if strings.EqualFold(name, s.String()) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("workloads: unknown relax schedule %q (want default, miss-first or miss-last)", name)
}

// relaxLoad identifies one stencil load: which row pointer and which
// byte offset from it (the pointers sit at column j-1).
type relaxLoad struct {
	row int // 0=up, 1=mid, 2=down
	off int64
}

// loadOrder returns the nine stencil loads in issue order. The
// missing load is {down, 16} — (i+1, j+1).
func (s RelaxSchedule) loadOrder() []relaxLoad {
	miss := relaxLoad{2, 16}
	switch s {
	case RelaxDefault:
		// Natural raster order: top, middle, bottom row. The missing
		// load happens to land last — which is why the paper's
		// compiler-scheduled Relax is already nearly optimal for SC
		// and gains little from the relaxed models (§4.1.3).
		return []relaxLoad{
			{0, 0}, {0, 8}, {0, 16},
			{1, 0}, {1, 8}, {1, 16},
			{2, 0}, {2, 8}, miss,
		}
	case RelaxMissFirst:
		return []relaxLoad{
			miss,
			{0, 0}, {0, 8}, {0, 16},
			{1, 0}, {1, 8}, {1, 16},
			{2, 0}, {2, 8},
		}
	case RelaxMissLast:
		// Like the default but with the hitting loads reordered so
		// the row whose line was most recently touched comes first;
		// the missing load stays last with its use at maximum
		// distance.
		return []relaxLoad{
			{1, 0}, {1, 8}, {1, 16},
			{2, 0}, {2, 8},
			{0, 0}, {0, 8}, {0, 16},
			miss,
		}
	}
	panic("workloads: bad relax schedule")
}

// Relax builds the paper's Relax benchmark: an iterative nine-point
// stencil over an (n+2) x (n+2) grid of doubles, writing each sweep
// into a temporary matrix and copying it back, with barriers between
// phases. Interior rows are block-partitioned across processors.
//
// The paper ran a 514x514 grid (n=512); experiments scale n down while
// keeping the three-row reuse window that fixes the hit rate.
func Relax(procs, n, iters int, sched RelaxSchedule, seed int64) Workload {
	if n < 2 || n < procs {
		panic("workloads: Relax needs n >= max(2, procs)")
	}
	w := n + 2 // row width in words
	a := NewAlloc()
	srcBase := a.Bytes(uint64(w*w)*8, 64)
	tmpBase := a.Bytes(uint64(w*w)*8, 64)
	bar := AllocBarrier(a)

	b := progb.New()
	sense := b.Alloc()
	src := b.Alloc()
	tmp := b.Alloc()
	rowLo := b.Alloc() // first interior row owned by this processor
	rowHi := b.Alloc() // one past the last
	it := b.Alloc()
	itEnd := b.Alloc()
	t := b.Alloc()

	b.Li(sense, 0)
	b.LiU(src, srcBase)
	b.LiU(tmp, tmpBase)
	b.Li(itEnd, int64(iters))

	// rowLo = 1 + id*n/P ; rowHi = 1 + (id+1)*n/P
	nReg := b.Alloc()
	b.Li(nReg, int64(n))
	b.Mul(t, isa.RID, nReg)
	b.Div(t, t, isa.RNP)
	b.Addi(rowLo, t, 1)
	b.Addi(t, isa.RID, 1)
	b.Mul(t, t, nReg)
	b.Div(t, t, isa.RNP)
	b.Addi(rowHi, t, 1)

	ninth := b.Alloc()
	b.LiF(ninth, 1.0/9.0)

	b.ForRange(it, 0, itEnd, 1, func() {
		i := b.Alloc()
		b.ForRangeReg(i, rowLo, rowHi, 1, func() {
			pU := b.Alloc()
			pM := b.Alloc()
			pD := b.Alloc()
			pO := b.Alloc()
			end := b.Alloc()

			// Row pointers at column 0 (stencil column j-1 for j=1).
			b.Addi(t, i, -1)
			b.Li(end, int64(w*8))
			b.Mul(t, t, end)
			b.Add(pU, src, t)
			b.Addi(pM, pU, int64(w*8))
			b.Addi(pD, pM, int64(w*8))
			// Output pointer at column 1 of tmp row i.
			b.Li(end, int64(w*8))
			b.Mul(t, i, end)
			b.Add(pO, tmp, t)
			b.Addi(pO, pO, 8)
			// Loop bound: pM after its last column (j-1 = n-1).
			b.Addi(end, pM, int64(n*8))

			rows := []isa.Reg{pU, pM, pD}
			vals := b.AllocN(9)
			sum := b.Alloc()

			loop := b.NewLabel()
			done := b.NewLabel()
			b.Bind(loop)
			b.Bge(pM, end, done)
			order := sched.loadOrder()
			for li, ld := range order {
				b.Ld(vals[li], rows[ld.row], ld.off)
			}
			// Accumulate in issue order.
			b.Mov(sum, vals[0])
			for li := 1; li < 9; li++ {
				b.Fadd(sum, sum, vals[li])
			}
			b.Fmul(sum, sum, ninth)
			b.St(pO, 0, sum)
			b.Addi(pU, pU, 8)
			b.Addi(pM, pM, 8)
			b.Addi(pD, pD, 8)
			b.Addi(pO, pO, 8)
			b.Jmp(loop)
			b.Bind(done)
			b.Free(vals...)
			b.Free(sum, pU, pM, pD, pO, end)
		})
		b.Free(i)

		EmitBarrier(b, bar, sense)

		// Copy back: src[i][1..n] = tmp[i][1..n] for owned rows.
		i = b.Alloc()
		b.ForRangeReg(i, rowLo, rowHi, 1, func() {
			pT := b.Alloc()
			pS := b.Alloc()
			end := b.Alloc()
			v := b.Alloc()
			b.Li(end, int64(w*8))
			b.Mul(t, i, end)
			b.Add(pT, tmp, t)
			b.Addi(pT, pT, 8)
			b.Add(pS, src, t)
			b.Addi(pS, pS, 8)
			b.Addi(end, pT, int64(n*8))
			loop := b.NewLabel()
			done := b.NewLabel()
			b.Bind(loop)
			b.Bge(pT, end, done)
			b.Ld(v, pT, 0)
			b.St(pS, 0, v)
			b.Addi(pT, pT, 8)
			b.Addi(pS, pS, 8)
			b.Jmp(loop)
			b.Bind(done)
			b.Free(pT, pS, end, v)
		})
		b.Free(i)

		EmitBarrier(b, bar, sense)
	})
	b.Halt()

	prog := b.MustBuild()

	setup := func(mem []uint64) {
		fillRelaxGrid(mem, srcBase, w, seed)
	}
	want := sync.OnceValue(func() []float64 { return relaxReference(n, iters, seed, sched) })
	validate := func(mem []uint64) error {
		base := srcBase / 8
		for idx, wv := range want() {
			got := math.Float64frombits(mem[base+uint64(idx)])
			if math.Abs(got-wv) > 1e-9*(1+math.Abs(wv)) {
				return fmt.Errorf("relax: grid[%d][%d] = %g, want %g", idx/w, idx%w, got, wv)
			}
		}
		return nil
	}

	return Workload{
		Name:        "Relax",
		Procs:       procs,
		Programs:    sameProgram(procs, prog),
		SharedWords: a.WordsUsed(),
		Setup:       setup,
		Validate:    validate,
	}
}

func fillRelaxGrid(mem []uint64, base uint64, w int, seed int64) {
	rng := newLCG(seed)
	b := base / 8
	for i := 0; i < w*w; i++ {
		mem[b+uint64(i)] = math.Float64bits(rng.float1())
	}
}

// relaxReference computes the stencil in Go with the same accumulation
// order as the simulated schedule (differences are within reassociation
// tolerance anyway; we keep the order for tight bounds).
func relaxReference(n, iters int, seed int64, sched RelaxSchedule) []float64 {
	w := n + 2
	mem := make([]uint64, w*w)
	fillRelaxGrid(mem, 0, w, seed)
	g := make([]float64, w*w)
	for i := range g {
		g[i] = math.Float64frombits(mem[i])
	}
	tmp := make([]float64, w*w)
	order := sched.loadOrder()
	for it := 0; it < iters; it++ {
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				// Row pointers sit at column j-1; offsets 0,8,16.
				at := func(l relaxLoad) float64 {
					r := i - 1 + l.row
					c := j - 1 + int(l.off/8)
					return g[r*w+c]
				}
				sum := at(order[0])
				for k := 1; k < 9; k++ {
					sum += at(order[k])
				}
				tmp[i*w+j] = sum * (1.0 / 9.0)
			}
		}
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				g[i*w+j] = tmp[i*w+j]
			}
		}
	}
	return g
}
