package litmus_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"memsim/internal/asm"
	"memsim/internal/difftest"
	"memsim/internal/isa"
	"memsim/internal/litmus"
	"memsim/internal/robust"
)

// threadText is the code generator litmus had before it emitted
// instructions: one thread's ops as assembly source, to be parsed by
// asm.Assemble. It is kept here, with the register conventions written
// out, as the oracle TestEmitEqualsAssembledText holds the emitter to.
func threadText(nlocs int, lay litmus.Layout, th litmus.Thread, stagger int, warm uint64) string {
	annSuffix := func(a litmus.Ann) string {
		switch a {
		case litmus.AnnAcquire:
			return " !acquire"
		case litmus.AnnRelease:
			return " !release"
		case litmus.AnnSync:
			return " !sync"
		}
		return ""
	}
	var b strings.Builder
	for i := 0; i < stagger; i++ {
		b.WriteString("nop\n")
	}
	used := make([]bool, nlocs)
	warmed := make([]bool, nlocs)
	for _, op := range th {
		if op.Kind == litmus.OpFence {
			continue
		}
		used[op.Loc] = true
		if op.Kind == litmus.OpLoad && warm&(1<<uint(op.Loc)) != 0 {
			warmed[op.Loc] = true
		}
	}
	for loc, u := range used {
		if u {
			fmt.Fprintf(&b, "li r%d, %d\n", 8+loc, lay.Addr(loc))
		}
	}
	for loc, w := range warmed {
		if w {
			fmt.Fprintf(&b, "ld r%d, 0(r%d)\n", 12+loc, 8+loc)
		}
	}
	for loc, w := range warmed {
		if w {
			fmt.Fprintf(&b, "add r3, r%d, r%d\n", 12+loc, 12+loc)
		}
	}
	k := 0
	for _, op := range th {
		switch op.Kind {
		case litmus.OpLoad:
			fmt.Fprintf(&b, "ld r%d, 0(r%d)%s\n", 4+k, 8+op.Loc, annSuffix(op.Ann))
			k++
		case litmus.OpStore:
			fmt.Fprintf(&b, "li r3, %d\n", op.Val)
			fmt.Fprintf(&b, "st r3, 0(r%d)%s\n", 8+op.Loc, annSuffix(op.Ann))
		case litmus.OpFence:
			b.WriteString("fence !sync\n")
		}
	}
	b.WriteString("halt\n")
	return b.String()
}

// TestEmitEqualsAssembledText: the instructions Programs emits are the
// ones the assembler parses out of the old generator's text, and they
// survive the trip through the disassembler a replay record takes —
// for every declarative library test under 300 drawn layouts, skews
// and warm masks, and for 200 generated programs.
func TestEmitEqualsAssembledText(t *testing.T) {
	check := func(lt *litmus.Test, x *uint64) {
		t.Helper()
		lay := litmus.Layout{Base: 512 + 8*(robust.SplitMix64(x)%32), Stride: lt.Stride}
		stagger := make([]int, len(lt.Threads))
		warm := make([]uint64, len(lt.Threads))
		for ti := range lt.Threads {
			stagger[ti] = int(robust.SplitMix64(x) % 8)
			warm[ti] = robust.SplitMix64(x) & 0xff
		}
		progs, _, err := lt.Programs(lay, stagger, warm)
		if err != nil {
			t.Fatal(err)
		}
		if len(progs) != len(lt.Threads) {
			t.Fatalf("%s: %d programs for %d threads", lt.Name, len(progs), len(lt.Threads))
		}
		for ti, th := range lt.Threads {
			text := threadText(lt.NLocs, lay, th, stagger[ti], warm[ti])
			want, err := asm.Assemble(text)
			if err != nil {
				t.Fatalf("%s thread %d: %v", lt.Name, ti, err)
			}
			if !reflect.DeepEqual(progs[ti], want) {
				t.Fatalf("%s thread %d (base %d, stagger %d, warm %#x): emitted\n%swant\n%s",
					lt.Name, ti, lay.Base, stagger[ti], warm[ti], asm.Disassemble(progs[ti]), asm.Disassemble(want))
			}
			back, err := asm.Assemble(asm.Disassemble(progs[ti]))
			if err != nil {
				t.Fatalf("%s thread %d: reassembling the disassembly: %v", lt.Name, ti, err)
			}
			if !reflect.DeepEqual(back, progs[ti]) {
				t.Fatalf("%s thread %d: disassembly does not reassemble to the program:\n%s", lt.Name, ti, asm.Disassemble(progs[ti]))
			}
			if err := isa.ValidateProgram(progs[ti]); err != nil {
				t.Fatalf("%s thread %d: %v", lt.Name, ti, err)
			}
		}
	}
	for _, lt := range litmus.Library() {
		if lt.Threads == nil {
			continue // the lock test builds its own programs
		}
		for seed := uint64(1); seed <= 300; seed++ {
			x := seed
			check(lt, &x)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		p := difftest.Generate(difftest.DefaultGen(), seed)
		lt, _ := litmus.SynthTest(p.Threads)
		lt.Stride = p.Stride
		x := uint64(seed)
		check(lt, &x)
	}
}
