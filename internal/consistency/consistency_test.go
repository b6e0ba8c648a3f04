package consistency

import (
	"strings"
	"testing"
)

func TestSpecTable1(t *testing.T) {
	// The distinguishing features of each system, per the paper's
	// Table 1 and §3.2.
	sc1 := SpecFor(SC1)
	if sc1.MaxOutstanding != 1 || sc1.BlockingLoads || sc1.SyncVisible || sc1.PrefetchOnStall {
		t.Errorf("SC1 spec wrong: %+v", sc1)
	}
	sc2 := SpecFor(SC2)
	if !sc2.PrefetchOnStall || sc2.MaxOutstanding != 1 {
		t.Errorf("SC2 spec wrong: %+v", sc2)
	}
	wo1 := SpecFor(WO1)
	if !wo1.SyncVisible || wo1.MaxOutstanding != 0 || wo1.LoadBypass || wo1.ReleaseNonBlocking {
		t.Errorf("WO1 spec wrong: %+v", wo1)
	}
	wo2 := SpecFor(WO2)
	if !wo2.LoadBypass || !wo2.SyncVisible {
		t.Errorf("WO2 spec wrong: %+v", wo2)
	}
	rc := SpecFor(RC)
	if !rc.ReleaseNonBlocking || !rc.AcquireIgnoresPending || !rc.SyncVisible {
		t.Errorf("RC spec wrong: %+v", rc)
	}
	bsc1 := SpecFor(BSC1)
	if !bsc1.BlockingLoads || bsc1.MaxOutstanding != 1 {
		t.Errorf("bSC1 spec wrong: %+v", bsc1)
	}
	bwo1 := SpecFor(BWO1)
	if !bwo1.BlockingLoads || !bwo1.SyncVisible {
		t.Errorf("bWO1 spec wrong: %+v", bwo1)
	}
	tso := SpecFor(TSO)
	if !tso.WriteBuffer || !tso.WBFIFO || !tso.BlockingLoads || !tso.SyncVisible || tso.MaxOutstanding != 0 {
		t.Errorf("TSO spec wrong: %+v", tso)
	}
	pso := SpecFor(PSO)
	if !pso.WriteBuffer || pso.WBFIFO || !pso.BlockingLoads || !pso.SyncVisible {
		t.Errorf("PSO spec wrong: %+v", pso)
	}
	pc := SpecFor(PC)
	if !pc.WriteBuffer || !pc.WBFIFO || pc.BlockingLoads || !pc.SyncVisible {
		t.Errorf("PC spec wrong: %+v", pc)
	}
}

func TestRelaxations(t *testing.T) {
	want := map[Model]Relaxation{
		SC1:  {},
		SC2:  {},
		BSC1: {},
		TSO:  {WR: true},
		PSO:  {WR: true, WW: true},
		PC:   {WR: true, RR: true},
		BWO1: {WR: true, WW: true},
		WO1:  {WR: true, WW: true, RR: true, RW: true},
		WO2:  {WR: true, WW: true, RR: true, RW: true},
		RC:   {WR: true, WW: true, RR: true, RW: true},
	}
	for _, m := range Models {
		if got := SpecFor(m).Relaxations(); got != want[m] {
			t.Errorf("%s.Relaxations() = %+v, want %+v", m, got, want[m])
		}
	}
}

func TestModelNames(t *testing.T) {
	names := ModelNames()
	if len(names) != len(Models) {
		t.Fatalf("ModelNames has %d entries, want %d", len(names), len(Models))
	}
	for i, m := range Models {
		if names[i] != m.String() {
			t.Errorf("ModelNames[%d] = %q, want %q", i, names[i], m)
		}
	}
}

func TestMutWBNoDrain(t *testing.T) {
	for _, m := range ZooModels {
		mut := MutWBNoDrain.Apply(SpecFor(m))
		if !mut.WBLeak {
			t.Errorf("MutWBNoDrain on %s did not set WBLeak", m)
		}
		if mut.SequentiallyConsistent() != SpecFor(m).SequentiallyConsistent() {
			t.Errorf("MutWBNoDrain must not change %s's declared consistency class", m)
		}
	}
	wo1 := SpecFor(WO1)
	if got := MutWBNoDrain.Apply(wo1); got != wo1 {
		t.Errorf("MutWBNoDrain changed a bufferless spec: %+v -> %+v", wo1, got)
	}
}

func TestSequentiallyConsistent(t *testing.T) {
	for _, m := range Models {
		s := SpecFor(m)
		wantSC := m == SC1 || m == SC2 || m == BSC1
		if got := s.SequentiallyConsistent(); got != wantSC {
			t.Errorf("%s.SequentiallyConsistent = %v, want %v", m, got, wantSC)
		}
	}
}

func TestStringAndParseRoundTrip(t *testing.T) {
	for _, m := range Models {
		got, err := ParseModel(m.String())
		if err != nil {
			t.Errorf("ParseModel(%q): %v", m.String(), err)
			continue
		}
		if got != m {
			t.Errorf("ParseModel(%q) = %v, want %v", m.String(), got, m)
		}
	}
}

func TestParseModelCaseInsensitive(t *testing.T) {
	for _, s := range []string{"sc1", "Sc2", "wo1", "WO2", "rc", "BSC1", "bwo1", "tso", "pso", "pc"} {
		if _, err := ParseModel(s); err != nil {
			t.Errorf("ParseModel(%q): %v", s, err)
		}
	}
	_, err := ParseModel("sc3")
	if err == nil {
		t.Fatal("ParseModel accepted unknown model")
	}
	for _, name := range ModelNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParseModel error %q does not list valid model %s", err, name)
		}
	}
}

func TestParseModels(t *testing.T) {
	all, err := ParseModels("all")
	if err != nil || len(all) != len(Models) {
		t.Fatalf(`ParseModels("all") = %v, %v; want every model`, all, err)
	}
	got, err := ParseModels("SC1, tso,bWO1")
	if err != nil {
		t.Fatal(err)
	}
	if want := []Model{SC1, TSO, BWO1}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("ParseModels list = %v, want %v", got, want)
	}
	if _, err := ParseModels("SC1,sc3"); err == nil {
		t.Error("ParseModels accepted an unknown model in a list")
	}
}

func TestSpecForPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SpecFor(-1) did not panic")
		}
	}()
	SpecFor(Model(-1))
}

func TestModelsListComplete(t *testing.T) {
	if len(Models) != int(numModels) {
		t.Fatalf("Models has %d entries, want %d", len(Models), numModels)
	}
	seen := map[Model]bool{}
	for _, m := range Models {
		if seen[m] {
			t.Errorf("duplicate model %v", m)
		}
		seen[m] = true
		if SpecFor(m).Model != m {
			t.Errorf("spec for %v has wrong Model field", m)
		}
		if SpecFor(m).Name != m.String() {
			t.Errorf("spec name %q != model string %q", SpecFor(m).Name, m)
		}
	}
}
