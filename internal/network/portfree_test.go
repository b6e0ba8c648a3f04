package network

// The port-free rule: a port records the cycle its service ends and is
// free from the first moment of that cycle, whatever order the cycle's
// events run in; it has an event of its own, its wake, exactly while
// messages queue behind it. These tests pin the rule and what it costs.
// The fault-smoke CI job runs them (-run TestPortFree), and those that
// take a faults row run it with fault injection on.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"memsim/internal/robust"
	"memsim/internal/sim"
)

// injector returns a fault injector for f, nil when f injects nothing.
func injector(f robust.Faults) *robust.Injector {
	if !f.Enabled() {
		return nil
	}
	in := new(robust.Injector)
	in.Reset(f)
	return in
}

// checkWakes fails t unless every queued port of n has exactly one wake
// pending, at the cycle it frees, and no other port has one: the
// invariant Restore enforces, checked on the live engine.
func checkWakes(t *testing.T, eng *sim.Engine, n *Network) {
	t.Helper()
	es, err := eng.Save()
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range es.Events {
		if ev.Desc.Kind == netEvWake {
			if _, err := n.CheckEvent(ev.Desc, nil); err != nil {
				t.Fatalf("cycle %d: %v", eng.Now(), err)
			}
		}
	}
	if err := n.CheckWakes(es.Events); err != nil {
		t.Fatalf("cycle %d: %v", eng.Now(), err)
	}
}

// TestPortFreeUncontendedEvents: a message that meets no other costs
// one engine event per hop it advances — stages + 1 — and leaves
// nothing pending once delivered: a port with nothing queued has no
// event.
func TestPortFreeUncontendedEvents(t *testing.T) {
	for _, ports := range []int{4, 16, 64, 256} {
		var eng sim.Engine
		pending := -1
		n := New(&eng, ports, 4, func(int, Message) { pending = eng.Len() })
		if !n.TrySend(Message{Src: 1, Dst: ports - 1, Flits: 8}) {
			t.Fatal("TrySend rejected on an empty network")
		}
		eng.Run(nil)
		if got, want := eng.Steps(), uint64(n.Stages()+1); got != want {
			t.Errorf("ports %d: the message cost %d engine events, want stages+1 = %d", ports, got, want)
		}
		if pending != 0 {
			t.Errorf("ports %d: %d events still pending when the message was delivered", ports, pending)
		}
		if eng.Now() != sim.Cycle(n.HeadLatency()) {
			t.Errorf("ports %d: delivered at %d, HeadLatency %d", ports, eng.Now(), n.HeadLatency())
		}
	}
}

// TestPortFreeSameCycleArrivals: a blocker occupies the last-stage link
// to endpoint 5 until cycle 8, and two contenders from other sources
// reach that link in cycle 8. Whichever of the three sends the engine
// holds first, and whichever contender sends first, the link serves one
// contender in cycle 8 and the other when that one is through: the
// delivery cycles never move.
func TestPortFreeSameCycleArrivals(t *testing.T) {
	type send struct {
		at  sim.Cycle
		m   Message
		tag int
	}
	blocker := send{5, Message{Src: 2, Dst: 5, Flits: 1}, 0}
	x := send{6, Message{Src: 0, Dst: 5, Flits: 2}, 1}
	y := send{6, Message{Src: 1, Dst: 5, Flits: 2}, 2}
	for _, order := range [][]send{{blocker, x, y}, {blocker, y, x}, {x, y, blocker}, {y, x, blocker}, {x, blocker, y}} {
		var eng sim.Engine
		got, deliver := collector(&eng)
		n := New(&eng, 16, 4, deliver)
		names := ""
		for _, s := range order {
			s.m.Payload = tag(s.tag)
			eng.At(s.at, func() {
				if !n.TrySend(s.m) {
					t.Fatalf("send of %d rejected", s.tag)
				}
			})
			names += fmt.Sprint(s.tag)
		}
		eng.Run(nil)
		var cycles []sim.Cycle
		for _, d := range *got {
			cycles = append(cycles, d.at)
		}
		// The blocker's head is delivered at 5+3; the link frees at 8,
		// the first contender goes through in 8 (delivered at 9), the
		// second when its two flits are, at 10 (delivered at 11).
		if want := []sim.Cycle{8, 9, 11}; !slices.Equal(cycles, want) {
			t.Errorf("sends created in order %s: deliveries at %v, want %v", names, cycles, want)
		}
		if n.Stats().QueueDelay != 2 {
			t.Errorf("sends created in order %s: queue delay %d, want 2 (the second contender's)", names, n.Stats().QueueDelay)
		}
	}
}

// TestPortFreeSameCycleEntrance: with a one-message entrance buffer, a
// send in the cycle the buffer's queue head starts its service finds a
// free slot, whether the engine holds the send before or after the
// port's wake: no retry, and the same delivery cycles.
func TestPortFreeSameCycleEntrance(t *testing.T) {
	for _, late := range []bool{false, true} {
		var eng sim.Engine
		got, deliver := collector(&eng)
		n := New(&eng, 16, 1, deliver)
		var send func()
		send = func() {
			if !n.TrySend(Message{Src: 0, Dst: 3, Flits: 1, Payload: tag(2)}) {
				n.WhenSpace(0, send)
			}
		}
		if late {
			eng.At(1, func() { eng.At(4, send) })
		} else {
			eng.At(4, send)
		}
		// The first holds the entrance over 0..3; the second waits in its
		// one slot and starts at 4, when the third is sent.
		n.TrySend(Message{Src: 0, Dst: 1, Flits: 4, Payload: tag(0)})
		n.TrySend(Message{Src: 0, Dst: 2, Flits: 2, Payload: tag(1)})
		eng.Run(nil)
		var cycles []sim.Cycle
		for _, d := range *got {
			cycles = append(cycles, d.at)
		}
		if want := []sim.Cycle{3, 7, 9}; !slices.Equal(cycles, want) {
			t.Errorf("send held after the wake %v: deliveries at %v, want %v", late, cycles, want)
		}
		if r := n.Stats().Retries; r != 0 {
			t.Errorf("send held after the wake %v: %d retries, want 0", late, r)
		}
	}
}

// TestPortFreeBypass: a WO2 bypass enters its entrance buffer ahead of
// every queued message, but never ahead of the one in service. The
// machine's bypasses come after a cycle's wakes, so a queue head whose
// port frees in the cycle the bypass arrives is already in service.
func TestPortFreeBypass(t *testing.T) {
	for _, c := range []struct {
		name   string
		queued int // stores queued behind the one in service
		at     int // cycle the bypassing load is sent
		order  string
		over   uint64 // queued messages the load jumps
	}{
		{"mid-service", 2, 5, "tx ld st1 st2", 2},
		{"free cycle", 1, 10, "tx st1 ld", 0},
		{"free cycle, two queued", 2, 10, "tx st1 ld st2", 1},
	} {
		var eng sim.Engine
		got, deliver := collector(&eng)
		n := New(&eng, 16, 4, deliver)
		names := []string{"tx", "st1", "st2", "ld"}
		ld := Message{Src: 0, Dst: 4, Flits: 1, Bypass: true, Payload: tag(3)}
		send := func() {
			if !n.TrySend(ld) {
				t.Fatalf("%s: bypassing load rejected", c.name)
			}
		}
		// tx is in service over cycles 0-9; the stores queue behind it
		// in cycle 0, creating the port's wake before the load's send,
		// which is scheduled from cycle 1.
		eng.At(1, func() { eng.At(sim.Cycle(c.at), send) })
		n.TrySend(Message{Src: 0, Dst: 1, Flits: 10, Payload: tag(0)})
		for i := 1; i <= c.queued; i++ {
			n.TrySend(Message{Src: 0, Dst: 1 + i, Flits: 1, Payload: tag(i)})
		}
		eng.Run(nil)
		order := ""
		for i, d := range *got {
			if i > 0 {
				order += " "
			}
			order += names[tagOf(d.msg)]
		}
		if order != c.order {
			t.Errorf("%s: delivery order %q, want %q", c.name, order, c.order)
		}
		if st := n.Stats(); st.BypassedOver != c.over || st.Bypasses != min(c.over, 1) {
			t.Errorf("%s: %d bypasses over %d queued, want %d over %d", c.name, st.Bypasses, st.BypassedOver, min(c.over, 1), c.over)
		}
	}
}

// TestPortFreeFaultStretch: a service stretched by fault injection
// moves the cycle the port frees, and the port's wake with it. With
// every service stretched by exactly one cycle the timing is known in
// closed form; under random stretching the wake invariant must hold
// after every event.
func TestPortFreeFaultStretch(t *testing.T) {
	var eng sim.Engine
	got, deliver := collector(&eng)
	n := New(&eng, 16, 4, deliver)
	n.SetFaults(injector(robust.Faults{Seed: 1, DelayProb: 1, MaxExtraDelay: 1}))
	n.TrySend(Message{Src: 0, Dst: 5, Flits: 5, Payload: tag(0)})
	n.TrySend(Message{Src: 0, Dst: 5, Flits: 1, Payload: tag(1)})
	// The first message holds the entrance over 0..5 (five flits and a
	// stretch): the port frees at 6, and its wake is there.
	if fa := n.Save().Entrance[0].FreeAt; fa != 6 {
		t.Errorf("entrance frees at %d, want 6", fa)
	}
	checkWakes(t, &eng, n)
	eng.Run(nil)
	// Every hop of the first takes two cycles (6 to deliver through two
	// stages); the second leaves the entrance at 6 and reaches each link
	// in the cycle the first's stretched service there ends, so it never
	// waits again: 6 + 2*3 = 12.
	if len(*got) != 2 || (*got)[0].at != 6 || (*got)[1].at != 12 {
		t.Errorf("deliveries %+v, want heads at 6 and 12", *got)
	}
	if st := n.Stats(); st.FaultDelays != 6 || st.QueueDelay != 6 {
		t.Errorf("%d stretched services and %d queued cycles, want 6 and 6", st.FaultDelays, st.QueueDelay)
	}

	for _, f := range []robust.Faults{{}, {Seed: 3, DelayProb: 0.5, MaxExtraDelay: 9}} {
		eng := new(sim.Engine)
		got, deliver := collector(eng)
		n := New(eng, 16, 64, deliver)
		n.SetFaults(injector(f))
		burst(n, 7)
		for eng.Step() {
			checkWakes(t, eng, n)
		}
		if len(*got) != 200 {
			t.Errorf("faults %+v: delivered %d of 200", f, len(*got))
		}
	}
}

// burst sends 200 messages of random length between random endpoints
// of a 16-port network, all in the current cycle, so that queues form
// at every stage.
func burst(n *Network, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 200; i++ {
		m := Message{Src: rng.Intn(16), Dst: rng.Intn(16), Flits: 1 + rng.Intn(8), Bypass: rng.Intn(4) == 0, Payload: tag(i)}
		if !n.TrySend(m) {
			panic("burst overflows an entrance buffer")
		}
	}
}

// TestPortFreeSaveLoad: a network saved with queues behind busy ports,
// loaded into a new network and engine, resumes to the same deliveries
// at the same cycles as the run it was saved from, with faults off and
// on.
func TestPortFreeSaveLoad(t *testing.T) {
	for _, f := range []robust.Faults{{}, {Seed: 5, DelayProb: 0.3, MaxExtraDelay: 4}} {
		var eng sim.Engine
		got, deliver := collector(&eng)
		n := New(&eng, 16, 64, deliver)
		n.SetFaults(injector(f))
		burst(n, 11)
		for eng.Now() < 12 {
			eng.Step()
		}
		es, err := eng.Save()
		if err != nil {
			t.Fatal(err)
		}
		ns, inj := n.Save(), n.faults.Save()
		queued := 0
		for _, s := range ns.Links {
			for _, p := range s {
				queued += len(p.Queue)
			}
		}
		if queued == 0 {
			t.Fatal("no link has a queue at the save point")
		}
		before := len(*got)
		eng.Run(nil)

		var eng2 sim.Engine
		got2, deliver2 := collector(&eng2)
		n2 := New(&eng2, 16, 64, deliver2)
		if n.faults != nil {
			n2.SetFaults(new(robust.Injector))
			n2.faults.Load(inj)
		}
		if err := n2.Load(ns, func(int) func() { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := eng2.Load(es, func(d sim.EventDesc) (sim.Handler, error) { return n2.CheckEvent(d, nil) }); err != nil {
			t.Fatal(err)
		}
		if err := n2.CheckWakes(es.Events); err != nil {
			t.Fatal(err)
		}
		eng2.Run(nil)
		if !slices.Equal((*got)[before:], *got2) {
			t.Errorf("faults %+v: the loaded network delivered %d messages, the saved one %d more, or at other cycles",
				f, len(*got2), len(*got)-before)
		}
	}
}
