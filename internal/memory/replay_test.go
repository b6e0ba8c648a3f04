package memory

import (
	"fmt"
	"reflect"
	"testing"

	"memsim/internal/sim"
)

// replyDelay is how long the test's stand-in caches take to answer a
// recall or an invalidation.
const replyDelay = 6

// newAnsweringHarness is newHarness with the cache side of the protocol
// filled in: every recall and invalidation the module sends is answered
// replyDelay cycles later with the flush or acknowledgment a cache
// would send, so transactions run to completion unattended. The
// answers are events of class CompCache with the harness's answer as
// their handler, so the harness's engine can be saved mid-run.
func newAnsweringHarness(lineSize int) *harness {
	h := newHarness(lineSize)
	h.onSend = func(dst int, m Msg) {
		if d, ok := answerDesc(dst, m); ok {
			h.eng.ScheduleAfter(replyDelay, h.answer, d)
		}
	}
	return h
}

// answerDesc describes cache src's answer to m: A = line, B = kind.
func answerDesc(src int, m Msg) (sim.EventDesc, bool) {
	var kind MsgKind
	switch m.Kind {
	case RecallShare:
		kind = FlushShare
	case RecallInv:
		kind = FlushInv
	case Invalidate:
		kind = InvAck
	default:
		return sim.EventDesc{}, false
	}
	return sim.EventDesc{Comp: sim.CompCache, Unit: int32(src), A: m.Line, B: uint64(kind)}, true
}

func (h *harness) answer(d *sim.EventDesc) {
	h.mod.Receive(int(d.Unit), Msg{MsgKind(d.B), d.A})
}

const hotLine = 0x100

// contend makes cache 0 the dirty owner of hotLine, then delivers in
// one cycle: cache 1's request (which starts the recall) and, behind
// it, k more requests for hotLine from caches 2..k+1, each followed by
// a read of a line of its own from cache 100+i. kinds cycles over the
// hotLine requests. The k requests park behind the recall; the private
// reads keep the input queue occupied behind them, so every replay
// pushes its waiters in front of queued work.
func contend(t *testing.T, h *harness, k int, kinds []MsgKind) {
	t.Helper()
	h.mod.Receive(0, Msg{WriteReq, hotLine})
	h.run(t)
	h.out = nil
	h.mod.Receive(1, Msg{kinds[0], hotLine})
	for i := 1; i <= k; i++ {
		h.mod.Receive(1+i, Msg{kinds[i%len(kinds)], hotLine})
		h.mod.Receive(100+i, Msg{ReadReq, 0x10000 + uint64(i)*0x100})
	}
}

// hotGrants lists the caches granted hotLine, in grant order.
func hotGrants(out []sent) []int {
	var g []int
	for _, s := range out {
		if (s.msg.Kind == DataShared || s.msg.Kind == DataExclusive) && s.msg.Line == hotLine {
			g = append(g, s.dst)
		}
	}
	return g
}

// TestParkedWaitersReplayInArrivalOrder parks k requests behind a
// recall and holds the module to two things: the line is granted in
// arrival order however often the waiters are replayed and parked
// again (a write parks everyone behind it once more), and the queueing
// statistics are exactly those of the commit before the input queue
// became a ring: the queued, busy and final-cycle values in the table
// were recorded there, from this test, with the append-and-rebuild
// queue and the recursive kick. The first row by hand (32-byte lines:
// a line access occupies the module 4+7+4 = 15 cycles, a recall 4):
// the requests arrive at 15, when the first write's occupancy ends.
// Cache 1's read starts the recall at once; at 19 the module sends it,
// parks cache 2's read (waited 4) and serves the private read (waited
// 4) until 34; the flush, queued since 25, is taken then (waited 9)
// and its grant's head at 45 puts cache 2's read back, served from 49
// (waited 4) to 64. Queued 4+4+9+4 = 21; busy 15+4+15+15+15 = 64.
func TestParkedWaitersReplayInArrivalOrder(t *testing.T) {
	reads := []MsgKind{ReadReq}
	writes := []MsgKind{WriteReq}
	mixed := []MsgKind{ReadReq, WriteReq, WriteReq, ReadReq}
	for _, c := range []struct {
		name   string
		kinds  []MsgKind
		k      int
		queued uint64
		busy   uint64
		end    sim.Cycle
	}{
		{"reads", reads, 1, 21, 64, 64},
		{"reads", reads, 7, 1128, 244, 244},
		{"reads", reads, 63, 89580, 1924, 1924},
		{"writes", writes, 1, 21, 68, 74},
		{"writes", writes, 7, 981, 272, 314},
		{"writes", writes, 63, 75909, 2176, 2554},
		{"mixed", mixed, 1, 22, 69, 75},
		{"mixed", mixed, 7, 1006, 271, 307},
		{"mixed", mixed, 63, 79210, 2147, 2435},
	} {
		t.Run(fmt.Sprintf("%s/%d", c.name, c.k), func(t *testing.T) {
			h := newAnsweringHarness(32)
			contend(t, h, c.k, c.kinds)
			h.run(t)
			grants := hotGrants(h.out)
			if len(grants) != c.k+1 {
				t.Fatalf("%d grants of the contended line, want %d", len(grants), c.k+1)
			}
			for i, dst := range grants {
				if dst != i+1 {
					t.Fatalf("grant order %v: position %d went to cache %d, arrival order says %d", grants, i, dst, i+1)
				}
			}
			st := h.mod.Stats()
			if st.QueuedCycles != c.queued || st.BusyCycles != c.busy || h.eng.Now() != c.end {
				t.Errorf("queued %d busy %d end %d, recorded %d %d %d",
					st.QueuedCycles, st.BusyCycles, h.eng.Now(), c.queued, c.busy, c.end)
			}
			if !h.mod.Idle() {
				t.Error("module not idle after the last grant")
			}
		})
	}
}

// TestSaveLoadMidReplay snapshots a module at the point the ring makes
// hardest: one line's waiters have just been put back at the front
// while another line's waiters are still parked. The saved state must
// list the queue in service order, load into a fresh module that saves
// to the same state, and carry on to the same messages at the same
// cycles. The scenario starts from every slot of a 32-slot buffer, so
// the saved queue straddles the buffer's end in some of them whatever
// the growth policy.
func TestSaveLoadMidReplay(t *testing.T) {
	wrapped := 0
	for head := 0; head < 32; head++ {
		if saveLoadMidReplay(t, head) {
			wrapped++
		}
	}
	if wrapped == 0 {
		t.Error("no start slot had the saved queue straddle the end of its buffer")
	}
}

// saveLoadMidReplay runs the scenario with the queue's front starting
// at slot head and reports whether the saved queue was wrapped.
func saveLoadMidReplay(t *testing.T, head int) (wrapped bool) {
	t.Helper()
	const otherLine = 0x2000
	h := newAnsweringHarness(32)
	h.mod.inq = ring[queued]{buf: make([]queued, 32), head: head}
	h.mod.Receive(0, Msg{WriteReq, hotLine})
	h.mod.Receive(50, Msg{WriteReq, otherLine})
	h.run(t)
	for i := 1; i <= 7; i++ {
		h.mod.Receive(i, Msg{WriteReq, hotLine})
		h.mod.Receive(50+i, Msg{ReadReq, otherLine})
		h.mod.Receive(100+i, Msg{ReadReq, 0x10000 + uint64(i)*0x100})
	}
	parked := func() (n int) {
		for _, e := range h.mod.dir {
			n += len(e.Pending)
		}
		return n
	}
	// Stop at the first replay (one event lengthens the queue by two or
	// more) that happens beside parked waiters.
	replayed := 0
	for replayed == 0 {
		before := h.mod.inq.len()
		if !h.eng.Step() {
			t.Fatalf("start slot %d: no replay beside parked waiters", head)
		}
		if q := &h.mod.inq; q.len() > before+1 && parked() > 0 {
			replayed = q.len() - before
			wrapped = q.head+q.n > len(q.buf)
		}
	}

	st := h.mod.Save()
	if len(st.Inq) != h.mod.inq.len() || len(st.Inq) == replayed {
		t.Fatalf("start slot %d: saved %d queued requests of %d (%d replayed)", head, len(st.Inq), h.mod.inq.len(), replayed)
	}
	for i, q := range st.Inq {
		front := i < replayed
		if front != (q.At == h.eng.Now()) || front != (q.Msg.Line == hotLine) || (front && i > 0 && q.Src != st.Inq[i-1].Src+1) {
			t.Fatalf("start slot %d: saved queue %+v: want the %d replayed waiters first, in arrival order and stamped %d, then the older requests",
				head, st.Inq, replayed, h.eng.Now())
		}
	}
	es, err := h.eng.Save()
	if err != nil {
		t.Fatal(err)
	}

	r := newAnsweringHarness(32)
	if err := r.mod.Load(st); err != nil {
		t.Fatal(err)
	}
	if again := r.mod.Save(); !reflect.DeepEqual(again, st) {
		t.Fatalf("start slot %d: a loaded module saves to a different state:\n got %+v\nwant %+v", head, again, st)
	}
	err = r.eng.Load(es, func(d sim.EventDesc) (sim.Handler, error) {
		if d.Comp == sim.CompCache {
			return r.answer, nil
		}
		return r.mod.CheckEvent(d, 256)
	})
	if err != nil {
		t.Fatal(err)
	}

	before := len(h.out)
	h.run(t)
	r.run(t)
	if !reflect.DeepEqual(h.out[before:], r.out) {
		t.Errorf("start slot %d: restored module sent\n %+v\nthe original\n %+v", head, r.out, h.out[before:])
	}
	if h.mod.Stats() != r.mod.Stats() || h.eng.Now() != r.eng.Now() {
		t.Errorf("start slot %d: restored run ends at %d with %+v, the original at %d with %+v",
			head, r.eng.Now(), r.mod.Stats(), h.eng.Now(), h.mod.Stats())
	}
	if !h.mod.Idle() || !r.mod.Idle() {
		t.Errorf("start slot %d: module not idle at the end", head)
	}
	return wrapped
}
