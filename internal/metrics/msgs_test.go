package metrics

import "testing"

// kindName stands in for the protocol message kind (package memory
// imports this one).
type kindName string

func (k kindName) String() string { return string(k) }

// record adds n messages at cycles first, first+1, ...
func record(c *Collector, first, n int) {
	for i := first; i < first+n; i++ {
		c.Message(NetReq, false, uint64(i), 0, 1, kindName("ReadReq"), 0x40)
	}
}

// cycles lists the retained messages' cycles, oldest first.
func cycles(c *Collector) ([]uint64, uint64) {
	msgs, total := c.Msgs()
	var at []uint64
	for _, m := range msgs {
		at = append(at, m.At)
	}
	return at, total
}

// TestNilCollectorMsgsAreSafe: recording into and reading the message
// ring of a nil *Collector are no-ops.
func TestNilCollectorMsgsAreSafe(t *testing.T) {
	var c *Collector
	c.SetMsgs(8)
	record(c, 0, 1)
	if msgs, total := c.Msgs(); msgs != nil || total != 0 {
		t.Errorf("nil collector kept %d messages of %d", len(msgs), total)
	}
}

// TestMsgRingKeepsMostRecent: a full ring keeps the newest messages,
// oldest first, and the total counts the evicted ones too.
func TestMsgRingKeepsMostRecent(t *testing.T) {
	c := New()
	c.SetMsgs(3)
	record(c, 0, 5)
	at, total := cycles(c)
	if total != 5 || len(at) != 3 || at[0] != 2 || at[1] != 3 || at[2] != 4 {
		t.Errorf("kept cycles %v of %d, want [2 3 4] of 5", at, total)
	}
}

func TestMsgRingPartiallyFilledOrder(t *testing.T) {
	c := New()
	record(c, 1, 2)
	at, total := cycles(c)
	if total != 2 || len(at) != 2 || at[0] != 1 || at[1] != 2 {
		t.Errorf("kept cycles %v of %d, want [1 2] of 2", at, total)
	}
}

// TestSetMsgsZeroKeepsDefault: SetMsgs(0) is "not asked for", so the
// ring keeps DefaultMsgs.
func TestSetMsgsZeroKeepsDefault(t *testing.T) {
	c := New()
	c.SetMsgs(0)
	record(c, 0, DefaultMsgs+10)
	if at, total := cycles(c); len(at) != DefaultMsgs || total != DefaultMsgs+10 || at[0] != 10 {
		t.Errorf("kept %d messages of %d from cycle %d, want %d of %d from 10", len(at), total, at[0], DefaultMsgs, DefaultMsgs+10)
	}
}

func TestMsgStringFormat(t *testing.T) {
	for _, tc := range []struct {
		m    Msg
		want string
	}{
		{Msg{At: 100, Net: NetReq, Src: 1, Dst: 2, What: kindName("ReadReq"), Addr: 0x40},
			"[     100] req-send   1 -> 2  ReadReq       0x40"},
		{Msg{At: 7, Net: NetResp, Recv: true, Src: 12, Dst: 3, What: kindName("DataExcl"), Addr: 0x400},
			"[       7] resp-recv 12 -> 3  DataExcl      0x400"},
	} {
		if got := tc.m.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}
