// Package statecheck is the test-side guard of "state is declared
// once" (DESIGN.md §10): a component keeps what a snapshot carries as
// plain data, and its completeness test calls Fields — Resettable, if
// the component has a Reset — to prove that every field of the live
// struct has been decided on.
package statecheck

import (
	"reflect"
	"strings"
	"testing"
)

// Fields fails t for every field of the struct live that is neither
// carried by the struct saved nor excused in notSaved. A field is
// carried when saved has a field of the same name, ignoring case, or
// when the field's type is saved's own type (a live record holding its
// saved form). notSaved maps a field name to the one-phrase reason a
// checkpoint does not need it; an entry that names no field, or a
// carried one, fails too, so the table cannot rot.
func Fields(t *testing.T, live, saved any, notSaved map[string]string) {
	t.Helper()
	lt, st := reflect.TypeOf(live), reflect.TypeOf(saved)
	has := make(map[string]bool)
	for i := 0; i < lt.NumField(); i++ {
		f := lt.Field(i)
		has[f.Name] = true
		_, carried := st.FieldByNameFunc(func(n string) bool { return strings.EqualFold(n, f.Name) })
		carried = carried || f.Type == st
		switch reason, excused := notSaved[f.Name]; {
		case carried && excused:
			t.Errorf("%v.%s is carried by %v, yet notSaved excuses it (%s)", lt, f.Name, st, reason)
		case !carried && !excused:
			t.Errorf("%v.%s is neither carried by %v nor listed in notSaved: decide whether a checkpoint needs it", lt, f.Name, st)
		case excused && reason == "":
			t.Errorf("%v.%s: notSaved gives no reason", lt, f.Name)
		}
	}
	for name := range notSaved {
		if !has[name] {
			t.Errorf("notSaved names %s, which %v does not have", name, lt)
		}
	}
}

// Resettable is Fields for a component that has a Reset. The machine's
// reset tests compare snapshots; a field a snapshot does not carry they
// cannot see, so its reason must open with what Reset does with it:
// "kept: " for wiring, pools and buffers that stand across runs,
// "reset: " for what Reset sets again. Neither fails, like no decision.
func Resettable(t *testing.T, live, saved any, notSaved map[string]string) {
	t.Helper()
	for name, reason := range notSaved {
		if !strings.HasPrefix(reason, "kept: ") && !strings.HasPrefix(reason, "reset: ") {
			t.Errorf("%T.%s: notSaved reason %q does not say whether Reset keeps it (\"kept: \") or sets it again (\"reset: \")",
				live, name, reason)
		}
	}
	Fields(t, live, saved, notSaved)
}
