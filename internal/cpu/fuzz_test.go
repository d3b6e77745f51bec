package cpu

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/units"
)

// fuzzAccounts is FuzzMeter's account universe: domains that share
// categories and categories that share domains, so DomainCycles has to
// separate them.
var fuzzAccounts = func() []Account {
	var out []Account
	for _, d := range []string{"dom0", "xen", "guest-1", "host"} {
		for _, c := range []string{"isr", "vmexit", "netback.0"} {
			out = append(out, Account{d, c})
		}
	}
	return out
}()

// checkMeter compares every read of m against the reference model: the
// map[Account]units.Cycles the meter kept before accounts had slots.
func checkMeter(t *testing.T, step int, m *Meter, ref map[Account]units.Cycles) {
	t.Helper()
	want := make([]Account, 0, len(ref))
	doms := map[string]units.Cycles{}
	var total units.Cycles
	for a, c := range ref {
		want = append(want, a)
		doms[a.Domain] += c
		total += c
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Domain != want[j].Domain {
			return want[i].Domain < want[j].Domain
		}
		return want[i].Category < want[j].Category
	})
	if got := m.Accounts(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("step %d: Accounts = %v, reference %v", step, got, want)
	}
	wantDoms := make([]string, 0, len(doms))
	for d := range doms {
		wantDoms = append(wantDoms, d)
	}
	sort.Strings(wantDoms)
	if got := m.Domains(); fmt.Sprint(got) != fmt.Sprint(wantDoms) {
		t.Fatalf("step %d: Domains = %v, reference %v", step, got, wantDoms)
	}
	for _, a := range fuzzAccounts {
		if got := m.Cycles(a); got != ref[a] {
			t.Fatalf("step %d: Cycles(%v) = %d, reference %d", step, a, got, ref[a])
		}
		if got := m.DomainCycles(a.Domain); got != doms[a.Domain] {
			t.Fatalf("step %d: DomainCycles(%s) = %d, reference %d", step, a.Domain, got, doms[a.Domain])
		}
	}
	if got := m.TotalCycles(); got != total {
		t.Fatalf("step %d: TotalCycles = %d, reference %d", step, got, total)
	}
}

// FuzzMeter drives random resolve / charge (by account or by slot, zero
// charges included) / ResetWindow / read sequences, three bytes per
// operation, and checks every read after every step against the reference
// map. Slots resolved before a ResetWindow must keep charging the same
// account after it.
func FuzzMeter(f *testing.F) {
	f.Add([]byte{})
	// Zero charges register the account; a reset empties the window.
	f.Add([]byte{1, 0, 0, 2, 4, 0, 4, 7, 0, 3, 0, 0, 4, 0, 0})
	// Resolve, reset, then charge the held slot.
	f.Add([]byte{0, 2, 0, 3, 0, 0, 2, 2, 9, 5, 11, 0, 3, 0, 0, 2, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := NewMeter(testSys)
		ref := map[Account]units.Cycles{}
		slots := map[Account]Slot{}
		resolve := func(a Account) Slot {
			s := m.Resolve(a)
			if old, ok := slots[a]; ok && old != s {
				t.Fatalf("Resolve(%v) = %d, earlier %d", a, s, old)
			}
			slots[a] = s
			return s
		}
		for i := 0; i+2 < len(ops); i += 3 {
			a := fuzzAccounts[int(ops[i+1])%len(fuzzAccounts)]
			c := units.Cycles(ops[i+2]) * 1000
			switch ops[i] % 6 {
			case 0:
				resolve(a)
			case 1:
				m.Charge(a, c)
				ref[a] += c
			case 2:
				m.ChargeSlot(resolve(a), c)
				ref[a] += c
			case 3:
				m.ResetWindow(units.Time(i))
				clear(ref)
			case 4:
				m.Cycles(a) // a read must register nothing
			case 5:
				m.ChargeSlot(resolve(a), 0)
				ref[a] += 0
			}
			checkMeter(t, i/3, m, ref)
		}
	})
}
