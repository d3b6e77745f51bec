package interrupts

import "testing"

// refLAPIC is the naive reference model FuzzLAPIC checks LAPIC against:
// IRR and ISR as [256]bool, the highest vector found by a linear scan.
type refLAPIC struct {
	irr, isr              [256]bool
	eoiCount, spuriousEOI int64
}

func refHighest(set *[256]bool) int {
	for v := 255; v >= 0; v-- {
		if set[v] {
			return v
		}
	}
	return -1
}

func (l *refLAPIC) inject(v Vector) bool {
	if l.irr[v] {
		return false
	}
	l.irr[v] = true
	return true
}

func (l *refLAPIC) pending() (Vector, bool) {
	hp := refHighest(&l.irr)
	if hp < 0 {
		return 0, false
	}
	if hs := refHighest(&l.isr); hs >= 0 && hs>>4 >= hp>>4 {
		return 0, false
	}
	return Vector(hp), true
}

func (l *refLAPIC) ack() (Vector, bool) {
	v, ok := l.pending()
	if !ok {
		return 0, false
	}
	l.irr[v] = false
	l.isr[v] = true
	return v, true
}

func (l *refLAPIC) eoi() (Vector, bool) {
	l.eoiCount++
	hs := refHighest(&l.isr)
	if hs < 0 {
		l.spuriousEOI++
		return 0, false
	}
	l.isr[hs] = false
	return l.pending()
}

// FuzzLAPIC runs an arbitrary sequence of LAPIC operations — two bytes
// each, an opcode and a vector — against LAPIC and refLAPIC and requires
// every result and counter to match, and the IRR and ISR to agree on every
// vector after each step.
func FuzzLAPIC(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x41, 1, 0, 0, 0x31, 3, 0, 2, 0, 2, 0, 2, 0})
	// Same priority class: 0x45 waits behind 0x41 in service.
	f.Add([]byte{0, 0x41, 1, 0, 0, 0x45, 3, 0, 4, 0x41, 5, 0x45, 2, 0, 1, 0})
	// Vectors at every word boundary of the bitmap.
	f.Add([]byte{0, 0, 0, 63, 0, 64, 0, 127, 0, 128, 0, 191, 0, 192, 0, 255, 1, 0, 1, 0, 2, 0, 1, 0, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var got LAPIC
		var want refLAPIC
		for i := 0; i+1 < len(ops); i += 2 {
			v := Vector(ops[i+1])
			switch ops[i] % 6 {
			case 0:
				if g, w := got.Inject(v), want.inject(v); g != w {
					t.Fatalf("op %d Inject(%d) = %v, reference %v", i/2, v, g, w)
				}
			case 1:
				gv, gok := got.Ack()
				wv, wok := want.ack()
				if gv != wv || gok != wok {
					t.Fatalf("op %d Ack() = %d,%v, reference %d,%v", i/2, gv, gok, wv, wok)
				}
			case 2:
				gv, gok := got.EOI()
				wv, wok := want.eoi()
				if gv != wv || gok != wok {
					t.Fatalf("op %d EOI() = %d,%v, reference %d,%v", i/2, gv, gok, wv, wok)
				}
			case 3:
				gv, gok := got.Pending()
				wv, wok := want.pending()
				if gv != wv || gok != wok {
					t.Fatalf("op %d Pending() = %d,%v, reference %d,%v", i/2, gv, gok, wv, wok)
				}
			case 4:
				if g, w := got.InService(v), want.isr[v]; g != w {
					t.Fatalf("op %d InService(%d) = %v, reference %v", i/2, v, g, w)
				}
			case 5:
				if g, w := got.IRRSet(v), want.irr[v]; g != w {
					t.Fatalf("op %d IRRSet(%d) = %v, reference %v", i/2, v, g, w)
				}
			}
			if got.EOICount != want.eoiCount || got.SpuriousEOI != want.spuriousEOI {
				t.Fatalf("op %d: EOICount/SpuriousEOI = %d/%d, reference %d/%d",
					i/2, got.EOICount, got.SpuriousEOI, want.eoiCount, want.spuriousEOI)
			}
		}
		for v := 0; v < 256; v++ {
			if got.IRRSet(Vector(v)) != want.irr[v] || got.InService(Vector(v)) != want.isr[v] {
				t.Fatalf("vector %d: IRR/ISR = %v/%v, reference %v/%v", v,
					got.IRRSet(Vector(v)), got.InService(Vector(v)), want.irr[v], want.isr[v])
			}
		}
	})
}
