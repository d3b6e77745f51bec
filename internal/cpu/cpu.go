// Package cpu models processor time. The simulator does not execute guest
// instructions; instead, every modeled activity (interrupt handler, VM-exit,
// packet copy, ...) charges a calibrated number of cycles to an Account.
// Utilization is then reported the way the paper reports it: percent of one
// hardware thread, so 499% means "about five threads busy".
//
// For components whose throughput is limited by a serial CPU (the Xen
// netback copy thread is the canonical example), Worker provides a saturable
// queue/server bound to the simulation engine.
package cpu

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/units"
)

// Account identifies who consumed CPU cycles and why. Domain is the
// consumer as the paper's stacked bars show it ("dom0", "xen", "guest-3",
// "native"); Category is the activity ("devicemodel", "isr", "vmexit",
// "copy", "stack", ...).
type Account struct {
	Domain   string
	Category string
}

func (a Account) String() string { return a.Domain + "/" + a.Category }

// System describes the physical processor of a simulated machine.
type System struct {
	Threads int             // hardware threads (the paper's server has 16)
	Freq    units.Frequency // clock (2.8 GHz in the paper)
}

// Capacity reports the total cycles the system can execute in d.
func (s System) Capacity(d units.Duration) units.Cycles {
	return units.Cycles(int64(s.Threads)) * s.Freq.CyclesIn(d)
}

// Meter accumulates cycles per account over a measurement window.
//
// Accounts live in dense slots. A hot caller resolves its account once
// (Resolve) and charges the returned Slot (ChargeSlot) without hashing;
// Charge is Resolve followed by ChargeSlot, for cold callers. An account
// belongs to the window once it is charged, even by zero cycles.
type Meter struct {
	sys   System
	index map[Account]Slot
	slots []slot
	// charged lists the slots charged in the window, in first-charge order.
	charged []Slot
	started units.Time
}

// Slot is a resolved account: the index of its dense slot in one Meter.
// It stays valid for the meter's lifetime, across ResetWindow.
type Slot int32

type slot struct {
	acct    Account
	cycles  units.Cycles
	charged bool // charged in the current window
}

// NewMeter returns a meter for the given system with the window starting at
// time zero.
func NewMeter(sys System) *Meter {
	return &Meter{sys: sys, index: make(map[Account]Slot)}
}

// System reports the system this meter measures.
func (m *Meter) System() System { return m.sys }

// Resolve returns the slot of an account, allocating one on first use.
// Resolving does not charge: the account joins the window's Accounts only
// when a charge reaches it.
func (m *Meter) Resolve(a Account) Slot {
	if s, ok := m.index[a]; ok {
		return s
	}
	s := Slot(len(m.slots))
	m.index[a] = s
	m.slots = append(m.slots, slot{acct: a})
	// charged never outgrows the slots, so sizing it here keeps every
	// charge allocation-free.
	m.charged = slices.Grow(m.charged, len(m.slots)-len(m.charged))
	return s
}

// Charge adds cycles to an account. Negative charges panic: they are always
// a modeling bug.
func (m *Meter) Charge(a Account, c units.Cycles) { m.ChargeSlot(m.Resolve(a), c) }

// ChargeSlot adds cycles to a resolved account, with Charge's rules.
func (m *Meter) ChargeSlot(s Slot, c units.Cycles) {
	e := &m.slots[s]
	if c < 0 {
		panic(fmt.Sprintf("cpu: negative charge %d to %v", c, e.acct))
	}
	if !e.charged {
		e.charged = true
		m.charged = append(m.charged, s)
	}
	e.cycles += c
}

// ResetWindow discards accumulated cycles and marks now as the start of a
// new measurement window. Resolved slots stay valid.
func (m *Meter) ResetWindow(now units.Time) {
	for _, s := range m.charged {
		m.slots[s].cycles = 0
		m.slots[s].charged = false
	}
	m.charged = m.charged[:0]
	m.started = now
}

// WindowStart reports when the current window began.
func (m *Meter) WindowStart() units.Time { return m.started }

// Cycles reports the cycles charged to a since the window started. An
// account never resolved reports zero and stays unresolved.
func (m *Meter) Cycles(a Account) units.Cycles {
	if s, ok := m.index[a]; ok {
		return m.slots[s].cycles
	}
	return 0
}

// DomainCycles reports total cycles charged to a domain across categories.
func (m *Meter) DomainCycles(domain string) units.Cycles {
	var t units.Cycles
	for _, s := range m.charged {
		if e := &m.slots[s]; e.acct.Domain == domain {
			t += e.cycles
		}
	}
	return t
}

// TotalCycles reports all cycles charged in the window.
func (m *Meter) TotalCycles() units.Cycles {
	var t units.Cycles
	for _, s := range m.charged {
		t += m.slots[s].cycles
	}
	return t
}

// Utilization reports the percent-of-one-thread utilization of a domain over
// the window ending at now. 100 means one thread fully busy.
func (m *Meter) Utilization(domain string, now units.Time) float64 {
	return m.utilization(m.DomainCycles(domain), now)
}

// TotalUtilization reports percent-of-one-thread utilization summed over all
// domains.
func (m *Meter) TotalUtilization(now units.Time) float64 {
	return m.utilization(m.TotalCycles(), now)
}

// CategoryUtilization reports utilization of one (domain, category) account.
func (m *Meter) CategoryUtilization(a Account, now units.Time) float64 {
	return m.utilization(m.Cycles(a), now)
}

func (m *Meter) utilization(c units.Cycles, now units.Time) float64 {
	elapsed := now.Sub(m.started)
	if elapsed <= 0 {
		return 0
	}
	budget := m.sys.Freq.CyclesIn(elapsed)
	if budget <= 0 {
		return 0
	}
	return float64(c) / float64(budget) * 100
}

// Domains reports all domains that were charged, sorted.
func (m *Meter) Domains() []string {
	set := make(map[string]bool)
	out := make([]string, 0, len(m.charged))
	for _, s := range m.charged {
		if d := m.slots[s].acct.Domain; !set[d] {
			set[d] = true
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out
}

// Accounts reports all charged accounts, sorted by domain then category.
func (m *Meter) Accounts() []Account {
	out := make([]Account, 0, len(m.charged))
	for _, s := range m.charged {
		out = append(out, m.slots[s].acct)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Domain != out[j].Domain {
			return out[i].Domain < out[j].Domain
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// Breakdown renders a utilization report per domain, for diagnostics.
func (m *Meter) Breakdown(now units.Time) string {
	var b strings.Builder
	for _, d := range m.Domains() {
		fmt.Fprintf(&b, "%s=%.1f%% ", d, m.Utilization(d, now))
	}
	fmt.Fprintf(&b, "total=%.1f%%", m.TotalUtilization(now))
	return b.String()
}

// Job is one unit of work submitted to a Worker.
type Job struct {
	Cost units.Cycles // service demand
	// Run is executed when service completes (may be nil). Hot callers
	// pass a method value created once on a pooled payload, so submitting
	// a job allocates nothing.
	Run func()
}

// Worker models a single CPU thread that serves a FIFO queue of jobs, e.g.
// one netback copy thread. Service time is Cost cycles at the system clock.
// When the queue is full new jobs are rejected (the caller decides whether
// that means a dropped packet or backpressure). All service time is charged
// to the worker's account.
//
// The account slot and the event name are resolved at construction, the
// completion callback is a method value created once, and the queue is a
// ring, so a steady-state submit → serve → complete cycle allocates nothing.
type Worker struct {
	eng      *sim.Engine
	meter    *Meter
	slot     Slot
	evName   string
	done     func() // w.complete, created once
	queueCap int
	// ring holds the queued jobs: n of them from head, wrapping; its
	// length is a power of two.
	ring []Job
	head int
	n    int
	cur  Job // the job in service
	busy bool
	// Overload tracks rejected jobs for diagnostics.
	Rejected int64
	Served   int64
}

// NewWorker creates a worker charging the given account. queueCap bounds the
// number of queued (not yet started) jobs; 0 means unbounded.
func NewWorker(eng *sim.Engine, meter *Meter, account Account, queueCap int) *Worker {
	w := &Worker{
		eng:      eng,
		meter:    meter,
		slot:     meter.Resolve(account),
		evName:   "worker:" + account.String(),
		queueCap: queueCap,
	}
	w.done = w.complete
	return w
}

// QueueLen reports the number of jobs waiting (not including the one being
// served).
func (w *Worker) QueueLen() int { return w.n }

// Busy reports whether a job is currently in service.
func (w *Worker) Busy() bool { return w.busy }

// Submit enqueues a job, reporting false if the queue is full.
func (w *Worker) Submit(j Job) bool {
	if w.queueCap > 0 && w.n >= w.queueCap {
		w.Rejected++
		return false
	}
	if w.n == len(w.ring) {
		w.grow()
	}
	w.ring[(w.head+w.n)&(len(w.ring)-1)] = j
	w.n++
	if !w.busy {
		w.startNext()
	}
	return true
}

// grow doubles the ring, unwrapping the queued jobs to its front.
func (w *Worker) grow() {
	ring := make([]Job, max(8, 2*len(w.ring)))
	for i := 0; i < w.n; i++ {
		ring[i] = w.ring[(w.head+i)&(len(w.ring)-1)]
	}
	w.ring, w.head = ring, 0
}

func (w *Worker) startNext() {
	if w.n == 0 {
		w.busy = false
		return
	}
	w.cur = w.ring[w.head]
	w.ring[w.head] = Job{}
	w.head = (w.head + 1) & (len(w.ring) - 1)
	w.n--
	w.busy = true
	w.eng.After(w.meter.sys.Freq.DurationOf(w.cur.Cost), w.evName, w.done)
}

// complete finishes the job in service: charge its cycles, run it, and
// start the next one.
func (w *Worker) complete() {
	j := w.cur
	w.cur = Job{}
	w.meter.ChargeSlot(w.slot, j.Cost)
	w.Served++
	if j.Run != nil {
		j.Run()
	}
	w.startNext()
}

// Pool is a fixed set of workers with round-robin dispatch, modeling the
// multi-threaded netback enhancement of §6.5.
type Pool struct {
	workers []*Worker
	next    int
}

// NewPool creates n workers charging accounts derived from base by suffixing
// the worker index to the category.
func NewPool(eng *sim.Engine, meter *Meter, base Account, n, queueCap int) *Pool {
	if n <= 0 {
		panic("cpu: pool needs at least one worker")
	}
	p := &Pool{}
	for i := 0; i < n; i++ {
		acct := Account{Domain: base.Domain, Category: fmt.Sprintf("%s.%d", base.Category, i)}
		p.workers = append(p.workers, NewWorker(eng, meter, acct, queueCap))
	}
	return p
}

// Size reports the number of workers.
func (p *Pool) Size() int { return len(p.workers) }

// Submit dispatches a job to the least-loaded worker (ties broken round
// robin), reporting false if that worker's queue is full.
func (p *Pool) Submit(j Job) bool {
	best := -1
	bestLen := 1 << 30
	for i := 0; i < len(p.workers); i++ {
		k := (p.next + i) % len(p.workers)
		l := p.workers[k].QueueLen()
		if p.workers[k].Busy() {
			l++
		}
		if l < bestLen {
			bestLen = l
			best = k
		}
	}
	p.next = (best + 1) % len(p.workers)
	return p.workers[best].Submit(j)
}

// QueuedJobs reports jobs waiting (and in service) across workers.
func (p *Pool) QueuedJobs() int {
	n := 0
	for _, w := range p.workers {
		n += w.QueueLen()
		if w.Busy() {
			n++
		}
	}
	return n
}

// Rejected reports total rejected jobs across workers.
func (p *Pool) Rejected() int64 {
	var t int64
	for _, w := range p.workers {
		t += w.Rejected
	}
	return t
}

// Served reports total served jobs across workers.
func (p *Pool) Served() int64 {
	var t int64
	for _, w := range p.workers {
		t += w.Served
	}
	return t
}
