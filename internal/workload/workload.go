// Package workload generates the netperf-style traffic the paper's
// evaluation runs: constant-bit-rate UDP_STREAM sources, TCP_STREAM sources
// whose steady-state rate comes from the netstack model, and measurement
// windows that snapshot receiver statistics.
//
// The "client" machine of §6.1 runs native Linux and its CPU is not part of
// any reported figure, so sources deliver batches straight into a sink (the
// server NIC's wire, a bond's ingress, or the dom0 bridge) without modeling
// client-side cycles.
package workload

import (
	"repro/internal/guest"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/sim"
	"repro/internal/units"
)

// Sink receives generated batches (count, bytes).
type Sink func(count int, bytes units.Size)

// Source is a constant-bit-rate stream generator.
type Source struct {
	eng    *sim.Engine
	rate   units.BitRate
	frame  units.Size
	sink   Sink
	tick   units.Duration
	ticker *sim.Ticker

	// accumulated fractional packets between ticks.
	carry float64

	Sent      int64
	SentBytes units.Size
}

// tickPeriod is the generator granularity: small enough that per-interrupt
// batching is decided by the NIC's throttle, not by the generator (the
// highest modeled interrupt rate is 20 kHz, so deliveries must arrive
// faster than that).
const tickPeriod = 50 * units.Microsecond

// NewSource creates a stopped source. Rate is the offered load; frame the
// wire size per packet.
func NewSource(eng *sim.Engine, rate units.BitRate, frame units.Size, sink Sink) *Source {
	return &Source{eng: eng, rate: rate, frame: frame, sink: sink, tick: tickPeriod}
}

// SetTickPeriod changes the generation granularity (before Start). Paths
// that batch in software anyway (PV, VMDq) can use a coarser tick.
func (s *Source) SetTickPeriod(d units.Duration) {
	if d > 0 {
		s.tick = d
	}
}

// Rate reports the offered rate.
func (s *Source) Rate() units.BitRate { return s.rate }

// SetRate changes the offered rate (takes effect next tick).
func (s *Source) SetRate(r units.BitRate) { s.rate = r }

// Start begins generation.
func (s *Source) Start() {
	if s.ticker != nil {
		return
	}
	s.ticker = sim.NewTicker(s.eng, s.tick, "workload:src", func(units.Time) { s.generate() })
}

// Stop halts generation.
func (s *Source) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
}

func (s *Source) generate() {
	if s.rate <= 0 {
		return
	}
	pps := model.PacketsPerSecond(s.rate, s.frame)
	s.carry += pps * s.tick.Seconds()
	n := int(s.carry)
	if n == 0 {
		return
	}
	s.carry -= float64(n)
	bytes := units.Size(n) * s.frame
	s.Sent += int64(n)
	s.SentBytes += bytes
	s.sink(n, bytes)
}

// TCPRate computes the steady-state rate of a TCP_STREAM against a receiver
// using the given coalescing policy (the netstack fixed point), so the
// source can be driven losslessly at the equilibrium.
func TCPRate(params netstack.TCPParams, policy netstack.ITRPolicy) units.BitRate {
	r, _ := netstack.TCPSteadyState(params, policy)
	return r
}

// Window measures receiver-side goodput over an interval.
type Window struct {
	start units.Time
	base  guest.ReceiverStats
	recv  *guest.NetReceiver
}

// StartWindow snapshots the receiver now.
func StartWindow(now units.Time, recv *guest.NetReceiver) Window {
	return Window{start: now, base: recv.Stats, recv: recv}
}

// Result is a measurement window's outcome.
type Result struct {
	Duration    units.Duration
	Goodput     units.BitRate
	Packets     int64
	Interrupts  int64
	SockDropped int64
}

// Close computes the window's result at time now.
func (w Window) Close(now units.Time) Result {
	d := now.Sub(w.start)
	cur := w.recv.Stats
	return Result{
		Duration:    d,
		Goodput:     units.RateOf(cur.AppBytes-w.base.AppBytes, d),
		Packets:     cur.AppPackets - w.base.AppPackets,
		Interrupts:  cur.Interrupts - w.base.Interrupts,
		SockDropped: cur.SockDropped - w.base.SockDropped,
	}
}

// MessageSource drives message-oriented transmission (the Fig. 13/14
// inter-VM sweeps): every tick it asks the transmit callback to send one or
// more messages, pacing by the achieved backlog so the sender saturates the
// path without unbounded queueing.
type MessageSource struct {
	eng     *sim.Engine
	msgSize units.Size
	ticker  *sim.Ticker

	// Transmit sends one message and reports the path backlog; the source
	// stops pushing when the backlog exceeds maxBacklog.
	transmit func(msgSize units.Size) units.Duration

	Messages int64
}

// maxBacklog bounds in-flight data on the inter-VM path.
const maxBacklog = 2 * units.Millisecond

// NewMessageSource creates a stopped message source.
func NewMessageSource(eng *sim.Engine, msgSize units.Size, transmit func(units.Size) units.Duration) *MessageSource {
	return &MessageSource{eng: eng, msgSize: msgSize, transmit: transmit}
}

// Start begins transmission at full pressure.
func (m *MessageSource) Start() {
	if m.ticker != nil {
		return
	}
	m.ticker = sim.NewTicker(m.eng, 50*units.Microsecond, "workload:msgsrc", func(units.Time) {
		for i := 0; i < 8; i++ {
			backlog := m.transmit(m.msgSize)
			m.Messages++
			if backlog > maxBacklog {
				return
			}
		}
	})
}

// Stop halts transmission.
func (m *MessageSource) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
}
