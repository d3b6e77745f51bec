package cluster

import (
	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// LinkConfig shapes one fabric link: a switch egress (downlink) toward a
// host NIC port. The matching uplink direction needs no separate queue —
// the host NIC already serializes its transmit side at the port rate, so
// the uplink's bandwidth is modeled there and only the one-hop
// store-and-forward latency is charged here.
type LinkConfig struct {
	Rate     units.BitRate  // drain rate (default 1 GbE, the port class)
	Latency  units.Duration // one-way propagation + switching (default 5 µs)
	QueueCap units.Size     // egress buffer bound (default 256 KiB)
}

func (lc *LinkConfig) fill() {
	if lc.Rate == 0 {
		lc.Rate = model.ClusterLinkRate
	}
	if lc.Latency == 0 {
		lc.Latency = model.ClusterLinkLatency
	}
	if lc.QueueCap == 0 {
		lc.QueueCap = model.ClusterQueueCap
	}
}

// queueDepthBounds are the histogram buckets for egress queue depth. The
// obs histogram type is duration-valued, so depth is encoded as
// 1 KiB ≡ 1 µs (a 256 KiB queue spans 0–256 "µs").
func queueDepthBounds() []units.Duration {
	return []units.Duration{0,
		4 * units.Microsecond, 16 * units.Microsecond, 32 * units.Microsecond,
		64 * units.Microsecond, 96 * units.Microsecond, 128 * units.Microsecond,
		192 * units.Microsecond, 256 * units.Microsecond, 512 * units.Microsecond}
}

// encodeKiB maps a byte size onto the duration-typed histogram axis.
func encodeKiB(s units.Size) units.Duration {
	return units.Duration(s/units.KiB) * units.Microsecond
}

// link is one switch egress port: a bounded tail-drop FIFO draining at the
// link rate, delivering each batch to the attached host after the
// serialization time plus the hop latency.
type link struct {
	eng     *sim.Engine
	name    string
	cfg     LinkConfig
	deliver func(nic.Batch)

	qBytes    units.Size     // bytes queued or in flight on the line
	busyUntil units.Time     // when the line finishes its current backlog
	busyAccum units.Duration // cumulative transmit time (utilization)

	txPackets *obs.Counter
	txBytes   *obs.Counter
	dropped   *obs.Counter
	util      *obs.Gauge
	depth     *obs.Hist
	sojourn   *obs.Hist
}

func newLink(eng *sim.Engine, reg *obs.Registry, name string, cfg LinkConfig, deliver func(nic.Batch)) *link {
	cfg.fill()
	prefix := "cluster.link." + name
	return &link{
		eng: eng, name: name, cfg: cfg, deliver: deliver,
		txPackets: reg.Counter(prefix + ".tx_packets"),
		txBytes:   reg.Counter(prefix + ".tx_bytes"),
		dropped:   reg.Counter(prefix + ".dropped_pkts"),
		util:      reg.Gauge(prefix + ".util"),
		depth:     reg.Histogram(prefix+".queue_kib", queueDepthBounds()...),
		sojourn:   reg.Histogram(prefix + ".sojourn"),
	}
}

// send enqueues a batch. Batches that do not fit the egress buffer are
// tail-dropped whole (the ToR has no partial-frame accounting at batch
// granularity).
func (l *link) send(b nic.Batch) {
	now := l.eng.Now()
	if l.qBytes+b.Bytes > l.cfg.QueueCap {
		l.dropped.Add(int64(b.Count))
		return
	}
	l.qBytes += b.Bytes
	l.depth.ObserveN(encodeKiB(l.qBytes), 1)
	start := l.busyUntil
	if start < now {
		start = now
	}
	ttime := units.TransferTime(b.Bytes, l.cfg.Rate)
	l.busyUntil = start.Add(ttime)
	l.busyAccum += ttime
	enq := now
	l.eng.At(l.busyUntil.Add(l.cfg.Latency), "cluster:link:"+l.name, func() {
		l.qBytes -= b.Bytes
		l.txPackets.Add(int64(b.Count))
		l.txBytes.Add(int64(b.Bytes))
		dq := l.eng.Now()
		l.sojourn.ObserveN(dq.Sub(enq), int64(b.Count))
		if dq > 0 {
			l.util.Set(float64(l.busyAccum) / float64(dq))
		}
		l.deliver(b)
	})
}

// Switch is the shared ToR: a learning L2 switch whose forwarding database
// maps source MACs to the ingress port they were last seen on. Unknown
// destinations flood to every port but the ingress, walking the port slice
// in order, so a flood's event schedule is deterministic. The FDB map is
// only ever looked up, never iterated: map iteration order is the one
// source of nondeterminism Go hands out for free.
type Switch struct {
	eng   *sim.Engine
	ports []*link
	fdb   map[nic.MAC]int

	learns *obs.Counter
	floods *obs.Counter
}

func newSwitch(eng *sim.Engine, reg *obs.Registry) *Switch {
	return &Switch{
		eng:    eng,
		fdb:    make(map[nic.MAC]int),
		learns: reg.Counter("cluster.switch.learns"),
		floods: reg.Counter("cluster.switch.floods"),
	}
}

// addPort registers an egress link and returns its port index.
func (s *Switch) addPort(l *link) int {
	s.ports = append(s.ports, l)
	return len(s.ports) - 1
}

// ingress is a frame batch arriving from a host uplink. Learning is
// load-bearing: after a migration the target host gratuitously announces
// the moved MAC, and until that announcement arrives, frames keep going to
// the stale port (and are dropped there) — exactly the transient a real
// ToR exhibits.
func (s *Switch) ingress(from int, b nic.Batch) {
	if b.Src != 0 && b.Src != nic.Broadcast {
		if cur, ok := s.fdb[b.Src]; !ok || cur != from {
			s.fdb[b.Src] = from
			s.learns.Inc()
		}
	}
	if b.Dst != nic.Broadcast {
		if out, ok := s.fdb[b.Dst]; ok {
			if out != from {
				s.ports[out].send(b)
			}
			return
		}
	}
	s.floods.Inc()
	for i, p := range s.ports {
		if i != from {
			p.send(b)
		}
	}
}

// FDBPort reports which switch port a MAC was learned on.
func (s *Switch) FDBPort(mac nic.MAC) (int, bool) {
	p, ok := s.fdb[mac]
	return p, ok
}
