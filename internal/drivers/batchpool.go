package drivers

import (
	"repro/internal/cpu"
	"repro/internal/nic"
	"repro/internal/units"
	"repro/internal/vmm"
)

// batchPool is a software backend's dom0 thread pool (netback copy threads,
// VMDq translation threads, OVS datapath threads) whose jobs each carry one
// batch to one vif. In-service batches ride pooled jobs whose run method
// value is created once, as the NIC's transfer completions do, so the
// steady-state submit → serve → done cycle allocates nothing.
type batchPool[V any] struct {
	*cpu.Pool
	done func(v V, b nic.Batch) // the backend's completion
	free []*batchJob[V]
}

// batchJob is one pooled in-service batch. Its payload is copied out before
// done runs, so the job is back on the free list before done can submit.
type batchJob[V any] struct {
	pool *batchPool[V]
	v    V
	b    nic.Batch
	run  func() // j.fire, created once
}

// newBatchPool creates threads workers charging the service domain (dom0
// on Xen, the host on KVM) under category.
func newBatchPool[V any](hv *vmm.Hypervisor, category string, threads int, done func(V, nic.Batch)) *batchPool[V] {
	return &batchPool[V]{
		Pool: cpu.NewPool(hv.Engine(), hv.Meter(),
			cpu.Account{Domain: hv.Dom0().Name, Category: category}, threads, netbackQueueCap),
		done: done,
	}
}

// submit queues batch b for v at the given service cost, reporting false
// when the chosen thread's queue is full.
func (p *batchPool[V]) submit(cost units.Cycles, v V, b nic.Batch) bool {
	var j *batchJob[V]
	if n := len(p.free); n > 0 {
		j = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		j = &batchJob[V]{pool: p}
		j.run = j.fire
	}
	j.v, j.b = v, b
	if p.Submit(cpu.Job{Cost: cost, Run: j.run}) {
		return true
	}
	j.release()
	return false
}

func (j *batchJob[V]) fire() {
	v, b := j.v, j.b
	j.release()
	j.pool.done(v, b)
}

func (j *batchJob[V]) release() {
	var zero V
	j.v, j.b = zero, nic.Batch{}
	j.pool.free = append(j.pool.free, j)
}
