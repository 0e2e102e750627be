package sim

// Proc models a single-core processor attached to the kernel. Work items
// submitted with Exec run serially: an item submitted while the processor
// is busy waits until the processor frees up. This is the mechanism that
// reproduces the paper's saturation knees — e.g. in Figure 6 the Central
// server's queue grows without bound once 32 clients × 7.44 ms/action
// exceeds the 300 ms action budget, which is exactly what this model
// produces.
type Proc struct {
	k *Kernel

	// Name identifies the processor in diagnostics.
	Name string

	busyUntil Time
	busyTotal Time
}

// NewProc returns an idle processor attached to k.
func NewProc(k *Kernel, name string) *Proc {
	return &Proc{k: k, Name: name}
}

// Exec schedules fn to run after cost milliseconds of serial compute time,
// queued behind any work already assigned to this processor. It returns
// the virtual time at which fn will fire. A zero or negative cost runs at
// the processor's next free instant with no added delay.
func (p *Proc) Exec(cost Time, fn func()) Time {
	if cost < 0 {
		cost = 0
	}
	start := p.k.Now()
	if p.busyUntil > start {
		start = p.busyUntil
	}
	end := start + cost
	p.busyUntil = end
	p.busyTotal += cost
	p.k.At(end, fn)
	return end
}

// FreeAt reports the earliest virtual time at which the processor has no
// queued work.
func (p *Proc) FreeAt() Time { return p.busyUntil }

// Backlog reports how much queued compute (ms) separates now from the
// processor's next idle instant.
func (p *Proc) Backlog() Time {
	b := p.busyUntil - p.k.Now()
	if b < 0 {
		return 0
	}
	return b
}

// BusyTotal reports the cumulative compute time executed.
func (p *Proc) BusyTotal() Time { return p.busyTotal }

// Utilization reports busy time divided by elapsed virtual time, in [0, 1]
// for a non-saturated processor (it can exceed 1 transiently while a
// backlog is queued). Returns 0 before any time has elapsed.
func (p *Proc) Utilization() float64 {
	if p.k.Now() <= 0 {
		return 0
	}
	return float64(p.busyTotal) / float64(p.k.Now())
}
