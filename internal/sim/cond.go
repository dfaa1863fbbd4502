package sim

// Cond is a condition variable for procs. As in the paper's emulator,
// waiters conceptually post a wakeup event at t = Forever; Signal moves one
// waiter's wakeup to the present. There is no associated mutex because the
// simulation's event spine is single-threaded: state inspected before Wait
// cannot change until the proc parks. As with sync.Cond, callers should
// re-check their predicate in a loop around Wait, because other procs may
// run between the signal and the wakeup.
type Cond struct {
	sim      *Sim
	waiters  []*Proc // in wait order
	what     string
	waitWhat string // "wait: " + what, precomputed so Wait is allocation-free
}

// NewCond creates a condition variable. what describes the awaited condition
// in deadlock reports.
func NewCond(s *Sim, what string) *Cond {
	c := &Cond{sim: s, what: what, waitWhat: "wait: " + what}
	s.registerPurger(c)
	return c
}

// purge removes a killed proc from the wait list; see Sim.killProcs.
func (c *Cond) purge(p *Proc) {
	out := c.waiters[:0]
	for _, w := range c.waiters {
		if w != p {
			out = append(out, w)
		}
	}
	// Clear the tail so the backing array doesn't pin the removed proc.
	for i := len(out); i < len(c.waiters); i++ {
		c.waiters[i] = nil
	}
	c.waiters = out
}

// Wait parks p until another proc or event calls Signal or Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.parkCharged(c.waitWhat, ChargeCondWait, c.what)
}

// Signal wakes the longest-waiting proc, if any. The wakeup is delivered as
// an event at the current time, so the caller continues first.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	// Shift rather than re-slice so the backing array doesn't pin procs.
	copy(c.waiters, c.waiters[1:])
	c.waiters[len(c.waiters)-1] = nil
	c.waiters = c.waiters[:len(c.waiters)-1]
	c.sim.resumeAt(c.sim.now, p)
}

// Broadcast wakes all waiting procs in wait order.
func (c *Cond) Broadcast() {
	for len(c.waiters) > 0 {
		c.Signal()
	}
}

// Waiters reports how many procs are blocked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }
