package sim

// RunFor executes events until the event queue drains or virtual time would
// pass the current time plus d, whichever comes first. Remaining procs are
// left parked and pooled shells stay warm; call Run to continue or Shutdown
// to terminate them. Tests use it to cut a run mid-way; a run that fails
// inside the window leaves its error for the next Run.
func (s *Sim) RunFor(d Duration) {
	deadline := s.now.Add(d)
	for {
		ev, ok := s.peekNext()
		if !ok || ev.t > deadline {
			break
		}
		s.popNext()
		s.now = ev.t
		s.dispatch(ev)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// peekNext reports the earliest queued event without removing it. The
// current-instant candidate is the head of the lowest active ring: every
// ring entry shares t == now, so the ascending-partition scan plus each
// ring's FIFO order is exactly (t, part, seq) order.
func (s *Sim) peekNext() (event, bool) {
	s.syncTier()
	part := s.lowestActive()
	hok := len(s.events) > 0
	if part >= 0 {
		r := &s.nowqs[part]
		if hok && s.events[0].before(r.q[r.head]) {
			return s.events[0], true
		}
		return r.q[r.head], true
	}
	if hok {
		return s.events[0], true
	}
	return event{}, false
}
