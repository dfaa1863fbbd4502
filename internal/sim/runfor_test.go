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
// current-instant candidate is the ring's head: every ring entry shares
// t == now, so the ring's FIFO order is exactly (t, seq) order.
func (s *Sim) peekNext() (event, bool) {
	s.syncTier()
	hok := len(s.events) > 0
	if r := &s.nowq; r.len() > 0 {
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
