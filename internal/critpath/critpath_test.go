package critpath

import (
	"bytes"
	"encoding/json"
	"testing"

	"lmas/internal/sim"
)

// withProc runs fn inside a single spawned proc and drives the sim to
// completion.
func withProc(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	s := sim.New()
	s.Spawn("test", fn)
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestNilProfilerIsSafe(t *testing.T) {
	var pf *Profiler
	withProc(t, func(p *sim.Proc) {
		pf.Bind(p, "s", "n", ClassHostCPU, ClassHostCPU)
		pf.BlameWaitProc("q not-full", nil, ClassDisk)
		if id := pf.StartChain(p); id != 0 {
			t.Errorf("nil StartChain = %d, want 0", id)
		}
		if id := pf.Derive(p); id != 0 {
			t.Errorf("nil Derive = %d, want 0", id)
		}
		pf.BeginPacket(p, 0)
		pf.ChargeQueueTime(p, 0, 10)
		pf.EndPacket(p)
		pf.Abandon(p, 0)
	})
	if pf.NumChains() != 0 {
		t.Errorf("nil NumChains = %d", pf.NumChains())
	}
	if pf.Report() != nil {
		t.Error("nil Report should be nil")
	}
	if err := pf.Conservation(); err != nil {
		t.Errorf("nil Conservation: %v", err)
	}
}

func TestUnboundProcIgnored(t *testing.T) {
	pf := New()
	withProc(t, func(p *sim.Proc) {
		pf.Charge(p, sim.ChargeCPU, "cpu", 0, 100)
		if id := pf.StartChain(p); id != 0 {
			t.Errorf("unbound StartChain = %d, want 0", id)
		}
	})
	if pf.charges != 0 {
		t.Errorf("unbound proc produced %d charges", pf.charges)
	}
}

func TestChargeClampingConservation(t *testing.T) {
	pf := New()
	withProc(t, func(p *sim.Proc) {
		pf.Bind(p, "stage", "node", ClassHostCPU, ClassHostCPU)
		id := pf.StartChain(p)
		pf.BeginPacket(p, id)
		pf.Charge(p, sim.ChargeCPU, "cpu", 0, 10)
		// Overlapping charge: only [10, 15) may land on the chain.
		pf.Charge(p, sim.ChargeDisk, "disk", 5, 15)
		// Fully-covered interval contributes nothing.
		pf.Charge(p, sim.ChargeNet, "nic", 2, 9)
		pf.EndPacket(p)
	})
	if err := pf.Conservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	ch := pf.chains[0]
	if got := ch.ns[classHostCPU]; got != 10 {
		t.Errorf("cpu ns = %d, want 10", got)
	}
	if got := ch.ns[classDisk]; got != 5 {
		t.Errorf("disk ns = %d, want 5 (clamped)", got)
	}
	if got := ch.ns[classNet]; got != 0 {
		t.Errorf("net ns = %d, want 0 (fully covered)", got)
	}
	if ch.end != 15 {
		t.Errorf("chain end = %v, want 15", ch.end)
	}
	// The raw waterfall keeps the unclamped kinds.
	rep := pf.Report()
	if len(rep.Waterfall) != 1 {
		t.Fatalf("waterfall rows = %d, want 1", len(rep.Waterfall))
	}
	w := rep.Waterfall[0]
	if w.CPUNs != 10 || w.DiskNs != 10 || w.NetNs != 7 {
		t.Errorf("raw waterfall = cpu %d disk %d net %d, want 10/10/7", w.CPUNs, w.DiskNs, w.NetNs)
	}
}

func TestBlameWaitRouting(t *testing.T) {
	pf := New()
	pf.BlameWaitProc("inbox not-full", nil, ClassASUCPU)
	withProc(t, func(p *sim.Proc) {
		pf.Bind(p, "stage", "node", ClassHostCPU, ClassHostCPU)
		id := pf.StartChain(p)
		pf.BeginPacket(p, id)
		pf.Charge(p, sim.ChargeCondWait, "inbox not-full", 0, 10)
		pf.Charge(p, sim.ChargeCondWait, "other not-empty", 10, 25)
		pf.EndPacket(p)
	})
	ch := pf.chains[0]
	if got := ch.ns[classASUCPU]; got != 10 {
		t.Errorf("registered cond blamed %d ns on asu-cpu, want 10", got)
	}
	if got := ch.ns[classCondWait]; got != 15 {
		t.Errorf("unregistered cond left %d ns residual, want 15", got)
	}
}

func TestDeriveParentAndPath(t *testing.T) {
	pf := New()
	withProc(t, func(p *sim.Proc) {
		pf.Bind(p, "src", "node", ClassASUCPU, ClassASUCPU)
		root := pf.StartChain(p)
		pf.BeginPacket(p, root)
		pf.Charge(p, sim.ChargeDisk, "disk", 0, 10)
		pf.EndPacket(p)
		// Between packets: Derive should parent on the last chain.
		child := pf.Derive(p)
		if got := pf.chains[child-1].parent; got != root {
			t.Fatalf("derived parent = %d, want %d", got, root)
		}
		pf.BeginPacket(p, child)
		pf.Charge(p, sim.ChargeCPU, "cpu", 10, 30)
		pf.EndPacket(p)
	})
	rep := pf.Report()
	if rep.Path.Hops != 2 {
		t.Errorf("path hops = %d, want 2", rep.Path.Hops)
	}
	if rep.Path.AttributedNs != 30 {
		t.Errorf("path attributed = %d, want 30", rep.Path.AttributedNs)
	}
	if rep.Verdict.Observed != string(ClassASUCPU) {
		t.Errorf("verdict = %q, want asu-cpu", rep.Verdict.Observed)
	}
}

func TestAbandonExcludesChain(t *testing.T) {
	pf := New()
	withProc(t, func(p *sim.Proc) {
		pf.Bind(p, "src", "node", ClassHostCPU, ClassHostCPU)
		id := pf.StartChain(p)
		pf.Charge(p, sim.ChargeDisk, "disk", 0, 100)
		pf.Abandon(p, id)
		if st := pf.procs[p]; st.cur != 0 || st.last != 0 {
			t.Errorf("abandon left cur=%d last=%d", st.cur, st.last)
		}
	})
	if pf.NumChains() != 0 {
		t.Errorf("NumChains = %d after abandon, want 0", pf.NumChains())
	}
	rep := pf.Report()
	if rep.Path.Hops != 0 {
		t.Errorf("dead chain reached the critical path: %+v", rep.Path)
	}
	// Raw waterfall charges survive abandonment.
	if rep.Waterfall[0].DiskNs != 100 {
		t.Errorf("waterfall disk = %d, want 100", rep.Waterfall[0].DiskNs)
	}
}

func TestSetPrediction(t *testing.T) {
	rep := &Report{Verdict: Verdict{Observed: "host-cpu"}}
	rep.SetPrediction(ClassHostCPU, 2.5e6)
	if rep.Verdict.Agree != "yes" {
		t.Errorf("agree = %q, want yes", rep.Verdict.Agree)
	}
	rep.SetPrediction(ClassNet, 1e6)
	if rep.Verdict.Agree != "no" {
		t.Errorf("agree = %q, want no", rep.Verdict.Agree)
	}
}

// TestReportDeterministic builds the same multi-stage attribution twice and
// requires byte-identical JSON.
func TestReportDeterministic(t *testing.T) {
	build := func() []byte {
		pf := New()
		withProc(t, func(p *sim.Proc) {
			pf.Bind(p, "b-stage", "node1", ClassHostCPU, ClassHostCPU)
			id := pf.StartChain(p)
			pf.BeginPacket(p, id)
			pf.Charge(p, sim.ChargeCPU, "cpu", 0, 10)
			pf.EndPacket(p)
		})
		withProc(t, func(p *sim.Proc) {
			pf.Bind(p, "a-stage", "node2", ClassASUCPU, ClassDisk)
			id := pf.StartChain(p)
			pf.BeginPacket(p, id)
			pf.Charge(p, sim.ChargeNet, "nic", 0, 40)
			pf.ChargeQueueTime(p, 40, 55)
			pf.EndPacket(p)
		})
		b, err := json.Marshal(pf.Report())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Errorf("reports differ:\n%s\n%s", a, b)
	}
	// Rows must come out sorted by stage then node.
	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Waterfall[0].Stage != "a-stage" || rep.Waterfall[1].Stage != "b-stage" {
		t.Errorf("waterfall not sorted: %+v", rep.Waterfall)
	}
}
