package daemon

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"sunflow/internal/coflow"
	"sunflow/internal/obs"
	"sunflow/internal/obs/replay"
	"sunflow/internal/sim"
	"sunflow/internal/trace"
)

// streamTrace feeds a trace through an Engine as the daemon would: one
// register event per Coflow in arrival order, then advances until the live
// set drains. It fails the test on any rejection.
func streamTrace(t *testing.T, e *Engine, coflows []*coflow.Coflow) {
	t.Helper()
	for _, c := range coflows {
		flows := make([]FlowSpec, 0, len(c.Flows))
		for _, f := range c.Flows {
			flows = append(flows, FlowSpec{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes})
		}
		if _, err := e.Apply(Event{Kind: KindRegister, At: c.Arrival, Coflow: c.ID, Flows: flows}); err != nil {
			t.Fatalf("register coflow %d: %v", c.ID, err)
		}
	}
	drain(t, e)
}

// drain advances the engine until every live Coflow completes.
func drain(t *testing.T, e *Engine) {
	t.Helper()
	for i := 0; e.LiveCount() > 0; i++ {
		if i > 1000 {
			t.Fatalf("engine did not drain: %d live at t=%v", e.LiveCount(), e.Now())
		}
		next := math.Inf(1)
		for _, ls := range e.Live() {
			next = math.Min(next, ls.PlannedFinish)
		}
		if math.IsInf(next, 1) {
			t.Fatalf("no planned finish for %d live coflows", e.LiveCount())
		}
		if _, err := e.Apply(Event{Kind: KindAdvance, At: next + 1}); err != nil {
			t.Fatalf("advance to %v: %v", next, err)
		}
	}
}

// TestEngineMatchesSimulator is the equivalence property the daemon's
// correctness stands on: streaming a workload's arrivals through the Engine —
// register events at each arrival instant, then advancing time — produces
// per-Coflow completion times and switch counts bit-identical to replaying
// the same workload through sim.RunCircuit.
func TestEngineMatchesSimulator(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			tr := trace.Generator{Ports: 12, Coflows: 30, HorizonSec: 40, MaxWidth: 6, Seed: seed}.Trace()
			cfg := EngineConfig{Ports: tr.Ports, LinkBps: 1e9, Delta: 0.01}

			ref, err := sim.RunCircuit(tr.Coflows, sim.CircuitOptions{
				Ports: tr.Ports, LinkBps: cfg.LinkBps, Delta: cfg.Delta,
			})
			if err != nil {
				t.Fatalf("sim: %v", err)
			}

			e, err := NewEngine(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			streamTrace(t, e, tr.Coflows)

			got := e.Completions()
			if len(got) != len(ref.CCT) {
				t.Fatalf("completions: engine %d, sim %d", len(got), len(ref.CCT))
			}
			for id, want := range ref.CCT {
				c, ok := got[id]
				if !ok {
					t.Fatalf("coflow %d missing from engine completions", id)
				}
				if c.CCT != want {
					t.Errorf("coflow %d: CCT engine %v, sim %v", id, c.CCT, want)
				}
				if c.Finish != ref.Finish[id] {
					t.Errorf("coflow %d: finish engine %v, sim %v", id, c.Finish, ref.Finish[id])
				}
				if c.Switches != ref.SwitchCount[id] {
					t.Errorf("coflow %d: switches engine %d, sim %d", id, c.Switches, ref.SwitchCount[id])
				}
			}
		})
	}
}

// TestQuickEngineMatchesSimulator widens TestEngineMatchesSimulator into a
// property over fabric size, Coflow width, δ (zero included) and arrivals
// rounded to the millisecond, so several registrations often land on one
// instant. The per-Coflow results and the circuit and delivery counters
// must be bit-identical; pass counts are not compared, because the Engine
// replans once per registration where the simulator replans once per
// instant.
func TestQuickEngineMatchesSimulator(t *testing.T) {
	f := func(seed int64, portsRaw, widthRaw, deltaRaw uint8) bool {
		ports := 4 + int(portsRaw)%13
		deltas := []float64{0, 0.001, 0.01, 0.05}
		cfg := EngineConfig{Ports: ports, LinkBps: 1e9, Delta: deltas[int(deltaRaw)%len(deltas)]}
		tr := trace.Generator{Ports: ports, Coflows: 24, HorizonSec: 0.05, MaxWidth: 1 + int(widthRaw)%6, Seed: seed}.Trace()
		for _, c := range tr.Coflows {
			c.Arrival = math.Round(c.Arrival*1000) / 1000
		}

		so := obs.New()
		ref, err := sim.RunCircuit(tr.Coflows, sim.CircuitOptions{Ports: ports, LinkBps: cfg.LinkBps, Delta: cfg.Delta, Obs: so})
		if err != nil {
			t.Logf("seed %d: sim: %v", seed, err)
			return false
		}
		eo := obs.New()
		e, err := NewEngine(cfg, eo)
		if err != nil {
			t.Fatal(err)
		}
		// One final advance, not drain's stepwise ones: an advance to an
		// instant between internal events splits a credit interval the
		// simulator credits whole, and the split moves delivered-byte sums
		// by an ulp.
		for _, c := range tr.Coflows {
			flows := make([]FlowSpec, 0, len(c.Flows))
			for _, f := range c.Flows {
				flows = append(flows, FlowSpec{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes})
			}
			if _, err := e.Apply(Event{Kind: KindRegister, At: c.Arrival, Coflow: c.ID, Flows: flows}); err != nil {
				t.Fatalf("register coflow %d: %v", c.ID, err)
			}
		}
		if _, err := e.Apply(Event{Kind: KindAdvance, At: 1e9}); err != nil {
			t.Fatal(err)
		}

		got := e.Completions()
		if len(got) != len(ref.CCT) {
			t.Logf("seed %d: completions: engine %d, sim %d", seed, len(got), len(ref.CCT))
			return false
		}
		for id, want := range ref.CCT {
			c := got[id]
			if c.CCT != want || c.Finish != ref.Finish[id] || c.Switches != ref.SwitchCount[id] {
				t.Logf("seed %d coflow %d: engine %+v, sim cct %v finish %v switches %d",
					seed, id, c, want, ref.Finish[id], ref.SwitchCount[id])
				return false
			}
		}
		for _, cmp := range []struct {
			name      string
			eng, simv float64
		}{
			{"circuit setups", float64(eo.CircuitSetups.Load()), float64(so.CircuitSetups.Load())},
			{"hold seconds", eo.HoldSeconds.Load(), so.HoldSeconds.Load()},
			{"planned bytes", eo.PlannedBytes.Load(), so.PlannedBytes.Load()},
			{"bytes delivered", eo.BytesDelivered.Load(), so.BytesDelivered.Load()},
			{"coflows completed", float64(eo.CoflowsCompleted.Load()), float64(so.CoflowsCompleted.Load())},
		} {
			if cmp.eng != cmp.simv {
				t.Logf("seed %d: %s: engine %v, sim %v", seed, cmp.name, cmp.eng, cmp.simv)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineOutageTraceMatchesCounters runs an Engine with event tracing
// through a transient outage that cuts an established circuit. The trace
// must lint clean, and the setup and hold seconds replay reconstructs from it
// must equal the live counters bit for bit — the truncated circuit's counters
// are corrected to the hold it actually had. The link rate and sizes are
// powers of two so every sum is exact whichever way it is grouped. A
// circuit_down does not carry the bytes a truncated circuit delivered, so
// the planned-bytes counter is checked against each traced circuit's
// capacity over its traced hold at the link rate.
func TestEngineOutageTraceMatchesCounters(t *testing.T) {
	const gib = 1 << 30
	cfg := EngineConfig{Ports: 4, LinkBps: 8 * gib, Delta: 0.25}
	sink := &obs.SliceSink{}
	o := obs.NewWith(obs.NewRegistry(), sink)
	e, err := NewEngine(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []Event{
		{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 4 * gib}}},
		{Kind: KindRegister, At: 0, Coflow: 2, Flows: []FlowSpec{{Src: 2, Dst: 3, Bytes: 2 * gib}}},
		{Kind: KindFault, At: 1.5, Port: 0, Duration: 1}, // cuts coflow 1's circuit mid-transmission
		{Kind: KindAdvance, At: 20},
	} {
		if _, err := e.Apply(ev); err != nil {
			t.Fatalf("%+v: %v", ev, err)
		}
	}
	if c, ok := e.Completion(1); !ok || c.Finish != 5.5 {
		t.Fatalf("coflow 1 = %+v (ok=%v), want finish 5.5 after the outage", c, ok)
	}

	a := replay.Analyze(sink.Events())
	for _, v := range a.Violations {
		t.Errorf("lint: %s", v)
	}
	s := a.Scope("")
	if s == nil || len(s.PortOutages) != 1 || s.CircuitSetups != 3 {
		t.Fatalf("trace does not show one outage and three circuits: %+v", s)
	}
	if got, want := s.SetupSeconds, o.SetupSeconds.Load(); got != want {
		t.Errorf("SetupSeconds = %v, counter says %v", got, want)
	}
	if got, want := s.HoldSeconds, o.HoldSeconds.Load(); got != want {
		t.Errorf("HoldSeconds = %v, counter says %v", got, want)
	}
	capacity := 0.0
	for _, c := range s.Circuits {
		capacity += math.Min(c.Bytes, (c.Hold()-c.Setup)*cfg.LinkBps/8)
	}
	if got := o.PlannedBytes.Load(); got != capacity {
		t.Errorf("PlannedBytes = %v, traced circuits carry %v", got, capacity)
	}
	if got, want := o.BytesDelivered.Load(), float64(6*gib); got != want {
		t.Errorf("BytesDelivered = %v, want %v", got, want)
	}
}

// TestEngineObserverDoesNotAffectState pins the determinism boundary: running
// with metrics enabled must yield the same digest as running without.
func TestEngineObserverDoesNotAffectState(t *testing.T) {
	tr := trace.Generator{Ports: 8, Coflows: 12, HorizonSec: 10, MaxWidth: 4, Seed: 7}.Trace()
	cfg := EngineConfig{Ports: tr.Ports, LinkBps: 1e9, Delta: 0.01}

	bare, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	streamTrace(t, bare, tr.Coflows)

	observed, err := NewEngine(cfg, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	streamTrace(t, observed, tr.Coflows)

	if bare.Digest() != observed.Digest() {
		t.Fatalf("observer changed engine state: %s vs %s", bare.Digest(), observed.Digest())
	}
}

// TestEngineDigestDeterminism: same events, same digest; different events,
// different digest.
func TestEngineDigestDeterminism(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	mk := func(bytes float64) string {
		e, err := NewEngine(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(Event{Kind: KindRegister, At: 1, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: bytes}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(Event{Kind: KindAdvance, At: 100}); err != nil {
			t.Fatal(err)
		}
		return e.Digest()
	}
	if mk(1e6) != mk(1e6) {
		t.Error("identical event sequences produced different digests")
	}
	if mk(1e6) == mk(2e6) {
		t.Error("different event sequences produced identical digests")
	}
}

// TestEngineRegisterIdempotent: an exact duplicate registration is accepted
// as a no-op (client retry of an acked request); a conflicting one is
// rejected and leaves completions unchanged.
func TestEngineRegisterIdempotent(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := Event{Kind: KindRegister, At: 0, Coflow: 3, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e6}}}
	if applied, err := e.Apply(ev); err != nil || !applied {
		t.Fatalf("first register: applied=%v err=%v", applied, err)
	}
	if applied, err := e.Apply(ev); err != nil || applied {
		t.Fatalf("duplicate register: applied=%v err=%v (want no-op)", applied, err)
	}
	conflict := ev
	conflict.Flows = []FlowSpec{{Src: 0, Dst: 1, Bytes: 5e6}}
	if _, err := e.Apply(conflict); !errors.Is(err, ErrDuplicateCoflow) {
		t.Fatalf("conflicting register: err=%v, want ErrDuplicateCoflow", err)
	}
	drain(t, e)
	if c, ok := e.Completion(3); !ok || c.CCT <= 0 {
		t.Fatalf("coflow 3 completion = %+v, ok=%v", c, ok)
	}
}

// TestEngineCompletedRegisterIdempotencyChecksSpec: re-registering a finished
// id is idempotent only for a byte-identical registration; different flows or
// priority at the same arrival time must reject, exactly like the live-set
// path, instead of being silently acked as a duplicate.
func TestEngineCompletedRegisterIdempotencyChecksSpec(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e6}}}
	if _, err := e.Apply(ev); err != nil {
		t.Fatal(err)
	}
	drain(t, e)
	if _, ok := e.Completion(1); !ok {
		t.Fatal("coflow 1 did not complete")
	}
	if applied, err := e.Apply(ev); err != nil || applied {
		t.Fatalf("identical re-register after completion: applied=%v err=%v (want no-op)", applied, err)
	}
	diffFlows := ev
	diffFlows.Flows = []FlowSpec{{Src: 0, Dst: 1, Bytes: 7e6}}
	if _, err := e.Apply(diffFlows); !errors.Is(err, ErrDuplicateCoflow) {
		t.Fatalf("re-register with different flows: err=%v, want ErrDuplicateCoflow", err)
	}
	diffPrio := ev
	diffPrio.Priority = 5
	if _, err := e.Apply(diffPrio); !errors.Is(err, ErrDuplicateCoflow) {
		t.Fatalf("re-register with different priority: err=%v, want ErrDuplicateCoflow", err)
	}
}

// TestEngineRejectsBadEvents: validation failures reject deterministically
// and leave the live set untouched.
func TestEngineRejectsBadEvents(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Event{
		{Kind: "bogus", At: 0},
		{Kind: KindRegister, At: math.NaN(), Coflow: 1},
		{Kind: KindRegister, At: -1, Coflow: 1},
		{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 9, Dst: 0, Bytes: 1}}},
		{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: math.Inf(1)}}},
		{Kind: KindFault, At: 0, Port: -1},
		{Kind: KindComplete, At: 0, Coflow: 42},
	}
	for _, ev := range bad {
		if _, err := e.Apply(ev); err == nil {
			t.Errorf("event %+v: accepted, want rejection", ev)
		}
	}
	if e.LiveCount() != 0 || e.DoneCount() != 0 {
		t.Fatalf("rejections mutated state: live=%d done=%d", e.LiveCount(), e.DoneCount())
	}
}

// TestEnginePriorityOverride: a higher-priority Coflow is scheduled ahead of
// an equal-length rival registered at the same instant, completing first even
// though shortest-first alone would favor the rival's lower id.
func TestEnginePriorityOverride(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both Coflows demand the same port pair, so they serialize; priority
	// decides who goes first.
	for _, ev := range []Event{
		{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e8}}},
		{Kind: KindRegister, At: 0, Coflow: 2, Priority: 10, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e8}}},
	} {
		if _, err := e.Apply(ev); err != nil {
			t.Fatalf("register %d: %v", ev.Coflow, err)
		}
	}
	drain(t, e)
	c1, _ := e.Completion(1)
	c2, _ := e.Completion(2)
	if !(c2.Finish < c1.Finish) {
		t.Fatalf("priority override ignored: prio finish %v, default finish %v", c2.Finish, c1.Finish)
	}
}

// TestEngineForcedComplete: an external complete event retires a live Coflow
// immediately and frees its planned capacity.
func TestEngineForcedComplete(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e9}}}); err != nil {
		t.Fatal(err)
	}
	if applied, err := e.Apply(Event{Kind: KindComplete, At: 0.5, Coflow: 1}); err != nil || !applied {
		t.Fatalf("complete: applied=%v err=%v", applied, err)
	}
	c, ok := e.Completion(1)
	if !ok || !c.Forced || c.Finish != 0.5 {
		t.Fatalf("forced completion = %+v, ok=%v", c, ok)
	}
	// Completing again is idempotent.
	if applied, err := e.Apply(Event{Kind: KindComplete, At: 0.7, Coflow: 1}); err != nil || applied {
		t.Fatalf("re-complete: applied=%v err=%v (want no-op)", applied, err)
	}
}

// TestEngineFaultTransient: a transient outage on the serving port delays the
// victim Coflow but it still completes; a fault on an unused port is a no-op
// for the schedule.
func TestEngineFaultTransient(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	run := func(faultPort int) Completion {
		e, err := NewEngine(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e9}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(Event{Kind: KindFault, At: 0.1, Port: faultPort, Duration: 2}); err != nil {
			t.Fatal(err)
		}
		drain(t, e)
		c, ok := e.Completion(1)
		if !ok {
			t.Fatal("coflow 1 never completed")
		}
		return c
	}
	clean := run(3)   // port 3 carries nothing
	delayed := run(0) // port 0 is the source
	if delayed.Finish <= clean.Finish {
		t.Fatalf("outage did not delay completion: faulty %v, clean %v", delayed.Finish, clean.Finish)
	}
	if delayed.Stranded {
		t.Fatal("transient outage stranded the coflow")
	}
}

// TestEngineFaultPermanent: a permanent outage strands the flows touching the
// dead port; the Coflow still retires (stranded) and routable demand drains.
func TestEngineFaultPermanent(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{
		{Src: 0, Dst: 1, Bytes: 1e8},
		{Src: 2, Dst: 3, Bytes: 1e8},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Event{Kind: KindFault, At: 0.0001, Port: 3, Duration: 0}); err != nil {
		t.Fatal(err)
	}
	drain(t, e)
	c, ok := e.Completion(1)
	if !ok {
		t.Fatal("coflow 1 never retired")
	}
	if !c.Stranded || c.Bytes <= 0 {
		t.Fatalf("permanent outage not recorded: %+v", c)
	}
}

// TestEngineLateEventAppliesAtCurrentClock: logical time never goes
// backwards — an event stamped before the Engine clock applies "late" at the
// clock, with its At still counting as the arrival.
func TestEngineLateEventAppliesAtCurrentClock(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Event{Kind: KindAdvance, At: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Event{Kind: KindRegister, At: 3, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e6}}}); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10 {
		t.Fatalf("clock moved backwards: now=%v", e.Now())
	}
	drain(t, e)
	c, _ := e.Completion(1)
	if c.Arrival != 3 {
		t.Fatalf("arrival = %v, want the event's At (3)", c.Arrival)
	}
	if c.Finish < 10 {
		t.Fatalf("finish %v precedes the clock the Coflow was admitted at", c.Finish)
	}
	if c.CCT != c.Finish-3 {
		t.Fatalf("CCT %v inconsistent with arrival 3, finish %v", c.CCT, c.Finish)
	}
}
