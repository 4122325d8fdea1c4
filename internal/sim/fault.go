package sim

import (
	"fmt"
	"math"
	"sort"

	"sunflow/internal/core"
	"sunflow/internal/fabric"
	"sunflow/internal/fault"
	"sunflow/internal/obs"
)

// StrandedFlow is one flow quarantined because a permanent port failure left
// it unroutable.
type StrandedFlow struct {
	// Coflow, Src and Dst identify the flow.
	Coflow, Src, Dst int
	// Bytes is the demand still unserved when the flow was stranded.
	Bytes float64
	// At is the simulation time the flow was quarantined.
	At float64
}

// PartialResult reports the demand a faulty fabric could not serve. A run
// that strands flows still completes: every routable byte is delivered and
// every fully-routable Coflow gets a CCT, while quarantined Coflows are
// accounted here instead of aborting the simulation.
type PartialResult struct {
	// Stranded lists the quarantined flows in the order they were stranded.
	Stranded []StrandedFlow
	// Finish maps each partially-served Coflow to the instant its routable
	// demand drained. These ids never appear in Result.CCT.
	Finish map[int]float64
	// Bytes is the total demand stranded across all flows.
	Bytes float64
}

// Degraded reports whether any flow was stranded (nil-safe).
func (p *PartialResult) Degraded() bool { return p != nil && len(p.Stranded) > 0 }

// partialResult returns the stranded-demand record, allocating it on first
// use.
func (s *Stepper) partialResult() *PartialResult {
	if s.partial == nil {
		s.partial = &PartialResult{Finish: map[int]float64{}}
	}
	return s.partial
}

// rateFactor returns the effective bandwidth multiplier for the reservation's
// flow: 1 on a fault-free run.
func (s *Stepper) rateFactor(r *core.Reservation) float64 {
	if s.faults == nil {
		return 1
	}
	return s.faults.RateFactor(r.CoflowID, r.In, r.Out)
}

// transmittedAt mirrors Reservation.TransmittedBy at an effective bandwidth
// that may be lower than the one the reservation was sized for: delivery
// clamps at the reservation end rather than at Bytes, so a degraded circuit
// releases its ports with demand unserved.
func transmittedAt(r *core.Reservation, t, bps float64) float64 {
	ts := r.TransmitStart()
	if t <= ts {
		return 0
	}
	if t > r.End {
		t = r.End
	}
	return math.Min(r.Bytes, (t-ts)*bps/8)
}

// resFutureBytes returns how many bytes the locked reservation will still
// deliver after now, at its effective (possibly degraded) rate.
func (s *Stepper) resFutureBytes(r *core.Reservation, now float64) float64 {
	if s.faults != nil {
		if f := s.faults.RateFactor(r.CoflowID, r.In, r.Out); f != 1 {
			bps := s.opts.LinkBps * f
			return transmittedAt(r, r.End, bps) - transmittedAt(r, now, bps)
		}
	}
	return r.Bytes - r.TransmittedBy(now, s.opts.LinkBps)
}

// establishFaulty consults the fault model at the instant a circuit pays its
// setup: failed attempts each re-pay δ (with exponential backoff, also in δ
// units), stretching the effective setup and shrinking the capacity the hold
// has left. It mutates the reservation in place before the establishment is
// counted, so counters and the circuit_up event see the stretched values. The
// returned offsets (from the hold start, one per failed attempt) let the
// caller emit circuit_retry events after the circuit_up that owns them.
func (s *Stepper) establishFaulty(r *core.Reservation) []float64 {
	out := s.faults.Setup(r.CoflowID, r.In, r.Out, r.End-r.Start, r.Setup)
	if out.Established && len(out.Retries) == 0 {
		return nil
	}
	extra := out.Setup - r.Setup
	bytes := r.Bytes - extra*s.opts.LinkBps/8
	if !out.Established || bytes < 0 {
		bytes = 0
	}
	if o := s.opts.Obs; o != nil {
		o.CircuitRetries.Add(int64(len(out.Retries)))
		o.RetrySeconds.Add(extra)
	}
	r.Setup = out.Setup
	r.Bytes = bytes
	return out.Retries
}

// syncFaults applies every outage boundary in (faultCursor, upTo]: port
// up/down events are emitted and circuits in flight across a failing port are
// truncated at the failure instant.
func (s *Stepper) syncFaults(upTo float64) {
	if s.faults == nil {
		return
	}
	for {
		bt := s.faults.NextBoundary(s.faultCursor)
		if math.IsInf(bt, 1) || bt > upTo+timeEps {
			return
		}
		s.faultCursor = bt
		s.applyFaultBoundary(bt)
	}
}

// applyFaultBoundary handles the outage edges coinciding with time bt.
func (s *Stepper) applyFaultBoundary(bt float64) {
	down, up := s.faults.BoundariesAt(bt)
	o := s.opts.Obs
	for _, og := range up {
		if o.TraceEnabled() {
			o.Emit(obs.Event{T: bt, Kind: obs.KindPortUp, Coflow: -1, Src: og.Port, Dst: -1})
		}
	}
	for _, og := range down {
		s.portDown(og, bt)
	}
}

// portDown takes the outage's port down at bt: the port_down is counted and
// traced, and circuits in flight across the port are truncated.
func (s *Stepper) portDown(og fault.Outage, bt float64) {
	if o := s.opts.Obs; o != nil {
		o.PortDowns.Inc()
		if o.TraceEnabled() {
			dur := 0.0
			if !og.Permanent() {
				dur = og.End - og.Start
			}
			o.Emit(obs.Event{T: bt, Kind: obs.KindPortDown, Coflow: -1, Src: og.Port, Dst: -1, Dur: dur})
		}
	}
	s.truncatePort(og.Port, bt)
}

// DeclareOutage adds a port outage to the fault view at the current instant;
// the online daemon declares failures this way as they are reported. The
// outage must not start after the current instant. It merges with the port's
// earlier outages (fault.Model.AddOutage). If it takes the port down now,
// circuits in flight across the port are truncated at once; its later edges
// are applied as the Stepper advances. The first outage also ends the
// fault-free regime: drift-free bases are dropped (the scheduler reads rem
// from then on) and the plan cache with them.
func (s *Stepper) DeclareOutage(og fault.Outage) error {
	wasDown, first := s.faults.Down(og.Port, s.now), s.faults == nil
	if err := s.addOutage(og); err != nil {
		return err
	}
	if first {
		for _, lc := range s.live {
			lc.base = nil
		}
		s.dropCache()
	}
	// Edges at or before now are handled here, never replayed by syncFaults.
	s.faultCursor = math.Max(s.faultCursor, s.now)
	if wasDown {
		return nil
	}
	for _, m := range s.faults.Outages(og.Port) {
		if m.Start <= s.now+timeEps && m.End > s.now+timeEps {
			s.portDown(m, s.now)
		}
	}
	return nil
}

// truncatePort invalidates the in-flight portion of every established circuit
// touching a port that just failed: the circuit is released at bt, its
// undelivered capacity is returned to the replanner, and the counters are
// corrected for the hold time that will never happen.
func (s *Stepper) truncatePort(port int, bt float64) {
	o := s.opts.Obs
	for idx := range s.plan {
		r := &s.plan[idx]
		if r.In != port && r.Out != port {
			continue
		}
		// Only circuits already established and still holding past bt; the
		// replan following this boundary discards un-established ones.
		if r.Start >= bt-timeEps || r.End <= bt+timeEps {
			continue
		}
		bps := s.opts.LinkBps * s.rateFactor(r)
		delivered := transmittedAt(r, bt, bps)
		if o != nil {
			o.HoldSeconds.Add(bt - r.End)
			o.PlannedBytes.Add(delivered - r.Bytes)
			o.InBusySeconds.Add(r.In, bt-r.End)
			o.OutBusySeconds.Add(r.Out, bt-r.End)
			if o.TraceEnabled() {
				o.Emit(obs.Event{T: bt, Kind: obs.KindCircuitDown, Coflow: r.CoflowID, Src: r.In, Dst: r.Out})
			}
		}
		r.End = bt
		if delivered < r.Bytes {
			r.Bytes = delivered
		}
		if r.Setup > bt-r.Start {
			// The port died during reconfiguration: the truncated hold is
			// all setup and the circuit never carried a byte.
			if o != nil {
				o.SetupSeconds.Add((bt - r.Start) - r.Setup)
			}
			r.Setup = bt - r.Start
		}
	}
}

// quarantine strands every live flow whose source or destination port is
// permanently dead as of now. Iteration is sorted so trace output is
// deterministic.
func (s *Stepper) quarantine(now float64) {
	if s.faults == nil || !s.faults.AnyPermanent() {
		return
	}
	for _, id := range sortedLiveIDs(s.live) {
		s.strandFlows(s.live[id], now, func(k fabric.FlowKey) bool {
			return s.faults.PermanentlyDown(k.Src, now) || s.faults.PermanentlyDown(k.Dst, now)
		})
	}
}

// strandDoomed quarantines the Coflow's flows touching any port with a
// permanent failure anywhere on the horizon — the repair of last resort when
// a scheduling pass stalls against the degraded table. It reports whether
// anything was stranded (false means the stall has another cause).
func (s *Stepper) strandDoomed(lc *liveCoflow, now float64) bool {
	return s.strandFlows(lc, now, func(k fabric.FlowKey) bool {
		return !math.IsInf(s.faults.PermanentFrom(k.Src), 1) ||
			!math.IsInf(s.faults.PermanentFrom(k.Dst), 1)
	})
}

// strandFlows removes from the live Coflow every unfinished flow matching
// cond, recording each in the PartialResult.
func (s *Stepper) strandFlows(lc *liveCoflow, now float64, cond func(fabric.FlowKey) bool) bool {
	keys := make([]fabric.FlowKey, 0, len(lc.rem))
	for k := range lc.rem {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Src != keys[b].Src {
			return keys[a].Src < keys[b].Src
		}
		return keys[a].Dst < keys[b].Dst
	})
	any := false
	for _, k := range keys {
		b := lc.rem[k]
		if b <= byteEps || !cond(k) {
			continue
		}
		any = true
		lc.stranded = true
		lc.strandedBytes += b
		delete(lc.rem, k)
		delete(lc.base, k)
		p := s.partialResult()
		p.Stranded = append(p.Stranded, StrandedFlow{Coflow: lc.c.ID, Src: k.Src, Dst: k.Dst, Bytes: b, At: now})
		p.Bytes += b
		if o := s.opts.Obs; o != nil {
			o.FlowsStranded.Inc()
			o.StrandedBytes.Add(b)
			if o.TraceEnabled() {
				o.Emit(obs.Event{T: now, Kind: obs.KindFlowStranded, Coflow: lc.c.ID, Src: k.Src, Dst: k.Dst, Bytes: b})
			}
		}
	}
	return any
}

// sortedLiveIDs returns the live Coflow ids in ascending order.
func sortedLiveIDs(live map[int]*liveCoflow) []int {
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// addOutage inserts a declared outage into the fault view, creating the view
// on the first one, and records it for State.
func (s *Stepper) addOutage(og fault.Outage) error {
	m := s.faults
	if m == nil {
		m = fault.NewModel(s.opts.Ports)
	}
	if err := m.AddOutage(og); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	s.faults = m
	s.declared = append(s.declared, og)
	return nil
}
