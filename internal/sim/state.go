package sim

import (
	"fmt"
	"maps"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
	"sunflow/internal/fault"
)

// StepperState is a Stepper's resumable state. It leaves out the PRT, which
// every replan rebuilds from the plan, and the plan cache: reuse is certified
// bit-identical to a full rebuild, so a restored Stepper starting with an
// empty cache plans exactly as the original would.
type StepperState struct {
	Now float64
	// Live lists the live Coflows in id order.
	Live []LiveState
	Plan []core.Reservation
	// Outages lists the declared outages in declaration order.
	Outages []fault.Outage
	Passes  uint64
}

// LiveState is one live Coflow's resumable state.
type LiveState struct {
	// Coflow is the Coflow as admitted.
	Coflow *coflow.Coflow
	// Rem, Base and FlowFinish are the per-flow remainders and finish
	// instants; Base is nil until the Coflow's first in-flight byte and
	// under a fault view.
	Rem, Base, FlowFinish map[fabric.FlowKey]float64
	Finish                float64
	Switches              int
	Stranded              bool
	StrandedBytes         float64
}

// State exports the Stepper's resumable state. The maps and slices are
// copies.
func (s *Stepper) State() StepperState {
	st := StepperState{
		Now:     s.now,
		Live:    make([]LiveState, 0, len(s.live)),
		Plan:    append([]core.Reservation(nil), s.plan...),
		Outages: append([]fault.Outage(nil), s.declared...),
		Passes:  s.passes,
	}
	for _, id := range sortedLiveIDs(s.live) {
		lc := s.live[id]
		st.Live = append(st.Live, LiveState{
			Coflow:        lc.c,
			Rem:           maps.Clone(lc.rem),
			Base:          maps.Clone(lc.base),
			FlowFinish:    maps.Clone(lc.flowFinish),
			Finish:        lc.finish,
			Switches:      lc.switches,
			Stranded:      lc.stranded,
			StrandedBytes: lc.strandedBytes,
		})
	}
	return st
}

// Restore loads an exported state into a Stepper fresh from NewStepper with
// the same options, taking ownership of the state's maps. Declared outages
// are re-added without side effects: every edge up to the state's instant
// had been applied before the export.
func (s *Stepper) Restore(st StepperState) error {
	for _, og := range st.Outages {
		if err := s.addOutage(og); err != nil {
			return err
		}
	}
	if len(st.Outages) > 0 {
		s.faultCursor = st.Now
	}
	tracing := s.opts.Obs.TraceEnabled()
	for _, ls := range st.Live {
		lc := newLive(ls.Coflow, tracing)
		if lc == nil {
			return fmt.Errorf("sim: restored coflow %d has no demand", ls.Coflow.ID)
		}
		if s.live[ls.Coflow.ID] != nil {
			return fmt.Errorf("sim: restored state lists coflow %d twice", ls.Coflow.ID)
		}
		lc.rem = ls.Rem
		if s.faults == nil {
			lc.base = ls.Base // no base under a fault view
		}
		if ls.FlowFinish != nil {
			lc.flowFinish = ls.FlowFinish
		}
		lc.finish, lc.switches = ls.Finish, ls.Switches
		lc.stranded, lc.strandedBytes = ls.Stranded, ls.StrandedBytes
		for k, d := range lc.demand {
			lc.flowStarted[k] = lc.rem[k] != d
		}
		s.live[ls.Coflow.ID] = lc
	}
	s.now, s.plan, s.passes = st.Now, st.Plan, st.Passes
	return nil
}
