package daemon

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"sunflow/internal/core"
	"sunflow/internal/fabric"
	"sunflow/internal/fault"
	"sunflow/internal/sim"
)

// This file encodes and restores Engine state for checkpoints. Two rules make
// the round trip bit-exact:
//
//   - Every map is serialized as a slice sorted by its key, so the same state
//     always produces the same bytes (the smoke test diffs snapshots).
//   - Floats ride through encoding/json untouched — Go emits the shortest
//     representation that round-trips float64 exactly — except ±Inf, which
//     JSON cannot carry; infFloat spells those as strings.
//
// Notably the PRT itself is never serialized: every replan rebuilds it from
// the plan's locked reservations, so the plan slice is the whole truth.

// infFloat is a float64 whose JSON form survives ±Inf.
type infFloat float64

// MarshalJSON encodes ±Inf as the strings "+inf"/"-inf".
func (f infFloat) MarshalJSON() ([]byte, error) {
	switch {
	case math.IsInf(float64(f), 1):
		return []byte(`"+inf"`), nil
	case math.IsInf(float64(f), -1):
		return []byte(`"-inf"`), nil
	}
	return json.Marshal(float64(f))
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (f *infFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+inf"`:
		*f = infFloat(math.Inf(1))
		return nil
	case `"-inf"`:
		*f = infFloat(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = infFloat(v)
	return nil
}

// flowBytes is one (flow, bytes) pair of a serialized demand map.
type flowBytes struct {
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Bytes float64 `json:"bytes"`
}

// flowTime is one (flow, instant) pair of a serialized finish map.
type flowTime struct {
	Src int     `json:"src"`
	Dst int     `json:"dst"`
	T   float64 `json:"t"`
}

// liveState is one live Coflow in a snapshot.
type liveState struct {
	ID            int         `json:"id"`
	Arrival       float64     `json:"arrival"`
	Priority      int         `json:"priority,omitempty"`
	Spec          []FlowSpec  `json:"spec"`
	Rem           []flowBytes `json:"rem"`
	Base          []flowBytes `json:"base,omitempty"`
	FlowFinish    []flowTime  `json:"flow_finish,omitempty"`
	Finish        infFloat    `json:"finish"`
	Switches      int         `json:"switches,omitempty"`
	Stranded      bool        `json:"stranded,omitempty"`
	StrandedBytes float64     `json:"stranded_bytes,omitempty"`
}

// doneState is one completed Coflow in a snapshot.
type doneState struct {
	ID int `json:"id"`
	Completion
}

// outageState is one declared outage in a snapshot.
type outageState struct {
	Port      int     `json:"port"`
	Start     float64 `json:"start"`
	End       float64 `json:"end,omitempty"`
	Permanent bool    `json:"permanent,omitempty"`
}

// engineState is the serializable whole of an Engine: applying it to a fresh
// Engine of the same EngineConfig reproduces the source bit-for-bit.
type engineState struct {
	Now     float64            `json:"now"`
	Live    []liveState        `json:"live"`
	Plan    []core.Reservation `json:"plan"`
	Outages []outageState      `json:"outages,omitempty"`
	Done    []doneState        `json:"done"`
	Digest  string             `json:"digest"`
	Replans uint64             `json:"replans"`
}

// State exports the Engine for a checkpoint.
func (e *Engine) State() engineState {
	ss := e.st.State()
	st := engineState{
		Now:     ss.Now,
		Live:    make([]liveState, 0, len(ss.Live)),
		Plan:    ss.Plan,
		Done:    make([]doneState, 0, len(e.done)),
		Digest:  hex.EncodeToString(e.digest[:]),
		Replans: ss.Passes,
	}
	// Plan order is scheduler-determined but serialization must be canonical;
	// restore re-sorts by Start before crediting anyway (credit always does),
	// so a stable canonical order here is free.
	sort.SliceStable(st.Plan, func(a, b int) bool {
		ra, rb := st.Plan[a], st.Plan[b]
		if ra.Start != rb.Start {
			return ra.Start < rb.Start
		}
		if ra.CoflowID != rb.CoflowID {
			return ra.CoflowID < rb.CoflowID
		}
		if ra.In != rb.In {
			return ra.In < rb.In
		}
		return ra.Out < rb.Out
	})
	for _, ls := range ss.Live {
		reg := e.regs[ls.Coflow.ID]
		st.Live = append(st.Live, liveState{
			ID:            ls.Coflow.ID,
			Arrival:       reg.arrival,
			Priority:      reg.priority,
			Spec:          append([]FlowSpec(nil), reg.spec...),
			Rem:           sortedFlowBytes(ls.Rem),
			Base:          sortedFlowBytes(ls.Base), // nil map → empty, omitted
			FlowFinish:    sortedFlowTimes(ls.FlowFinish),
			Finish:        infFloat(ls.Finish),
			Switches:      ls.Switches,
			Stranded:      ls.Stranded,
			StrandedBytes: ls.StrandedBytes,
		})
	}
	doneIDs := make([]int, 0, len(e.done))
	for id := range e.done {
		doneIDs = append(doneIDs, id)
	}
	sort.Ints(doneIDs)
	for _, id := range doneIDs {
		st.Done = append(st.Done, doneState{ID: id, Completion: e.done[id]})
	}
	for _, og := range ss.Outages {
		os := outageState{Port: og.Port, Start: og.Start}
		if og.Permanent() {
			os.Permanent = true
		} else {
			os.End = og.End
		}
		st.Outages = append(st.Outages, os)
	}
	return st
}

// restoreState overwrites the Engine with a checkpointed state. The Engine
// must be freshly constructed for the same EngineConfig.
func (e *Engine) restoreState(st engineState) error {
	digest, err := hex.DecodeString(st.Digest)
	if err != nil || len(digest) != len(e.digest) {
		return fmt.Errorf("daemon: snapshot digest %q malformed", st.Digest)
	}
	ss := sim.StepperState{
		Now:    st.Now,
		Live:   make([]sim.LiveState, 0, len(st.Live)),
		Plan:   append([]core.Reservation(nil), st.Plan...),
		Passes: st.Replans,
	}
	for _, ls := range st.Live {
		spec := append([]FlowSpec(nil), ls.Spec...)
		e.regs[ls.ID] = &registration{arrival: ls.Arrival, priority: ls.Priority, spec: spec, hash: hashSpec(ls.Priority, spec)}
		lv := sim.LiveState{
			Coflow:        specCoflow(ls.ID, ls.Arrival, spec),
			Rem:           make(map[fabric.FlowKey]float64, len(ls.Rem)),
			FlowFinish:    make(map[fabric.FlowKey]float64, len(ls.FlowFinish)),
			Finish:        float64(ls.Finish),
			Switches:      ls.Switches,
			Stranded:      ls.Stranded,
			StrandedBytes: ls.StrandedBytes,
		}
		for _, fb := range ls.Rem {
			lv.Rem[fabric.FlowKey{Src: fb.Src, Dst: fb.Dst}] = fb.Bytes
		}
		if len(ls.Base) > 0 {
			lv.Base = make(map[fabric.FlowKey]float64, len(ls.Base))
			for _, fb := range ls.Base {
				lv.Base[fabric.FlowKey{Src: fb.Src, Dst: fb.Dst}] = fb.Bytes
			}
		}
		for _, ft := range ls.FlowFinish {
			lv.FlowFinish[fabric.FlowKey{Src: ft.Src, Dst: ft.Dst}] = ft.T
		}
		ss.Live = append(ss.Live, lv)
	}
	for _, os := range st.Outages {
		end := os.End
		if os.Permanent {
			end = math.Inf(1)
		}
		ss.Outages = append(ss.Outages, fault.Outage{Port: os.Port, Start: os.Start, End: end})
	}
	if err := e.st.Restore(ss); err != nil {
		return fmt.Errorf("daemon: snapshot: %w", err)
	}
	for _, ds := range st.Done {
		e.done[ds.ID] = ds.Completion
	}
	copy(e.digest[:], digest)
	return nil
}

// sortedFlowBytes serializes a demand map in (src, dst) order.
func sortedFlowBytes(m map[fabric.FlowKey]float64) []flowBytes {
	out := make([]flowBytes, 0, len(m))
	for k, b := range m {
		out = append(out, flowBytes{Src: k.Src, Dst: k.Dst, Bytes: b})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Src != out[b].Src {
			return out[a].Src < out[b].Src
		}
		return out[a].Dst < out[b].Dst
	})
	return out
}

// sortedFlowTimes serializes a finish map in (src, dst) order.
func sortedFlowTimes(m map[fabric.FlowKey]float64) []flowTime {
	out := make([]flowTime, 0, len(m))
	for k, t := range m {
		out = append(out, flowTime{Src: k.Src, Dst: k.Dst, T: t})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Src != out[b].Src {
			return out[a].Src < out[b].Src
		}
		return out[a].Dst < out[b].Dst
	})
	return out
}
