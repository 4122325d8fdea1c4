package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
	"sunflow/internal/fault"
	"sunflow/internal/obs"
	"sunflow/internal/obs/span"
)

// CircuitOptions configures the online circuit-switched simulation.
type CircuitOptions struct {
	// Ports is the switch port count N.
	Ports int
	// LinkBps is the per-port bandwidth B in bits/s.
	LinkBps float64
	// Delta is the circuit reconfiguration delay δ in seconds.
	Delta float64
	// Policy orders live Coflows at each reschedule; nil selects
	// shortest-Coflow-first by the remaining packet-switched lower bound,
	// the policy of §5.4.
	Policy core.Policy
	// Order is the intra-Coflow reservation ordering.
	Order core.Order
	// Seed drives RandomOrder.
	Seed int64
	// Fair optionally enables the starvation-avoidance windows of §4.2.
	Fair *core.FairWindows
	// Reference plans with the scan-based reference scheduler loop instead
	// of the event-driven fast path (see core.Options.Reference). Results
	// and trace streams are bit-identical either way; the differential
	// property tests exercise this switch. Reference also forces FullReplan:
	// the reference pass is the retained full-rebuild oracle.
	Reference bool
	// FullReplan disables dirty-prefix schedule reuse: every scheduling pass
	// rebuilds the whole plan by running IntraCoflow for every live Coflow,
	// as the pre-incremental simulator did. Results, traces and archive
	// digests are bit-identical either way (see DESIGN.md §7); the
	// differential property tests and the scale-smoke digest gate exercise
	// this switch. Fault plans force it implicitly: outage repair rebuilds
	// the degraded table from scratch each pass.
	FullReplan bool
	// Obs optionally records metrics and trace events. Nil disables all
	// instrumentation at the cost of one nil-check per site.
	Obs *obs.Observer
	// Prof optionally records wall-clock profiling spans ("sim.run",
	// "sim.credit", "sched.pass", "fault.repair" and the nested scheduler
	// phases) on the calling goroutine's span stack. Spans never touch
	// simulated time; nil disables profiling.
	Prof *span.Stack
	// Faults optionally injects port outages, circuit-setup failures and
	// degraded link rates. Nil — or a plan whose IsZero reports true — leaves
	// the simulation bit-identical to the fault-free baseline.
	Faults *fault.Plan
	// OnArchive, when non-nil, switches the simulator into bounded-memory
	// archive mode: each Coflow that completes is handed to the callback as a
	// compact Archived record and the Result maps (CCT, Finish, SwitchCount)
	// stay empty, so resident memory tracks the peak number of concurrent
	// Coflows instead of the trace length. Records arrive in retirement
	// order (finish instant, ties by id). Stranded Coflows still retire into
	// Result.Partial, never through the callback. The callback runs on the
	// simulation goroutine and must not retain the record's address.
	OnArchive func(Archived)

	// faultModel, when set, overrides the Faults plan with a pre-compiled —
	// and possibly port-restricted — model. Only the sharded runner sets it,
	// to give each port-disjoint component a private Model scoped to its own
	// ports (the Model's setup-attempt counters are mutable, so it can never
	// be shared across concurrently running components).
	faultModel *fault.Model
}

// ErrReplan wraps a scheduler failure during an online reschedule. It used to
// be a panic; now the simulator surfaces it to the caller together with the
// Coflow that could not be placed.
var ErrReplan = errors.New("sim: replan failed")

// RunCircuit simulates the Coflows on a Sunflow-scheduled optical circuit
// switch. Following §6, the schedule is recomputed only on Coflow arrivals
// and completions (and at fair-window boundaries when starvation avoidance
// is enabled): at each such instant, circuits already established keep their
// reservations — non-preemption — while reservations that have not yet
// begun are discarded and replanned against the remaining demand of all
// live Coflows in priority order.
func RunCircuit(coflows []*coflow.Coflow, opts CircuitOptions) (Result, error) {
	if err := checkCircuitOptions(opts); err != nil {
		return newResult(), err
	}
	arrivalsOrder, _, err := prepare(coflows, opts.Ports)
	if err != nil {
		return newResult(), err
	}
	return runCircuit(&sliceSource{cs: arrivalsOrder}, opts, false)
}

// checkCircuitOptions rejects unusable options before any simulation state is
// built, preserving the historical error precedence of RunCircuit (a bad link
// rate reports before a bad workload).
func checkCircuitOptions(opts CircuitOptions) error {
	if opts.LinkBps <= 0 {
		return fmt.Errorf("sim: link bandwidth must be positive, got %v", opts.LinkBps)
	}
	if opts.Fair != nil {
		return opts.Fair.Validate(opts.Delta)
	}
	return nil
}

func newResult() Result {
	return Result{CCT: map[int]float64{}, Finish: map[int]float64{}, SwitchCount: map[int]int{}}
}

// runCircuit is the trace-driven front end of the Stepper, shared by
// RunCircuit (pre-validated slice, checkDups false) and RunCircuitSource
// (lazy validation, checkDups true). Each iteration jumps to the next
// instant something happens — an arrival or one of the Stepper's internal
// events — admits the arrivals due there and replans once. The loop holds at
// most one unadmitted Coflow from src at a time.
func runCircuit(src Source, opts CircuitOptions, checkDups bool) (res Result, err error) {
	sp := opts.Prof.Start("sim.run").Attr("sim", "circuit")
	defer sp.Finish()
	res = newResult()
	// Stranded Coflows retire into Result.Partial, which the Stepper keeps,
	// never into CCT or the archive.
	s, err := NewStepper(opts, func(r Retired) {
		if opts.OnArchive != nil {
			if !r.Stranded {
				opts.OnArchive(r.Archived)
			}
			return
		}
		if r.Switches > 0 {
			res.SwitchCount[r.ID] = r.Switches
		}
		if !r.Stranded {
			res.Finish[r.ID] = r.Finish
			res.CCT[r.ID] = r.CCT
		}
	})
	if err != nil {
		return res, err
	}
	defer func() { res.Partial = s.partial }()
	if o := opts.Obs; o != nil {
		defer func() { o.SimEvents.Add(int64(res.Events)) }()
	}

	in := lookahead{src: src}
	admit := func() error {
		for {
			c, err := in.peek()
			if err != nil {
				return err
			}
			if c == nil || c.Arrival > s.now+timeEps {
				return nil
			}
			in.next = nil
			if checkDups {
				// The ordered-source contract catches equal-arrival duplicates;
				// this catches a duplicate arriving while its twin is live or
				// already retained in the Result maps. In OnArchive mode a
				// duplicate arriving after its twin retired is the caller's
				// contract to prevent (nothing is retained to detect it against).
				_, inFinish := res.Finish[c.ID]
				_, inCCT := res.CCT[c.ID]
				if s.live[c.ID] != nil || inFinish || inCCT {
					return fmt.Errorf("sim: duplicate coflow id %d", c.ID)
				}
			}
			s.Admit(c)
		}
	}

	t := 0.0
	c0, err := in.peek()
	if err != nil {
		return res, err
	}
	if c0 != nil {
		t = c0.Arrival
	}
	if s.faults != nil {
		if o := opts.Obs; o.TraceEnabled() {
			o.Emit(obs.Event{T: t, Kind: obs.KindFaultInject, Coflow: -1, Src: -1, Dst: -1})
		}
	}
	s.jumpTo(t)
	if err := admit(); err != nil {
		return res, err
	}
	if err := s.Replan(); err != nil {
		return res, err
	}

	for ev := 0; ; ev++ {
		if ev > maxEvents {
			return res, fmt.Errorf("sim: circuit simulation exceeded %d events", maxEvents)
		}
		res.Events = ev
		nxt, err := in.peek()
		if err != nil {
			return res, err
		}
		arrival := math.Inf(1)
		if nxt != nil {
			arrival = nxt.Arrival
		} else if len(s.live) == 0 {
			s.closeTrace()
			return res, nil
		}
		if err := s.stepToward(arrival); err != nil {
			return res, err
		}
		if err := admit(); err != nil {
			return res, err
		}
		if err := s.Replan(); err != nil {
			return res, err
		}
	}
}

// lookahead holds the single not-yet-admitted Coflow pulled from a Source;
// holding one record instead of the whole pending slice is what bounds
// resident memory on streamed runs.
type lookahead struct {
	src  Source
	next *coflow.Coflow
	done bool
}

// peek returns the next unadmitted Coflow without consuming it, pulling at
// most one record from the source. Source errors (read failures, invalid or
// out-of-order Coflows on the streamed path) surface here, at the simulated
// instant the record is first needed.
func (l *lookahead) peek() (*coflow.Coflow, error) {
	if l.next == nil && !l.done {
		c, err := l.src.Next()
		if err != nil {
			return nil, err
		}
		if c == nil {
			l.done = true
		} else {
			l.next = c
		}
	}
	return l.next, nil
}

// liveCoflow tracks one admitted, unfinished Coflow.
type liveCoflow struct {
	c *coflow.Coflow
	// rem is the unserved demand per flow in bytes, including demand that
	// in-flight (locked) reservations will deliver. Credited continuously as
	// circuits carry bytes, it drives the priority key, completion detection
	// and stranded-byte accounting.
	rem map[fabric.FlowKey]float64
	// base is the scheduler's view of the same demand, kept drift-free: it
	// ignores in-flight delivery and is debited exactly once per circuit, by
	// the full bytes the circuit carries, at the pass after the circuit ends.
	// Between establishment boundaries base is bit-stable while rem drifts
	// with every credit window, so the incremental replanner fingerprints
	// scheduler inputs derived from base (DESIGN.md §7). nil until the first
	// in-flight byte is credited — until then it is bit-identical to rem and
	// rem stands in for it. Base exists only while the Stepper has no fault
	// view: degraded-rate delivery would make the exact folding drift from
	// rem, and the two views could then disagree about whether a residual
	// flow still needs scheduling (credit() has the full story).
	base map[fabric.FlowKey]float64
	// finish is the planned completion time under the current plan.
	finish float64
	// flowFinish records actual flow completion instants.
	flowFinish map[fabric.FlowKey]float64
	// flowStarted marks flows whose first byte was carried; allocated only
	// when event tracing is on.
	flowStarted map[fabric.FlowKey]bool
	// demand keeps each flow's original demand so flow_finish events can
	// report the bytes the flow carried; allocated only when tracing is on.
	demand map[fabric.FlowKey]float64
	// stranded marks a Coflow that lost at least one flow to a permanent
	// port failure: it retires into the PartialResult, never into CCT.
	stranded bool
	// strandedBytes is the demand of the flows it lost.
	strandedBytes float64
	// bytes is the Coflow's total positive demand at admission, reported in
	// the archive record when OnArchive mode is on.
	bytes float64
	// switches counts circuit establishments made on this Coflow's behalf.
	switches int
	// keys holds rem's flow keys in (Src, Dst) order, built once at
	// admission. Stranding deletes rem entries without touching keys, so
	// readers skip keys absent from the map instead of re-sorting per pass.
	keys []fabric.FlowKey
}

// newLive builds the live state of a Coflow with its full demand unserved,
// or returns nil when the Coflow has no positive demand.
func newLive(c *coflow.Coflow, tracing bool) *liveCoflow {
	rem := make(map[fabric.FlowKey]float64, len(c.Flows))
	total := 0.0
	for _, f := range c.Flows {
		if f.Bytes > 0 {
			rem[fabric.FlowKey{Src: f.Src, Dst: f.Dst}] += f.Bytes
			total += f.Bytes
		}
	}
	if len(rem) == 0 {
		return nil
	}
	keys := make([]fabric.FlowKey, 0, len(rem))
	for k := range rem {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Src != keys[b].Src {
			return keys[a].Src < keys[b].Src
		}
		return keys[a].Dst < keys[b].Dst
	})
	lc := &liveCoflow{
		c:          c,
		rem:        rem,
		keys:       keys,
		finish:     math.Inf(1),
		flowFinish: make(map[fabric.FlowKey]float64, len(rem)),
		bytes:      total,
	}
	if tracing {
		lc.flowStarted = make(map[fabric.FlowKey]bool, len(rem))
		lc.demand = make(map[fabric.FlowKey]float64, len(rem))
		for k, b := range rem {
			lc.demand[k] = b
		}
	}
	return lc
}

// record is the Coflow's retirement record at the given finish instant.
func (lc *liveCoflow) record(finish float64) Retired {
	return Retired{
		Archived: Archived{
			ID:       lc.c.ID,
			Arrival:  lc.c.Arrival,
			Finish:   finish,
			CCT:      finish - lc.c.Arrival,
			Bytes:    lc.bytes,
			Switches: lc.switches,
		},
		Stranded:      lc.stranded,
		StrandedBytes: lc.strandedBytes,
	}
}

// Retired is the record of one Coflow leaving a Stepper's live set: drained,
// stranded, forcibly removed, or admitted with no demand at all.
type Retired struct {
	// Archived carries the completion: Finish is the instant the last flow
	// drained (the removal instant for Remove) and CCT is Finish − Arrival.
	Archived
	// Stranded marks a Coflow that lost flows to a permanent port failure;
	// its routable demand drained but StrandedBytes of it never will.
	Stranded      bool
	StrandedBytes float64
}

// Stepper is the deterministic circuit-scheduling event loop of Sunflow's
// inter-Coflow scheduler: it owns the live Coflows, the plan, the PRT the
// plan is rebuilt on, the plan cache, the per-Coflow remainders and the
// fault view. Following §6, the schedule is recomputed only at events —
// arrivals, planned completions, fair-window ends and outage edges — and
// established circuits keep their reservations (non-preemption) while
// reservations that have not yet begun are discarded and replanned against
// the remaining demand of all live Coflows in priority order.
//
// Both front ends drive one: the trace simulator (runCircuit) feeds it a
// Source, and the online daemon feeds it WAL-ordered events. The event API:
//
//   - Admit adds a Coflow at the current instant;
//   - ArriveAt steps time to an arrival the way the simulator's loop does;
//   - AdvanceTo moves time forward, and at every internal event on the way
//     credits delivery, applies outage edges, quarantines, retires drained
//     Coflows and replans;
//   - Replan settles the current instant after admissions or removals;
//   - Remove forcibly retires a live Coflow;
//   - DeclareOutage adds a port outage to the fault view;
//   - State and Restore export and import the resumable state.
//
// Retirements are reported through the callback given to NewStepper, in
// deterministic order. A Stepper is not safe for concurrent use.
type Stepper struct {
	opts   CircuitOptions
	policy core.Policy
	live   map[int]*liveCoflow
	// now is the current simulated instant.
	now float64
	// retired receives every Coflow leaving the live set.
	retired func(Retired)
	// partial accumulates stranded flows; nil until the first strand.
	partial *PartialResult
	// plan holds all reservations not yet fully credited: circuits in
	// flight plus the planned future.
	plan []core.Reservation
	// faults is the fault view; nil on a fault-free fabric, keeping every
	// fault branch behind one nil-check.
	faults *fault.Model
	// faultCursor is the last outage boundary already applied to the plan.
	faultCursor float64
	// declared lists the outages added by DeclareOutage, in order, so State
	// can carry them.
	declared []fault.Outage
	// prt is the reservation table rebuilt by every replan; reused across
	// passes (Reset keeps the grown per-port capacity) so replanning is
	// allocation-free on the timelines.
	prt *core.PRT
	// cache holds the previous successful pass's per-Coflow outcomes in
	// policy order; empty while incremental reuse is off.
	cache []planCacheEntry
	// scratch pools the per-pass allocations of replanOnce.
	scratch replanScratch
	// passes counts scheduling passes attempted, stalled ones included.
	passes uint64
}

// NewStepper validates the options, compiles the fault plan and returns an
// empty Stepper at time zero. The Policy defaults as in CircuitOptions;
// retired receives every Coflow that leaves the live set.
func NewStepper(opts CircuitOptions, retired func(Retired)) (*Stepper, error) {
	if err := checkCircuitOptions(opts); err != nil {
		return nil, err
	}
	policy := opts.Policy
	if policy == nil {
		policy = core.ShortestFirst{LinkBps: opts.LinkBps}
	}
	fm := opts.faultModel
	if fm == nil {
		var err error
		fm, err = opts.Faults.Compile(opts.Ports)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	return &Stepper{
		opts:        opts,
		policy:      policy,
		live:        map[int]*liveCoflow{},
		retired:     retired,
		faults:      fm,
		faultCursor: math.Inf(-1),
		prt:         core.NewPRT(opts.Ports),
	}, nil
}

// Now returns the Stepper's current instant.
func (s *Stepper) Now() float64 { return s.now }

// Passes returns the number of scheduling passes run, stalled ones included.
func (s *Stepper) Passes() uint64 { return s.passes }

// Plan returns the current reservations: circuits in flight plus the planned
// future. The slice is the Stepper's own; callers must not modify it, and it
// is valid only until the next call that changes the Stepper.
func (s *Stepper) Plan() []core.Reservation { return s.plan }

// LiveCoflow is one live Coflow's externally visible state.
type LiveCoflow struct {
	ID            int
	Arrival       float64
	Remaining     float64 // unserved bytes, in-flight delivery included
	PlannedFinish float64
	Stranded      bool
}

// Live returns the live Coflows in id order.
func (s *Stepper) Live() []LiveCoflow {
	out := make([]LiveCoflow, 0, len(s.live))
	for _, id := range sortedLiveIDs(s.live) {
		lc := s.live[id]
		rem := 0.0
		for _, k := range lc.keys {
			rem += lc.rem[k]
		}
		out = append(out, LiveCoflow{ID: id, Arrival: lc.c.Arrival, Remaining: rem, PlannedFinish: lc.finish, Stranded: lc.stranded})
	}
	return out
}

// Admit adds the Coflow to the live set at the current instant and reports
// whether it joined; a Coflow without positive demand retires on the spot
// (Finish = Arrival, CCT 0). The plan is not touched until the next Replan.
// The caller guarantees the id is not live.
func (s *Stepper) Admit(c *coflow.Coflow) bool {
	o := s.opts.Obs
	lc := newLive(c, o.TraceEnabled())
	if lc == nil {
		s.retired(Retired{Archived: Archived{ID: c.ID, Arrival: c.Arrival, Finish: c.Arrival}})
		return false
	}
	if o != nil {
		o.CoflowsAdmitted.Inc()
		if o.TraceEnabled() {
			o.Emit(obs.Event{T: s.now, Kind: obs.KindCoflowAdmit, Coflow: c.ID, Src: -1, Dst: -1, Bytes: c.TotalBytes()})
		}
	}
	s.live[c.ID] = lc
	return true
}

// Remove forcibly retires a live Coflow at the current instant, regardless
// of its remaining demand, and returns its record (false when the id is not
// live). Its established circuits keep their ports until they end; its
// unstarted reservations go at the next Replan.
func (s *Stepper) Remove(id int) (Retired, bool) {
	lc := s.live[id]
	if lc == nil {
		return Retired{}, false
	}
	delete(s.live, id)
	s.completed(lc, s.now)
	return lc.record(s.now), true
}

// completed counts and traces a Coflow's completion; stranded Coflows
// leave without one.
func (s *Stepper) completed(lc *liveCoflow, finish float64) {
	if o := s.opts.Obs; o != nil && !lc.stranded {
		o.CoflowsCompleted.Inc()
		if o.TraceEnabled() {
			o.Emit(obs.Event{T: finish, Kind: obs.KindCoflowComplete, Coflow: lc.c.ID, Src: -1, Dst: -1, Dur: finish - lc.c.Arrival})
		}
	}
}

// nextEvent returns the Stepper's next internal event after now: a planned
// Coflow completion, a fair window end (fair service is not part of the plan,
// so demand must be re-credited and the plan refreshed there) or an outage
// edge; +Inf when nothing is pending.
func (s *Stepper) nextEvent() float64 {
	te := math.Inf(1)
	for _, lc := range s.live {
		te = math.Min(te, lc.finish)
	}
	if s.opts.Fair != nil {
		te = math.Min(te, s.opts.Fair.NextEnd(s.now))
	}
	if s.faults != nil {
		te = math.Min(te, s.faults.NextBoundary(s.now))
	}
	return te
}

// moveTo credits delivery up to te, makes te the current instant, applies
// the outage edges due there and retires the Coflows that drained.
func (s *Stepper) moveTo(te float64) {
	s.credit(s.now, te)
	s.now = te
	if s.faults != nil {
		s.syncFaults(te)
		s.quarantine(te)
	}
	s.retire(te)
}

// stepToward makes the next instant something happens the current one: the
// earlier of the next internal event and the pending arrival at arrival
// (+Inf when none). Delivery is credited up to it and outage edges,
// quarantine and retirement applied there; the caller then admits what is
// due and calls Replan. An idle fabric jumps straight to the arrival.
func (s *Stepper) stepToward(arrival float64) error {
	if len(s.live) == 0 {
		s.jumpTo(arrival)
		return nil
	}
	te := math.Min(s.nextEvent(), arrival)
	if math.IsInf(te, 1) {
		return fmt.Errorf("%w at t=%.6f (%d live coflows)", ErrStalled, s.now, len(s.live))
	}
	s.moveTo(te)
	return nil
}

// ArriveAt steps time forward to an arrival at t exactly as the simulator's
// event loop does: each internal event before the arrival is processed and
// replanned, and the loop stops at the first instant within timeEps of t —
// t itself, or an internal event just before it. The caller then admits the
// arriving Coflow and calls Replan. An arrival at or before the current
// instant leaves time where it is.
func (s *Stepper) ArriveAt(t float64) error {
	for step := 0; t > s.now+timeEps; step++ {
		if step > maxEvents {
			return fmt.Errorf("sim: arrival exceeded %d internal events at t=%.6f", maxEvents, s.now)
		}
		if err := s.stepToward(t); err != nil {
			return err
		}
		if t <= s.now+timeEps {
			return nil
		}
		if err := s.Replan(); err != nil {
			return err
		}
	}
	return nil
}

// jumpTo makes t the current instant without crediting — the simulator's
// step over an idle fabric — and applies the outage edges due by then.
func (s *Stepper) jumpTo(t float64) {
	s.now = t
	s.syncFaults(t)
}

// AdvanceTo moves time forward to t. Every internal event at or before t is
// processed in order — credit, outage edges, quarantine, retire, replan —
// and delivery is then credited up to t without a further replan. An
// instant at or before the current one changes nothing.
func (s *Stepper) AdvanceTo(t float64) error {
	for step := 0; ; step++ {
		if step > maxEvents {
			return fmt.Errorf("sim: advance exceeded %d internal events at t=%.6f", maxEvents, s.now)
		}
		te := s.nextEvent()
		if math.IsInf(te, 1) || te > t+timeEps {
			break
		}
		s.moveTo(te)
		if err := s.Replan(); err != nil {
			return err
		}
	}
	if t > s.now {
		s.credit(s.now, t)
		s.now = t
	}
	return nil
}

// Replan settles the current instant: under faults, flows on permanently
// dead ports are quarantined and drained Coflows retire first; then the plan
// is rebuilt. A scheduler failure surfaces as ErrReplan.
func (s *Stepper) Replan() error {
	if s.faults != nil {
		s.quarantine(s.now)
		s.retire(s.now)
	}
	return s.replan(s.now)
}

// planCacheEntry records one Coflow's outcome in the previous scheduling
// pass at its policy-order position. The entry is clean at the same position
// of the next pass — its reservations replayed via PRT.BulkAdd instead of
// re-running IntraCoflow — when the Coflow id and its exclusion-adjusted
// remainder (the exact IntraCoflow input, flows fully served by locked
// circuits dropped) are bit-identical and no cached reservation starts
// before (or within timeEps of) the new pass instant.
type planCacheEntry struct {
	id int
	// flows is the IntraCoflow input the schedule was computed from:
	// remaining demand minus locked-reservation exclusions, in (Src, Dst)
	// order. Compared exactly — a one-ulp drift in any term re-runs the
	// scheduler, keeping reuse bit-identical by construction.
	flows []coflow.Flow
	// res is the cached IntraCoflow output; owned by the entry (the plan
	// holds copies).
	res []core.Reservation
	// minStart and maxEnd are res's extremes (+Inf/-Inf when empty).
	minStart, maxEnd float64
	// ctx is the port context the schedule was computed against: the busy
	// intervals visible on the input flows' ports when IntraCoflow ran,
	// snapshotted just before the run and trimmed to horizon. The intra
	// search is a pure function of its input flows, its start instant and
	// this context, so a bit-exact match certifies the cached output.
	ctx []core.PortSpan
	// horizon bounds the table range the cached search could have consulted:
	// maxEnd + δ + 2·timeEps (-Inf for an empty schedule). Occupancy at or
	// beyond it cannot influence the search — every window it probes starts
	// at a placement or rejection instant below maxEnd and extends at most
	// δ plus the eps tolerances.
	horizon float64
}

// replanScratch pools the buffers replanOnce previously allocated per pass,
// making a steady-state replan allocation-free outside IntraCoflow itself.
type replanScratch struct {
	// lockedFuture maps Coflow id -> flow key -> full planned bytes of its
	// in-flight circuits. Subtracted from the drift-free base remainder (not
	// from rem) it yields the demand still unplanned — the pairing keeps the
	// scheduler input bit-stable while a circuit holds, since neither side
	// moves with delivery. Inner maps recycle through exclPool.
	lockedFuture map[int]map[fabric.FlowKey]float64
	exclPool     []map[fabric.FlowKey]float64
	// tmps holds reusable remainder-Coflow headers, one per live Coflow; the
	// header doubles as the IntraCoflow input when the Coflow has no locked
	// exclusions (the remainders are then identical).
	tmps []*coflow.Coflow
	// order and key are the policy SortInto scratch.
	order []*coflow.Coflow
	key   map[int]float64
	// sched is the remainder-with-exclusions scratch Coflow.
	sched *coflow.Coflow
	// nextCache accumulates this pass's cache entries, swapped into
	// Stepper.cache on success.
	nextCache []planCacheEntry
	// cacheIdx maps Coflow id to its index in Stepper.cache, rebuilt
	// each incremental pass.
	cacheIdx map[int]int
	// spans is the pre-run port-context snapshot buffer; ins and outs hold
	// the sorted unique ports of the flows being certified or snapshotted.
	spans     []core.PortSpan
	ins, outs []int
}

// credit applies all transmission occurring in [from, to): planned circuit
// reservations plus shared service in fair windows. It also counts circuit
// establishments whose setup begins in the interval.
func (s *Stepper) credit(from, to float64) {
	if to <= from {
		return
	}
	csp := s.opts.Prof.Start("sim.credit")
	defer csp.Finish()
	// Reservations in start order so sequential reservations of one flow
	// are credited in the order they deliver.
	sort.Slice(s.plan, func(a, b int) bool { return s.plan[a].Start < s.plan[b].Start })
	o := s.opts.Obs
	for idx := range s.plan {
		r := &s.plan[idx]
		lc := s.live[r.CoflowID]
		if r.Start >= from-timeEps && r.Start < to-timeEps {
			if lc != nil {
				lc.switches++
			}
			var retries []float64
			delta := r.Setup
			if s.faults != nil {
				retries = s.establishFaulty(r)
			}
			if o != nil {
				o.CircuitSetups.Inc()
				o.SetupSeconds.Add(r.Setup)
				o.HoldSeconds.Add(r.End - r.Start)
				o.PlannedBytes.Add(r.Bytes)
				o.InBusySeconds.Add(r.In, r.End-r.Start)
				o.OutBusySeconds.Add(r.Out, r.End-r.Start)
				if o.TraceEnabled() {
					o.Emit(obs.Event{T: r.Start, Kind: obs.KindCircuitUp, Coflow: r.CoflowID, Src: r.In, Dst: r.Out, Bytes: r.Bytes, Dur: r.Setup})
					// Retries follow the circuit_up that owns them so replay
					// sees an open circuit; Dur carries the per-attempt δ.
					for _, off := range retries {
						o.Emit(obs.Event{T: r.Start + off, Kind: obs.KindCircuitRetry, Coflow: r.CoflowID, Src: r.In, Dst: r.Out, Dur: delta})
					}
				}
			}
		}
		if o.TraceEnabled() && r.End > from+timeEps && r.End <= to+timeEps {
			o.Emit(obs.Event{T: r.End, Kind: obs.KindCircuitDown, Coflow: r.CoflowID, Src: r.In, Dst: r.Out})
		}
		if lc == nil {
			continue
		}
		bps := s.opts.LinkBps
		var d float64
		if factor := s.rateFactor(r); factor != 1 {
			// Degraded link or straggler flow: the circuit carries data at a
			// reduced rate and may release its ports before the planned Bytes
			// are through; the shortfall is replanned.
			bps *= factor
			d = transmittedAt(r, to, bps) - transmittedAt(r, from, bps)
		} else {
			d = r.TransmittedBy(to, bps) - r.TransmittedBy(from, bps)
		}
		if d <= 0 {
			continue
		}
		key := fabric.FlowKey{Src: r.In, Dst: r.Out}
		rem := lc.rem[key]
		if rem <= 0 {
			continue
		}
		if lc.base == nil && s.faults == nil {
			// First in-flight byte for this Coflow: snapshot the pristine
			// demand before rem starts drifting away from it. Fault runs
			// never build a base: degraded-rate delivery makes the exact
			// planned-bytes folding drift from rem by real fractions of a
			// byte, and the two views can then disagree about whether a
			// flow's residual is worth scheduling — rem above byteEps with
			// base below it wedges the event loop at a fixed instant.
			// Incremental reuse (the only consumer of base) is disabled
			// under faults anyway, so the scheduler reads rem instead.
			lc.base = make(map[fabric.FlowKey]float64, len(lc.rem))
			for k, v := range lc.rem {
				lc.base[k] = v
			}
		}
		if o != nil {
			o.BytesDelivered.Add(math.Min(rem, d))
		}
		if lc.flowStarted != nil && !lc.flowStarted[key] {
			lc.flowStarted[key] = true
			o.Emit(obs.Event{T: math.Max(from, r.TransmitStart()), Kind: obs.KindFlowStart, Coflow: r.CoflowID, Src: r.In, Dst: r.Out})
		}
		if rem <= d+byteEps {
			// The flow drains inside this reservation; solve for the
			// instant.
			deliveryStart := math.Max(from, r.TransmitStart())
			finish := deliveryStart + rem*8/bps
			lc.rem[key] = 0
			if _, done := lc.flowFinish[key]; !done {
				lc.flowFinish[key] = finish
				if o.TraceEnabled() {
					o.Emit(obs.Event{T: finish, Kind: obs.KindFlowFinish, Coflow: r.CoflowID, Src: r.In, Dst: r.Out, Bytes: lc.demand[key]})
				}
			}
		} else {
			lc.rem[key] = rem - d
		}
	}

	if s.opts.Fair != nil {
		s.creditFairWindows(from, to)
	}
}

// creditFairWindows applies the shared round-robin service of §4.2 within
// [from, to): during each τ window, circuit [i, A_k(i)] serves the remaining
// demand of all live Coflows on that port pair with equal instantaneous
// shares.
func (s *Stepper) creditFairWindows(from, to float64) {
	o := s.opts.Obs
	for _, w := range s.opts.Fair.WindowsIn(from, to) {
		if o.TraceEnabled() {
			// Windows can straddle several credit intervals; emit each
			// boundary only in the interval containing it.
			if w.Start >= from-timeEps && w.Start < to-timeEps {
				o.Emit(obs.Event{T: w.Start, Kind: obs.KindWindowOpen, Coflow: -1, Src: -1, Dst: -1, Dur: w.End - w.Start})
			}
			if w.End > from+timeEps && w.End <= to+timeEps {
				o.Emit(obs.Event{T: w.End, Kind: obs.KindWindowClose, Coflow: -1, Src: -1, Dst: -1})
			}
		}
		txStart := w.Start + s.opts.Delta
		segStart := math.Max(from, txStart)
		segEnd := math.Min(to, w.End)
		if segEnd <= segStart {
			continue
		}
		seconds := segEnd - segStart
		for i, j := range w.Assign {
			key := fabric.FlowKey{Src: i, Dst: j}
			var ids []int
			var rems []float64
			for id, lc := range s.live {
				if b := lc.rem[key]; b > byteEps {
					ids = append(ids, id)
					rems = append(rems, b)
				}
			}
			if len(ids) == 0 {
				continue
			}
			sort.Sort(&idRemSorter{ids: ids, rems: rems})
			served := core.ShareCircuit(rems, seconds, s.opts.LinkBps)
			for idx, id := range ids {
				lc := s.live[id]
				if o != nil {
					o.BytesDelivered.Add(math.Min(lc.rem[key], served[idx]))
				}
				if lc.flowStarted != nil && served[idx] > 0 && !lc.flowStarted[key] {
					lc.flowStarted[key] = true
					o.Emit(obs.Event{T: segStart, Kind: obs.KindFlowStart, Coflow: id, Src: i, Dst: j})
				}
				if lc.base != nil {
					// Window delivery is real delivery: the scheduler's
					// drift-free remainder must not re-plan the shared bytes.
					lc.base[key] -= served[idx]
				}
				nr := lc.rem[key] - served[idx]
				if nr <= byteEps {
					lc.rem[key] = 0
					if _, done := lc.flowFinish[key]; !done {
						// Exact drain instants inside a shared window are
						// not tracked; the window end bounds the error by τ.
						lc.flowFinish[key] = segEnd
						if o.TraceEnabled() {
							o.Emit(obs.Event{T: segEnd, Kind: obs.KindFlowFinish, Coflow: id, Src: i, Dst: j, Bytes: lc.demand[key]})
						}
					}
				} else {
					lc.rem[key] = nr
				}
			}
		}
	}
}

// idRemSorter keeps (ids, rems) pairs in deterministic order.
type idRemSorter struct {
	ids  []int
	rems []float64
}

func (s *idRemSorter) Len() int           { return len(s.ids) }
func (s *idRemSorter) Less(a, b int) bool { return s.ids[a] < s.ids[b] }
func (s *idRemSorter) Swap(a, b int) {
	s.ids[a], s.ids[b] = s.ids[b], s.ids[a]
	s.rems[a], s.rems[b] = s.rems[b], s.rems[a]
}

// closeTrace emits circuit_down for circuits still holding their ports when
// the simulation ends. Non-preemption commits an established circuit through
// its reservation end, so when fair windows (or plan overlap) drain the last
// demand early the port is still held past the final event; the trace must
// close those circuits or every consumer would see an unmatched circuit_up.
// The down is stamped at the reservation end — the instant the port is
// actually released — matching the HoldSeconds the counters accrued at setup.
func (s *Stepper) closeTrace() {
	o := s.opts.Obs
	if !o.TraceEnabled() {
		return
	}
	now := s.now
	for _, r := range s.plan {
		if r.Start < now-timeEps && r.End > now+timeEps {
			o.Emit(obs.Event{T: r.End, Kind: obs.KindCircuitDown, Coflow: r.CoflowID, Src: r.In, Dst: r.Out})
		}
	}
}

// retire records Coflows whose demand has fully drained. Coflows are visited
// in id order, not map order: two Coflows finishing at the same instant must
// emit their completion events in the same order on every run, or traces stop
// being reproducible.
func (s *Stepper) retire(now float64) {
	for _, id := range sortedLiveIDs(s.live) {
		lc := s.live[id]
		done := true
		for _, b := range lc.rem {
			if b > byteEps {
				done = false
				break
			}
		}
		if !done {
			continue
		}
		// The Coflow finished at its latest recorded flow finish, which can
		// precede the event instant now.
		finish := 0.0
		for _, f := range lc.flowFinish {
			finish = math.Max(finish, f)
		}
		if finish == 0 {
			finish = now
		}
		delete(s.live, id)
		if lc.stranded {
			// Quarantined Coflow: its routable demand has drained but
			// stranded flows never will. It leaves the fabric without a CCT;
			// the PartialResult records what it could not deliver.
			s.partialResult().Finish[id] = finish
		}
		s.retired(lc.record(finish))
		s.completed(lc, finish)
	}
}

// replan rebuilds the circuit plan at time now. On a fault-free run a
// scheduler failure is a plan inconsistency surfaced as ErrReplan (this used
// to panic). Under faults, a stall means permanent outages left a Coflow
// unroutable: its doomed flows are quarantined and the pass retried, so every
// solvable workload still completes.
func (s *Stepper) replan(now float64) error {
	for {
		id, err := s.replanOnce(now)
		if err == nil {
			return nil
		}
		if s.faults != nil && errors.Is(err, core.ErrStalled) {
			if lc := s.live[id]; lc != nil && s.strandDoomed(lc, now) {
				// Fully stranded Coflows must leave the live set before the
				// retry or they would stall it again.
				s.retire(now)
				continue
			}
		}
		return fmt.Errorf("%w: coflow %d at t=%.6f: %w", ErrReplan, id, now, err)
	}
}

// replanOnce is one scheduling pass: in-flight reservations are kept
// (non-preemption), everything else is rescheduled with IntraCoflow in policy
// order against the remaining demand. It returns the Coflow that could not be
// placed alongside the error.
func (s *Stepper) replanOnce(now float64) (id int, err error) {
	s.passes++
	o := s.opts.Obs
	if o != nil || s.opts.Prof != nil {
		// One measurement feeds the counters and the span: the span tree's
		// sched.pass totals sum to sched.seconds exactly. A failed pass
		// (stall under faults) closes its span but, as before, leaves the
		// pass counters untouched — the retry after quarantine counts.
		// Clock before span: the span's start stamp then lands no earlier
		// than passStart, so the recorded interval covers its children even
		// when the goroutine is preempted between the two calls.
		passStart := time.Now()
		psp := s.opts.Prof.Start("sched.pass")
		defer func() {
			if err != nil {
				psp.Attr("outcome", "stalled").Finish()
				return
			}
			d := time.Since(passStart).Seconds()
			psp.FinishWith(d)
			if o == nil {
				return
			}
			o.SchedPasses.Inc()
			o.SchedSeconds.Add(d)
			o.SchedPassTime.Observe(d)
			o.QueueDepth.Set(int64(len(s.plan)))
		}()
	}
	// Keep only circuits already established and still holding their ports.
	// The filter runs in place: locked is a subsequence of plan and the pass
	// rebuilds plan from it below, so no per-pass copy is needed. A circuit
	// that ended since the last pass leaves the plan here, and its full
	// planned bytes are folded into the drift-free base remainder in the same
	// breath — one exact subtraction per circuit, mirroring the bytes credit
	// streamed into rem across many windows.
	locked := s.plan[:0]
	for _, r := range s.plan {
		if r.Start >= now-timeEps {
			continue // never established; the pass replans its demand
		}
		if r.End > now+timeEps {
			locked = append(locked, r)
			continue
		}
		if lc := s.live[r.CoflowID]; lc != nil && lc.base != nil {
			// base exists only on fault-free runs, where the circuit carried
			// exactly its planned Bytes.
			lc.base[fabric.FlowKey{Src: r.In, Dst: r.Out}] -= r.Bytes
		}
	}

	prt := s.prt
	prt.Reset()
	if s.opts.Fair != nil {
		prt.SetBlackout(*s.opts.Fair)
	}
	if s.faults != nil {
		// Repair path: re-seed the degraded table defensively — a locked
		// circuit that no longer fits is invalidated rather than crashing the
		// run — then block every port interval a fault keeps down. (The
		// fault-free locked preload happens further down, after the clean
		// prefix is known, so the incremental path can bulk-load both in one
		// go.)
		fsp := s.opts.Prof.Start("fault.repair")
		kept := locked[:0]
		for _, r := range locked {
			if prt.TryReserve(r) == nil {
				kept = append(kept, r)
			}
		}
		locked = kept
		for port := 0; port < s.opts.Ports; port++ {
			for _, og := range s.faults.Outages(port) {
				if og.End > now+timeEps {
					prt.Block(port, math.Max(og.Start, now), og.End)
				}
			}
		}
		fsp.Finish()
	}

	sc := &s.scratch
	lockedFuture := sc.takeLockedFuture()
	for i := range locked {
		r := &locked[i]
		if s.live[r.CoflowID] != nil {
			m := lockedFuture[r.CoflowID]
			if m == nil {
				m = sc.takeExcl()
				lockedFuture[r.CoflowID] = m
			}
			// Against the drift-free base the exclusion is the circuit's full
			// planned bytes (base ignores in-flight delivery). Fault runs
			// have no base — the scheduler reads rem, which already reflects
			// delivery, so only the bytes the circuit will still carry (at
			// its possibly degraded rate) are excluded.
			if s.faults != nil {
				m[fabric.FlowKey{Src: r.In, Dst: r.Out}] += s.resFutureBytes(r, now)
			} else {
				m[fabric.FlowKey{Src: r.In, Dst: r.Out}] += r.Bytes
			}
		}
	}

	// Priority-sort the live Coflows on their full remaining demand. The
	// remainder headers are pooled; each also serves as the IntraCoflow input
	// below when its Coflow has no locked exclusions.
	for len(sc.tmps) < len(s.live) {
		sc.tmps = append(sc.tmps, &coflow.Coflow{})
	}
	n := 0
	for _, lc := range s.live {
		remainderInto(sc.tmps[n], lc)
		n++
	}
	tmps := sc.tmps[:n]
	var ordered []*coflow.Coflow
	if ss, ok := s.policy.(core.ScratchSorter); ok {
		if sc.key == nil {
			sc.key = make(map[int]float64, len(tmps))
		}
		sc.order = ss.SortInto(tmps, sc.order, sc.key)
		ordered = sc.order
	} else {
		ordered = s.policy.Sort(tmps)
	}

	// Dirty-prefix reuse runs only on a fault-free fabric: the repair path
	// rebuilds the degraded table from scratch every pass.
	incremental := !s.opts.FullReplan && !s.opts.Reference && s.faults == nil
	if incremental {
		s.compactCache()
		sc.nextCache = sc.nextCache[:0]
		if sc.cacheIdx == nil {
			sc.cacheIdx = map[int]int{}
		} else {
			clear(sc.cacheIdx)
		}
		for i := range s.cache {
			sc.cacheIdx[s.cache[i].id] = i
		}
	}
	id, err = s.schedulePass(now, ordered, locked, incremental)
	if err == errBulkFallback {
		// The replayed reservations did not fit the table: the reuse checks
		// missed an invalidation. Rebuild the pass from scratch and drop the
		// cache — defense in depth, the differential suites never reach here.
		prt.Reset()
		if s.opts.Fair != nil {
			prt.SetBlackout(*s.opts.Fair)
		}
		sc.nextCache = sc.nextCache[:0]
		s.dropCache()
		return s.schedulePass(now, ordered, locked, false)
	}
	if err == nil && incremental {
		// Swap the rebuilt cache in; stale entries are zeroed so the old
		// backing array does not pin retired schedules for the GC.
		old := s.cache
		s.cache = sc.nextCache
		for i := range old {
			old[i] = planCacheEntry{}
		}
		sc.nextCache = old[:0]
	}
	return id, err
}

// errBulkFallback signals that replayed cached reservations conflicted with
// the table — the reuse checks missed an invalidation — and the pass must be
// redone as a full rebuild.
var errBulkFallback = errors.New("sim: cached schedule replay conflicted")

// schedulePass rebuilds the plan for one scheduling pass: every live Coflow,
// in ordered priority order, either replays its cached schedule (reuse mode,
// when provably bit-identical to what IntraCoflow would produce — DESIGN.md
// §7) or runs IntraCoflow against the table built so far. The caller has
// Reset the table (with blackout and fault blocks applied); locked circuits
// are seeded here — bulk-loaded up front in reuse mode, Preloaded otherwise
// (the fault path seeded them already).
//
// Reuse certification rests on the intra search being a pure function of
// three things: its input flows, its start instant, and the busy intervals
// visible on the flows' ports below the search horizon. The input flows are
// compared bit-exactly (flowsEqual); the start instant only matters through
// the table because the cached search placed nothing before max(now,
// arrival) — the minStart guard pins that; and the port context is compared
// bit-exactly against the snapshot taken when the cached schedule was
// computed (SpansMatch), trimmed on both sides to intervals still visible
// from the current pass start. Expired intervals drop out of both views
// symmetrically and provably never influenced decisions at or after now, so
// a match means the search would walk the same release events, probe the
// same windows and compute the same floats — additions, removals and ulp
// drifts on the entry's ports all surface as snapshot mismatches, with no
// monotonicity reasoning needed.
func (s *Stepper) schedulePass(now float64, ordered []*coflow.Coflow, locked []core.Reservation, reuse bool) (int, error) {
	o := s.opts.Obs
	prt := s.prt
	sc := &s.scratch
	skips := int64(0)
	if reuse {
		prt.BulkAdd(locked)
		if err := prt.FinishBulk(); err != nil {
			return 0, errBulkFallback
		}
	} else if s.faults == nil {
		prt.Preload(locked)
	}
	s.plan = locked
	for _, tmp := range ordered {
		lc := s.live[tmp.ID]
		var e *planCacheEntry
		if reuse {
			if k, ok := sc.cacheIdx[tmp.ID]; ok {
				e = &s.cache[k]
			}
		}
		if e != nil && s.reusable(e, tmp, lc, now) {
			for i := range e.res {
				if err := prt.TryReserve(e.res[i]); err != nil {
					return 0, errBulkFallback
				}
			}
			// The cached schedule is bit-identical to what IntraCoflow would
			// recompute; only the planned finish needs refreshing — its base
			// is the pass start, which moved since the cached pass.
			finish := math.Max(now, lc.c.Arrival)
			if e.maxEnd > finish {
				finish = e.maxEnd
			}
			for _, r := range locked {
				if r.CoflowID == tmp.ID && r.End > finish {
					finish = r.End
				}
			}
			lc.finish = finish
			s.plan = append(s.plan, e.res...)
			sc.nextCache = append(sc.nextCache, *e)
			skips++
			continue
		}
		// Dirty: snapshot the port context the search is about to see, then
		// run the scheduler. The snapshot must precede the run — IntraCoflow's
		// own placements are part of its output, not its input.
		toSchedule := s.schedInput(tmp, lc)
		start := math.Max(now, lc.c.Arrival)
		if reuse {
			sc.ins, sc.outs = flowPorts(toSchedule.Flows, sc.ins, sc.outs)
			sc.spans = prt.SpansOn(start, math.Inf(1), sc.ins, sc.outs, sc.spans[:0])
		}
		sched, err := core.IntraCoflow(prt, toSchedule, core.Options{
			LinkBps:   s.opts.LinkBps,
			Delta:     s.opts.Delta,
			Start:     start,
			Order:     s.opts.Order,
			Seed:      s.opts.Seed,
			Reference: s.opts.Reference,
			Obs:       s.opts.Obs,
			Prof:      s.opts.Prof,
		})
		if err != nil {
			return tmp.ID, err
		}
		finish := sched.Finish
		for _, r := range locked {
			if r.CoflowID == tmp.ID && r.End > finish {
				finish = r.End
			}
		}
		lc.finish = finish
		s.plan = append(s.plan, sched.Reservations...)
		if reuse {
			ne := newCacheEntry(tmp.ID, toSchedule.Flows, sched.Reservations)
			ne.horizon = ne.maxEnd + s.opts.Delta + 2*timeEps
			for _, sp := range sc.spans {
				if sp.Start < ne.horizon {
					ne.ctx = append(ne.ctx, sp)
				}
			}
			sc.nextCache = append(sc.nextCache, ne)
		}
	}
	if o != nil {
		o.IntraSkipped.Add(skips)
	}
	return 0, nil
}

// compactCache drops cache entries for Coflows that have left the fabric.
// A retired Coflow's still-future occupancy vanishing from the table is
// caught by the snapshot comparison of any entry that was placed around it,
// so no bookkeeping is needed here.
func (s *Stepper) compactCache() {
	out := s.cache[:0]
	for i := range s.cache {
		if s.live[s.cache[i].id] != nil {
			out = append(out, s.cache[i])
		}
	}
	for i := len(out); i < len(s.cache); i++ {
		s.cache[i] = planCacheEntry{}
	}
	s.cache = out
}

// dropCache empties the plan cache, zeroing the entries so the backing array
// does not pin retired schedules for the GC.
func (s *Stepper) dropCache() {
	for i := range s.cache {
		s.cache[i] = planCacheEntry{}
	}
	s.cache = s.cache[:0]
}

// reusable reports whether the cached entry can be replayed for the Coflow
// this pass: its input flows are bit-identical; none of its placements have
// started or fall in the (now, now+timeEps] fuzz band — placements there
// were made against commitments the eps-tolerant comparisons could now round
// the other way; and the busy intervals currently visible on its ports below
// its horizon match the cached snapshot bit for bit.
func (s *Stepper) reusable(e *planCacheEntry, tmp *coflow.Coflow, lc *liveCoflow, now float64) bool {
	if lc == nil {
		return false
	}
	if e.minStart < now || (e.minStart > now && e.minStart <= now+timeEps) {
		return false
	}
	if !flowsEqual(e.flows, s.schedInput(tmp, lc).Flows) {
		return false
	}
	sc := &s.scratch
	sc.ins, sc.outs = flowPorts(e.flows, sc.ins, sc.outs)
	return s.prt.SpansMatch(e.ctx, math.Max(now, lc.c.Arrival), e.horizon, sc.ins, sc.outs)
}

// flowPorts fills ins and outs with the sorted unique source and destination
// ports of the flows, reusing the given backing slices. Flows arrive in
// (Src, Dst) order, so sources dedupe in place; destinations need a sort.
func flowPorts(flows []coflow.Flow, ins, outs []int) ([]int, []int) {
	ins, outs = ins[:0], outs[:0]
	for i := range flows {
		if n := len(ins); n == 0 || ins[n-1] != flows[i].Src {
			ins = append(ins, flows[i].Src)
		}
		outs = append(outs, flows[i].Dst)
	}
	sort.Ints(outs)
	w := 0
	for i, d := range outs {
		if i == 0 || d != outs[w-1] {
			outs[w] = d
			w++
		}
	}
	return ins, outs[:w]
}

// flowsEqual compares two flow slices exactly — Flow is comparable, so this
// is a bit-exact test of the scheduler input.
func flowsEqual(a, b []coflow.Flow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// newCacheEntry snapshots one dirty-position outcome. The input flows are
// copied because the pooled remainder buffer they sit in recycles next pass;
// the reservations slice is owned by the schedule just computed (the plan
// keeps its own copies).
func newCacheEntry(id int, flows []coflow.Flow, res []core.Reservation) planCacheEntry {
	e := planCacheEntry{
		id:       id,
		flows:    append([]coflow.Flow(nil), flows...),
		res:      res,
		minStart: math.Inf(1),
		maxEnd:   math.Inf(-1),
	}
	for i := range res {
		if res[i].Start < e.minStart {
			e.minStart = res[i].Start
		}
		if res[i].End > e.maxEnd {
			e.maxEnd = res[i].End
		}
	}
	return e
}

// takeLockedFuture returns the pooled outer exclusion map, emptied, with the
// inner maps recycled into the pool.
func (sc *replanScratch) takeLockedFuture() map[int]map[fabric.FlowKey]float64 {
	if sc.lockedFuture == nil {
		sc.lockedFuture = map[int]map[fabric.FlowKey]float64{}
		return sc.lockedFuture
	}
	for id, m := range sc.lockedFuture {
		clear(m)
		sc.exclPool = append(sc.exclPool, m)
		delete(sc.lockedFuture, id)
	}
	return sc.lockedFuture
}

// takeExcl returns an empty inner exclusion map, pooled when available.
func (sc *replanScratch) takeExcl() map[fabric.FlowKey]float64 {
	if n := len(sc.exclPool); n > 0 {
		m := sc.exclPool[n-1]
		sc.exclPool = sc.exclPool[:n-1]
		return m
	}
	return map[fabric.FlowKey]float64{}
}

// remainderInto rebuilds tmp as the live Coflow's remaining demand from the
// continuously-credited rem — the priority-key view.
func remainderInto(tmp *coflow.Coflow, lc *liveCoflow) *coflow.Coflow {
	return remainderFrom(tmp, lc, lc.rem, nil)
}

// remainderFrom rebuilds tmp as the Coflow's remaining demand read from src,
// optionally excluding demand that locked reservations will serve. Flows
// come out in (Src, Dst) order without sorting: lc.keys was sorted once at
// admission and keys stranded out of the map are skipped on read.
func remainderFrom(tmp *coflow.Coflow, lc *liveCoflow, src, exclude map[fabric.FlowKey]float64) *coflow.Coflow {
	tmp.ID, tmp.Arrival = lc.c.ID, lc.c.Arrival
	flows := tmp.Flows[:0]
	for _, k := range lc.keys {
		b, ok := src[k]
		if !ok {
			continue
		}
		if exclude != nil {
			b -= exclude[k]
		}
		if b > byteEps {
			flows = append(flows, coflow.Flow{Src: k.Src, Dst: k.Dst, Bytes: b})
		}
	}
	tmp.Flows = flows
	return tmp
}

// schedInput builds the IntraCoflow input for the Coflow this pass: the
// drift-free base remainder minus the full planned bytes of its in-flight
// circuits. A Coflow that never carried a byte and holds no circuits keeps
// its pooled priority-sort header — rem and base are still bit-identical
// there, so the remainders are too.
func (s *Stepper) schedInput(tmp *coflow.Coflow, lc *liveCoflow) *coflow.Coflow {
	excl := s.scratch.lockedFuture[lc.c.ID]
	if lc.base == nil && excl == nil {
		return tmp
	}
	if s.scratch.sched == nil {
		s.scratch.sched = &coflow.Coflow{}
	}
	src := lc.rem
	if lc.base != nil {
		src = lc.base
	}
	return remainderFrom(s.scratch.sched, lc, src, excl)
}
