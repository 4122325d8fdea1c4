// Package daemon is the online Sunflow scheduler service behind cmd/sunflowd:
// a long-running process that accepts Coflow registrations and
// completion/fault events over HTTP, maintains one live Port Reservation
// Table, and replans incrementally on every accepted event instead of
// rescheduling a batch trace from scratch.
//
// The package is split along a strict determinism boundary:
//
//   - Engine (this file) is a pure state machine over logical time: applying
//     an event sequence is a deterministic function of (EngineConfig, events),
//     with every schedule decision folded into a running SHA-256 digest. No
//     state depends on the wall clock (pass timing is read only to feed an
//     attached Observer's metrics).
//   - WAL and snapshot (wal.go, store.go) persist the accepted event sequence
//     and checkpoints of Engine state, so a crash recovers to bit-identical
//     schedules — the property test in recovery_test.go and the kill -9 smoke
//     in cmd/sunflowd-smoke enforce it.
//   - Daemon (daemon.go, http.go) wraps the Engine with the wall-clock
//     concerns of a service: admission control, request deadlines, retries,
//     watchdog, drain.
//
// The Engine runs the simulator's scheduling loop itself: it drives a
// sim.Stepper — the event loop behind sim.RunCircuit — and keeps only the
// daemon's own concerns (validation, idempotency, the digest chain,
// completion records and snapshot encoding). A stream of register events
// replayed through an Engine therefore yields Coflow completion times
// bit-identical to sim.RunCircuit on the same workload (engine_test.go checks
// it as a regression property).
package daemon

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fault"
	"sunflow/internal/obs"
	"sunflow/internal/sim"
)

// EventKind discriminates WAL records and API requests.
type EventKind string

// Event kinds accepted by the Engine.
const (
	// KindRegister admits a new Coflow at time At.
	KindRegister EventKind = "register"
	// KindAdvance moves logical time forward to At, crediting planned
	// delivery and retiring Coflows whose demand drains on the way.
	KindAdvance EventKind = "advance"
	// KindComplete force-completes a Coflow at At — the fabric (or operator)
	// declaring it done regardless of the plan.
	KindComplete EventKind = "complete"
	// KindFault declares a port outage starting at At for Duration seconds
	// (Duration <= 0 means permanent).
	KindFault EventKind = "fault"
)

// FlowSpec is one flow of a registration.
type FlowSpec struct {
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Bytes float64 `json:"bytes"`
}

// Event is one accepted daemon input: the WAL record, the HTTP request body
// and the Engine transition are all this struct. At is logical time in
// seconds; events whose At precedes the Engine clock are applied "late" at
// the current clock (the At still counts as the Coflow's arrival for CCT).
type Event struct {
	// Seq is the WAL sequence number, assigned at admission; zero in request
	// bodies.
	Seq uint64 `json:"seq,omitempty"`
	// Kind selects the transition.
	Kind EventKind `json:"kind"`
	// At is the event's logical time.
	At float64 `json:"at"`
	// Coflow identifies the Coflow for register/complete.
	Coflow int `json:"coflow"`
	// Priority is the operator override for register: live Coflows are served
	// in strictly descending Priority, shortest-first within a class. Zero is
	// the default class.
	Priority int `json:"priority,omitempty"`
	// Flows is the registered demand.
	Flows []FlowSpec `json:"flows,omitempty"`
	// Port and Duration describe a fault.
	Port     int     `json:"port"`
	Duration float64 `json:"duration,omitempty"`
}

// Deterministic apply rejections. They are part of the state machine: a
// rejected event leaves the Engine unchanged and rejects identically when the
// WAL replays it after a crash.
var (
	// ErrBadEvent rejects malformed events (unknown kind, bad times, ports
	// outside the fabric, negative demand).
	ErrBadEvent = errors.New("daemon: bad event")
	// ErrDuplicateCoflow rejects re-registering an id with different content.
	// Identical re-registration is idempotent and accepted.
	ErrDuplicateCoflow = errors.New("daemon: coflow id already registered with different content")
	// ErrUnknownCoflow rejects completing an id never registered.
	ErrUnknownCoflow = errors.New("daemon: unknown coflow")
)

// EngineConfig fixes the fabric and scheduling parameters of an Engine. It
// must be identical across restarts of one data directory; Store guards this
// with a config fingerprint in the snapshot.
type EngineConfig struct {
	// Ports is the switch port count N.
	Ports int `json:"ports"`
	// LinkBps is the per-port bandwidth B in bits/s.
	LinkBps float64 `json:"link_bps"`
	// Delta is the circuit reconfiguration delay δ in seconds.
	Delta float64 `json:"delta"`
	// Order is the intra-Coflow reservation ordering.
	Order core.Order `json:"order"`
	// Seed drives RandomOrder.
	Seed int64 `json:"seed"`
	// FullReplan disables dirty-prefix schedule reuse, forcing every replan
	// to invoke the intra scheduler for every live Coflow (DESIGN.md §7).
	// Schedules are bit-identical either way — the differential property
	// tests pin it — so this is a debugging/benchmarking knob, not part of
	// the config identity snapshots are checked against.
	FullReplan bool `json:"full_replan,omitempty"`
}

// Validate reports an error for non-physical parameters.
func (c EngineConfig) Validate() error {
	if c.Ports <= 0 {
		return fmt.Errorf("daemon: fabric must have at least one port, got %d", c.Ports)
	}
	if c.LinkBps <= 0 {
		return fmt.Errorf("daemon: link bandwidth must be positive, got %v", c.LinkBps)
	}
	if c.Delta < 0 || math.IsNaN(c.Delta) {
		return fmt.Errorf("daemon: reconfiguration delay must be non-negative, got %v", c.Delta)
	}
	return nil
}

// Completion records one finished Coflow.
type Completion struct {
	Arrival float64 `json:"arrival"`
	Finish  float64 `json:"finish"`
	CCT     float64 `json:"cct"`
	// Switches counts the circuit establishments the Coflow paid.
	Switches int `json:"switches"`
	// Stranded marks a Coflow that lost flows to a permanent port failure:
	// its routable demand drained but Bytes of it never will.
	Stranded bool    `json:"stranded,omitempty"`
	Bytes    float64 `json:"stranded_bytes,omitempty"`
	// Forced marks an external KindComplete rather than a planned drain.
	Forced bool `json:"forced,omitempty"`
	// SpecHash fingerprints the registration (priority and flows) so a
	// re-registration of a finished id is accepted as idempotent only when it
	// matches what was actually registered, not on arrival time alone.
	SpecHash string `json:"spec_hash,omitempty"`
}

// registration is what the Engine keeps of a live Coflow's register event:
// the spec recognizes idempotent retries, and the priority orders the
// Coflow's class. The scheduling state lives in the Stepper.
type registration struct {
	arrival  float64
	priority int
	// spec keeps the registered flows; hash is its fingerprint, carried into
	// the Completion for the same check after the Coflow finishes.
	spec []FlowSpec
	hash string
}

// Engine is the deterministic scheduling state machine. It is not safe for
// concurrent use; the Daemon serializes access through its event loop.
type Engine struct {
	cfg EngineConfig
	// st is the scheduling loop: live set, plan, PRT, plan cache and the
	// fault view built from the declared outages.
	st *sim.Stepper
	// regs holds the registrations of live Coflows by id. The priority
	// policy reads it, so it is filled in place, never replaced.
	regs map[int]*registration
	// done maps finished Coflow ids to their completion records.
	done map[int]Completion
	// digest chains a SHA-256 over every applied event and the plan it
	// produced — the bit-identity fingerprint crash recovery is checked
	// against.
	digest [sha256.Size]byte
}

// NewEngine returns an empty Engine for the fabric. The Observer, when set,
// records the Stepper's scheduler metrics and trace events; it never
// influences state (the recovery property test runs with and without it).
func NewEngine(cfg EngineConfig, o *obs.Observer) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:  cfg,
		regs: map[int]*registration{},
		done: map[int]Completion{},
	}
	st, err := sim.NewStepper(sim.CircuitOptions{
		Ports:      cfg.Ports,
		LinkBps:    cfg.LinkBps,
		Delta:      cfg.Delta,
		Policy:     byPriority{sf: core.ShortestFirst{LinkBps: cfg.LinkBps}, regs: e.regs},
		Order:      cfg.Order,
		Seed:       cfg.Seed,
		FullReplan: cfg.FullReplan,
		Obs:        o,
	}, func(r sim.Retired) { e.finish(r, false) })
	if err != nil {
		return nil, err
	}
	e.st = st
	return e, nil
}

// Now returns the Engine's logical clock.
func (e *Engine) Now() float64 { return e.st.Now() }

// LiveCount returns the number of registered, unfinished Coflows.
func (e *Engine) LiveCount() int { return len(e.regs) }

// DoneCount returns the number of finished Coflows.
func (e *Engine) DoneCount() int { return len(e.done) }

// Replans returns the number of scheduling passes run.
func (e *Engine) Replans() uint64 { return e.st.Passes() }

// Digest returns the hex SHA-256 chain over every applied event and the
// schedule it produced. Two Engines that applied the same event sequence —
// one of them through a crash and recovery — report identical digests.
func (e *Engine) Digest() string { return hex.EncodeToString(e.digest[:]) }

// Completions returns a copy of the finished-Coflow records.
func (e *Engine) Completions() map[int]Completion {
	out := make(map[int]Completion, len(e.done))
	for id, c := range e.done {
		out[id] = c
	}
	return out
}

// Completion returns one Coflow's record.
func (e *Engine) Completion(id int) (Completion, bool) {
	c, ok := e.done[id]
	return c, ok
}

// Plan returns a copy of the current reservation plan, sorted by start time.
func (e *Engine) Plan() []core.Reservation {
	out := append([]core.Reservation(nil), e.st.Plan()...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// LiveStatus is one live Coflow's externally visible state.
type LiveStatus struct {
	Coflow         int     `json:"coflow"`
	Arrival        float64 `json:"arrival"`
	Priority       int     `json:"priority,omitempty"`
	RemainingBytes float64 `json:"remaining_bytes"`
	PlannedFinish  float64 `json:"planned_finish"`
	Stranded       bool    `json:"stranded,omitempty"`
}

// Live returns the live set sorted by id.
func (e *Engine) Live() []LiveStatus {
	live := e.st.Live()
	out := make([]LiveStatus, 0, len(live))
	for _, lc := range live {
		out = append(out, LiveStatus{
			Coflow: lc.ID, Arrival: lc.Arrival, Priority: e.regs[lc.ID].priority,
			RemainingBytes: lc.Remaining, PlannedFinish: lc.PlannedFinish, Stranded: lc.Stranded,
		})
	}
	return out
}

// validate rejects malformed events before any state is touched, so a
// rejection is side-effect free and replays identically.
func (e *Engine) validate(ev Event) error {
	if math.IsNaN(ev.At) || math.IsInf(ev.At, 0) || ev.At < 0 {
		return fmt.Errorf("%w: invalid time %v", ErrBadEvent, ev.At)
	}
	switch ev.Kind {
	case KindRegister:
		for i, f := range ev.Flows {
			if f.Src < 0 || f.Src >= e.cfg.Ports || f.Dst < 0 || f.Dst >= e.cfg.Ports {
				return fmt.Errorf("%w: flow %d ports (%d,%d) outside [0,%d)", ErrBadEvent, i, f.Src, f.Dst, e.cfg.Ports)
			}
			if math.IsNaN(f.Bytes) || math.IsInf(f.Bytes, 0) || f.Bytes < 0 {
				return fmt.Errorf("%w: flow %d has invalid size %v", ErrBadEvent, i, f.Bytes)
			}
		}
	case KindAdvance:
		// Nothing beyond the time check.
	case KindComplete:
		// Nothing beyond the time check.
	case KindFault:
		if ev.Port < 0 || ev.Port >= e.cfg.Ports {
			return fmt.Errorf("%w: fault names port %d outside [0,%d)", ErrBadEvent, ev.Port, e.cfg.Ports)
		}
		if math.IsNaN(ev.Duration) {
			return fmt.Errorf("%w: fault has NaN duration", ErrBadEvent)
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadEvent, ev.Kind)
	}
	return nil
}

// Apply runs one event through the state machine. It returns whether the
// event changed state (false for idempotent duplicates) and a deterministic
// error for rejections; on error the Engine is unchanged except that the
// rejection itself is folded into the digest (a replayed WAL re-rejects
// identically, so recovery stays aligned).
func (e *Engine) Apply(ev Event) (applied bool, err error) {
	if err := e.validate(ev); err != nil {
		e.foldDigest(ev, false)
		return false, err
	}
	switch ev.Kind {
	case KindRegister:
		applied, err = e.applyRegister(ev)
	case KindAdvance:
		applied, err = true, e.st.AdvanceTo(ev.At)
	case KindComplete:
		applied, err = e.applyComplete(ev)
	case KindFault:
		applied, err = e.applyFault(ev)
	}
	e.foldDigest(ev, applied)
	return applied, err
}

func (e *Engine) applyRegister(ev Event) (bool, error) {
	hash := hashSpec(ev.Priority, ev.Flows)
	if reg, ok := e.regs[ev.Coflow]; ok {
		if sameSpec(reg.spec, ev.Flows) && reg.arrival == ev.At && reg.priority == ev.Priority {
			return false, nil // client retry of an acked registration
		}
		return false, fmt.Errorf("%w: id %d", ErrDuplicateCoflow, ev.Coflow)
	}
	if done, ok := e.done[ev.Coflow]; ok {
		if done.Arrival == ev.At && done.SpecHash == hash {
			return false, nil // client retry of a registration that already finished
		}
		return false, fmt.Errorf("%w: id %d already completed", ErrDuplicateCoflow, ev.Coflow)
	}
	if err := e.st.ArriveAt(ev.At); err != nil {
		return false, err
	}
	spec := append([]FlowSpec(nil), ev.Flows...)
	e.regs[ev.Coflow] = &registration{arrival: ev.At, priority: ev.Priority, spec: spec, hash: hash}
	// A Coflow without demand completes on the spot, like the simulator's.
	if !e.st.Admit(specCoflow(ev.Coflow, ev.At, spec)) {
		return true, nil
	}
	return true, e.st.Replan()
}

func (e *Engine) applyComplete(ev Event) (bool, error) {
	if _, ok := e.regs[ev.Coflow]; !ok {
		if _, done := e.done[ev.Coflow]; done {
			return false, nil // already finished: idempotent
		}
		return false, fmt.Errorf("%w: id %d", ErrUnknownCoflow, ev.Coflow)
	}
	if err := e.st.AdvanceTo(math.Max(ev.At, e.st.Now())); err != nil {
		return false, err
	}
	// The advance may have drained it on plan; then the external completion
	// arrives after the fact and is a no-op.
	r, ok := e.st.Remove(ev.Coflow)
	if !ok {
		return false, nil
	}
	e.finish(r, true)
	return true, e.st.Replan()
}

func (e *Engine) applyFault(ev Event) (bool, error) {
	if err := e.st.AdvanceTo(math.Max(ev.At, e.st.Now())); err != nil {
		return false, err
	}
	end := math.Inf(1)
	if ev.Duration > 0 && !math.IsInf(ev.Duration, 1) {
		end = ev.At + ev.Duration
	}
	if err := e.st.DeclareOutage(fault.Outage{Port: ev.Port, Start: ev.At, End: end}); err != nil {
		return false, err
	}
	return true, e.st.Replan()
}

// finish records a Coflow that left the Stepper — drained, stranded, forced
// out by a complete event, or registered without demand.
func (e *Engine) finish(r sim.Retired, forced bool) {
	e.done[r.ID] = Completion{
		Arrival:  r.Arrival,
		Finish:   r.Finish,
		CCT:      r.CCT,
		Switches: r.Switches,
		Stranded: r.Stranded,
		Bytes:    r.StrandedBytes,
		Forced:   forced,
		SpecHash: e.regs[r.ID].hash,
	}
	delete(e.regs, r.ID)
}

// specCoflow builds the Coflow a registration admits.
func specCoflow(id int, at float64, spec []FlowSpec) *coflow.Coflow {
	flows := make([]coflow.Flow, len(spec))
	for i, f := range spec {
		flows[i] = coflow.Flow{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes}
	}
	return &coflow.Coflow{ID: id, Arrival: at, Flows: flows}
}

// byPriority orders live Coflows for scheduling: strictly higher priority
// classes first, shortest-first within a class. With all priorities zero it
// is exactly the simulator's default shortest-Coflow-first policy.
type byPriority struct {
	sf   core.ShortestFirst
	regs map[int]*registration
}

// Name implements core.Policy.
func (p byPriority) Name() string { return "priority/" + p.sf.Name() }

// Sort implements core.Policy.
func (p byPriority) Sort(cs []*coflow.Coflow) []*coflow.Coflow {
	return p.SortInto(cs, nil, map[int]float64{})
}

// SortInto implements core.ScratchSorter: shortest-first into the scratch,
// then a stable sort on descending priority.
func (p byPriority) SortInto(cs, out []*coflow.Coflow, key map[int]float64) []*coflow.Coflow {
	out = p.sf.SortInto(cs, out, key)
	slices.SortStableFunc(out, func(a, b *coflow.Coflow) int {
		return cmp.Compare(p.regs[b.ID].priority, p.regs[a.ID].priority)
	})
	return out
}

// foldDigest chains the applied event and resulting schedule state into the
// Engine digest. Rejected events fold too (with applied=false and no plan
// bytes changing), so a recovered WAL replay that re-rejects stays aligned.
//
// The plan folds in canonical (Start, In, Out) order, not slice order: the
// slice order is scheduler-emitted on a live engine but snapshot-canonical on
// a restored one, and both must fingerprint identically. Port exclusivity
// makes the canonical key total — two reservations sharing Start and In
// would overlap on the input port.
func (e *Engine) foldDigest(ev Event, applied bool) {
	h := sha256.New()
	h.Write(e.digest[:])
	var buf [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(v float64) { putU(math.Float64bits(v)) }
	h.Write([]byte(ev.Kind))
	putU(ev.Seq)
	putF(ev.At)
	putU(uint64(int64(ev.Coflow)))
	putU(uint64(int64(ev.Priority)))
	putU(uint64(int64(ev.Port)))
	putF(ev.Duration)
	for _, f := range ev.Flows {
		putU(uint64(int64(f.Src)))
		putU(uint64(int64(f.Dst)))
		putF(f.Bytes)
	}
	if applied {
		putU(1)
	} else {
		putU(0)
	}
	putF(e.st.Now())
	plan := append([]core.Reservation(nil), e.st.Plan()...)
	putU(uint64(len(plan)))
	sort.Slice(plan, func(a, b int) bool {
		if plan[a].Start != plan[b].Start {
			return plan[a].Start < plan[b].Start
		}
		if plan[a].In != plan[b].In {
			return plan[a].In < plan[b].In
		}
		return plan[a].Out < plan[b].Out
	})
	for _, r := range plan {
		putU(uint64(int64(r.CoflowID)))
		putU(uint64(int64(r.In)))
		putU(uint64(int64(r.Out)))
		putF(r.Start)
		putF(r.End)
		putF(r.Setup)
		putF(r.Bytes)
	}
	sum := h.Sum(nil)
	copy(e.digest[:], sum)
}

// hashSpec fingerprints a registration's priority and flows, in registration
// order. Snapshots do not carry it for live Coflows — restoreState recomputes
// it from the preserved spec — and completions round-trip it as JSON.
func hashSpec(priority int, flows []FlowSpec) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(int64(priority)))
	for _, f := range flows {
		put(uint64(int64(f.Src)))
		put(uint64(int64(f.Dst)))
		put(math.Float64bits(f.Bytes))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameSpec reports whether two registrations carry identical flows.
func sameSpec(a, b []FlowSpec) bool {
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
