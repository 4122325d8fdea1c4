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
//     with every schedule decision folded into a running SHA-256 digest.
//     Nothing in the Engine reads the wall clock.
//   - WAL and snapshot (wal.go, store.go) persist the accepted event sequence
//     and checkpoints of Engine state, so a crash recovers to bit-identical
//     schedules — the property test in recovery_test.go and the kill -9 smoke
//     in cmd/sunflowd-smoke enforce it.
//   - Daemon (daemon.go, http.go) wraps the Engine with the wall-clock
//     concerns of a service: admission control, request deadlines, retries,
//     watchdog, drain.
//
// Engine semantics deliberately mirror internal/sim's circuit simulator: a
// stream of register events replayed through an Engine yields Coflow
// completion times bit-identical to sim.RunCircuit on the same workload
// (engine_test.go proves it), so the daemon inherits the simulator's heavily
// property-tested scheduling behavior.
package daemon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
	"sunflow/internal/obs"
)

// timeEps and byteEps match the simulators' comparison epsilons.
const (
	timeEps = 1e-9
	byteEps = 1.0
)

// maxSteps bounds one advanceTo's internal completion/outage loop, turning a
// runaway replan cycle into an error the watchdog can surface instead of a
// wedged event loop.
const maxSteps = 10_000_000

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

// liveEntry tracks one registered, unfinished Coflow.
type liveEntry struct {
	id       int
	arrival  float64
	priority int
	// spec keeps the registered flows so duplicate registrations can be
	// recognized as idempotent; specHash is its fingerprint, carried into the
	// Completion for the same check after the Coflow finishes.
	spec     []FlowSpec
	specHash string
	// rem is the unserved demand per flow in bytes, including demand that
	// in-flight reservations will deliver.
	rem map[fabric.FlowKey]float64
	// keys holds rem's keys in (Src, Dst) order, fixed at registration;
	// stranding deletes rem entries without touching keys, so readers skip
	// keys absent from rem.
	keys []fabric.FlowKey
	// base is the drift-free scheduler view of the demand: nil until the
	// Coflow's first in-flight byte, then a snapshot of rem debited only by
	// the exact planned bytes of circuits as they end — never by the
	// continuous crediting that makes rem drift. Scheduler input is base
	// minus the full planned bytes of in-flight circuits, so it is bit-stable
	// while a circuit holds. Mirrors the simulator's liveCoflow.base.
	base map[fabric.FlowKey]float64
	// flowFinish records actual flow completion instants.
	flowFinish map[fabric.FlowKey]float64
	// finish is the planned completion time under the current plan.
	finish float64
	// switches counts circuit establishments paid so far.
	switches int
	// stranded marks a Coflow that lost flows to a permanent failure.
	stranded bool
	// strandedBytes accumulates the demand those flows could not deliver.
	strandedBytes float64
}

// outage is one declared port downtime window; End is +Inf when permanent.
type outage struct {
	Port  int     `json:"port"`
	Start float64 `json:"start"`
	End   float64 `json:"end"` // encoded as -1 for permanent in JSON; see store.go
}

func (o outage) permanent() bool { return math.IsInf(o.End, 1) }

// Engine is the deterministic scheduling state machine. It is not safe for
// concurrent use; the Daemon serializes access through its event loop.
type Engine struct {
	cfg EngineConfig
	now float64
	// live holds registered, unfinished Coflows by id.
	live map[int]*liveEntry
	// plan holds all reservations not yet fully credited: circuits in flight
	// plus the planned future.
	plan []core.Reservation
	// outages lists declared fault windows in acceptance order.
	outages []outage
	// done maps finished Coflow ids to their completion records.
	done map[int]Completion
	// digest chains a SHA-256 over every applied event and the plan it
	// produced — the bit-identity fingerprint crash recovery is checked
	// against.
	digest [sha256.Size]byte
	// replans counts scheduling passes (exposed for status; also folded into
	// nothing — wall-clock-free).
	replans uint64
	// prt is the reservation table rebuilt by every replan; reused across
	// passes so replanning is allocation-free on the timelines.
	prt *core.PRT
	// incremental enables dirty-prefix schedule reuse while the fabric is
	// fault-free (outages force the full rebuild); fixed at construction
	// from the config.
	incremental bool
	// cache holds the previous pass's per-Coflow schedules in policy order.
	cache []planCacheEntry
	// scratch pools the per-pass replan allocations.
	scratch replanScratch
	// obs optionally records scheduler metrics; it must never influence
	// state (the recovery property test runs with and without it).
	obs *obs.Observer
}

// NewEngine returns an empty Engine for the fabric.
func NewEngine(cfg EngineConfig, o *obs.Observer) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:         cfg,
		live:        map[int]*liveEntry{},
		done:        map[int]Completion{},
		prt:         core.NewPRT(cfg.Ports),
		obs:         o,
		incremental: !cfg.FullReplan,
	}, nil
}

// Now returns the Engine's logical clock.
func (e *Engine) Now() float64 { return e.now }

// LiveCount returns the number of registered, unfinished Coflows.
func (e *Engine) LiveCount() int { return len(e.live) }

// DoneCount returns the number of finished Coflows.
func (e *Engine) DoneCount() int { return len(e.done) }

// Replans returns the number of scheduling passes run.
func (e *Engine) Replans() uint64 { return e.replans }

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
	out := append([]core.Reservation(nil), e.plan...)
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
	out := make([]LiveStatus, 0, len(e.live))
	for _, id := range sortedIDs(e.live) {
		lc := e.live[id]
		rem := 0.0
		for _, b := range lc.rem {
			rem += b
		}
		out = append(out, LiveStatus{
			Coflow: id, Arrival: lc.arrival, Priority: lc.priority,
			RemainingBytes: rem, PlannedFinish: lc.finish, Stranded: lc.stranded,
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
		applied, err = true, e.advanceTo(ev.At)
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
	if lc, ok := e.live[ev.Coflow]; ok {
		if sameSpec(lc.spec, ev.Flows) && lc.arrival == ev.At && lc.priority == ev.Priority {
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
	if err := e.advanceTo(math.Max(ev.At, e.now)); err != nil {
		return false, err
	}
	rem := make(map[fabric.FlowKey]float64, len(ev.Flows))
	for _, f := range ev.Flows {
		if f.Bytes > 0 {
			rem[fabric.FlowKey{Src: f.Src, Dst: f.Dst}] += f.Bytes
		}
	}
	if len(rem) == 0 {
		// Zero-demand Coflows complete instantly, like the simulator.
		e.done[ev.Coflow] = Completion{Arrival: ev.At, Finish: ev.At, CCT: 0, SpecHash: hash}
		return true, nil
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
	e.live[ev.Coflow] = &liveEntry{
		id:         ev.Coflow,
		arrival:    ev.At,
		priority:   ev.Priority,
		spec:       append([]FlowSpec(nil), ev.Flows...),
		specHash:   hash,
		rem:        rem,
		keys:       keys,
		flowFinish: make(map[fabric.FlowKey]float64, len(rem)),
		finish:     math.Inf(1),
	}
	if o := e.obs; o != nil {
		o.CoflowsAdmitted.Inc()
	}
	return true, e.replan(e.now)
}

func (e *Engine) applyComplete(ev Event) (bool, error) {
	lc, ok := e.live[ev.Coflow]
	if !ok {
		if _, done := e.done[ev.Coflow]; done {
			return false, nil // already finished: idempotent
		}
		return false, fmt.Errorf("%w: id %d", ErrUnknownCoflow, ev.Coflow)
	}
	if err := e.advanceTo(math.Max(ev.At, e.now)); err != nil {
		return false, err
	}
	// The advance may have drained it on plan; then the external completion
	// arrives after the fact and is a no-op.
	if _, still := e.live[ev.Coflow]; !still {
		return false, nil
	}
	finish := e.now
	e.done[ev.Coflow] = Completion{
		Arrival:  lc.arrival,
		Finish:   finish,
		CCT:      finish - lc.arrival,
		Switches: lc.switches,
		Stranded: lc.stranded,
		Bytes:    lc.strandedBytes,
		Forced:   true,
		SpecHash: lc.specHash,
	}
	delete(e.live, ev.Coflow)
	if o := e.obs; o != nil {
		o.CoflowsCompleted.Inc()
	}
	return true, e.replan(e.now)
}

func (e *Engine) applyFault(ev Event) (bool, error) {
	if err := e.advanceTo(math.Max(ev.At, e.now)); err != nil {
		return false, err
	}
	end := math.Inf(1)
	if ev.Duration > 0 && !math.IsInf(ev.Duration, 1) {
		end = ev.At + ev.Duration
	}
	og := outage{Port: ev.Port, Start: ev.At, End: end}
	e.outages = append(e.outages, og)
	// Outages gate off the incremental path for good; drop the cache so it
	// does not pin retired schedules.
	e.cache = nil
	if o := e.obs; o != nil {
		o.PortDowns.Inc()
	}
	if og.Start <= e.now+timeEps && og.End > e.now+timeEps {
		// The port is down as of now: circuits in flight across it release
		// immediately and their undelivered capacity returns to the planner.
		e.truncatePort(ev.Port, e.now)
	}
	e.quarantine(e.now)
	e.retire(e.now)
	return true, e.replan(e.now)
}

// advanceTo moves logical time to t, processing every planned completion and
// outage edge on the way exactly like the simulator's event loop: credit the
// plan up to the event instant, truncate circuits on failing ports, retire
// drained Coflows, replan.
func (e *Engine) advanceTo(t float64) error {
	for step := 0; ; step++ {
		if step > maxSteps {
			return fmt.Errorf("daemon: advance exceeded %d internal events at t=%.6f", maxSteps, e.now)
		}
		te := math.Inf(1)
		for _, lc := range e.live {
			te = math.Min(te, lc.finish)
		}
		te = math.Min(te, e.nextOutageBoundary(e.now))
		if math.IsInf(te, 1) || te > t+timeEps {
			break
		}
		e.credit(e.now, te)
		for _, og := range e.outages {
			if math.Abs(og.Start-te) <= timeEps {
				e.truncatePort(og.Port, te)
			}
		}
		e.quarantine(te)
		e.retire(te)
		if err := e.replan(te); err != nil {
			return err
		}
		e.now = te
	}
	if t > e.now {
		e.credit(e.now, t)
		e.now = t
	}
	return nil
}

// credit applies all planned transmission occurring in [from, to), mirroring
// the simulator's crediting pass.
func (e *Engine) credit(from, to float64) {
	if to <= from {
		return
	}
	sort.Slice(e.plan, func(a, b int) bool { return e.plan[a].Start < e.plan[b].Start })
	o := e.obs
	for idx := range e.plan {
		r := &e.plan[idx]
		lc := e.live[r.CoflowID]
		if r.Start >= from-timeEps && r.Start < to-timeEps {
			if lc != nil {
				lc.switches++
			}
			if o != nil {
				o.CircuitSetups.Inc()
				o.SetupSeconds.Add(r.Setup)
				o.HoldSeconds.Add(r.End - r.Start)
				o.PlannedBytes.Add(r.Bytes)
			}
		}
		if lc == nil {
			continue
		}
		d := r.TransmittedBy(to, e.cfg.LinkBps) - r.TransmittedBy(from, e.cfg.LinkBps)
		if d <= 0 {
			continue
		}
		key := fabric.FlowKey{Src: r.In, Dst: r.Out}
		rem := lc.rem[key]
		if rem <= 0 {
			continue
		}
		if lc.base == nil {
			// First in-flight byte for this Coflow: snapshot the pristine
			// demand before rem starts drifting away from it.
			lc.base = make(map[fabric.FlowKey]float64, len(lc.rem))
			for k, v := range lc.rem {
				lc.base[k] = v
			}
		}
		if o != nil {
			o.BytesDelivered.Add(math.Min(rem, d))
		}
		if rem <= d+byteEps {
			// The flow drains inside this reservation; solve for the instant.
			deliveryStart := math.Max(from, r.TransmitStart())
			finish := deliveryStart + rem*8/e.cfg.LinkBps
			lc.rem[key] = 0
			if _, done := lc.flowFinish[key]; !done {
				lc.flowFinish[key] = finish
			}
		} else {
			lc.rem[key] = rem - d
		}
	}
}

// retire records Coflows whose demand has fully drained, in id order for
// deterministic completion records.
func (e *Engine) retire(now float64) {
	for _, id := range sortedIDs(e.live) {
		lc := e.live[id]
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
		finish := 0.0
		for _, f := range lc.flowFinish {
			finish = math.Max(finish, f)
		}
		if finish == 0 {
			finish = now
		}
		e.done[id] = Completion{
			Arrival:  lc.arrival,
			Finish:   finish,
			CCT:      finish - lc.arrival,
			Switches: lc.switches,
			Stranded: lc.stranded,
			Bytes:    lc.strandedBytes,
			SpecHash: lc.specHash,
		}
		delete(e.live, id)
		if o := e.obs; o != nil {
			o.CoflowsCompleted.Inc()
		}
	}
}

// replan rebuilds the plan at time now, quarantining Coflows a permanent
// outage has made unroutable when a pass stalls — the simulator's repair of
// last resort, so every solvable registration still completes.
func (e *Engine) replan(now float64) error {
	for {
		id, err := e.replanOnce(now)
		if err == nil {
			return nil
		}
		if errors.Is(err, core.ErrStalled) {
			if lc := e.live[id]; lc != nil && e.strandDoomed(lc) {
				e.retire(now)
				continue
			}
		}
		return fmt.Errorf("daemon: replan coflow %d at t=%.6f: %w", id, now, err)
	}
}

// planCacheEntry snapshots one Coflow's schedule from the previous replanning
// pass, with the fingerprints reuse certification validates it against
// (DESIGN.md §7). It mirrors the simulator's cache entry: the input flows,
// the output reservations, and the port context the intra search saw.
type planCacheEntry struct {
	id int
	// flows is the IntraCoflow input the schedule was computed from,
	// compared bit-exactly at reuse time.
	flows []coflow.Flow
	// res is the cached schedule; the entry owns the slice.
	res []core.Reservation
	// minStart and maxEnd bound res ((+Inf, -Inf) when empty).
	minStart, maxEnd float64
	// ctx is the busy intervals visible on the input flows' ports when the
	// schedule was computed, trimmed to horizon; reuse requires the current
	// table to match it bit for bit.
	ctx []core.PortSpan
	// horizon bounds the table range the cached search could have consulted:
	// maxEnd + δ + 2·timeEps.
	horizon float64
}

// replanScratch pools the per-pass allocations of replanOnce so a
// steady-state replan allocates nothing beyond what IntraCoflow needs.
type replanScratch struct {
	lockedFuture map[int]map[fabric.FlowKey]float64
	exclPool     []map[fabric.FlowKey]float64
	tmps         []*coflow.Coflow
	order        []*coflow.Coflow
	key          map[int]float64
	sched        *coflow.Coflow
	nextCache    []planCacheEntry
	// cacheIdx maps Coflow id to its index in Engine.cache, rebuilt each
	// incremental pass.
	cacheIdx map[int]int
	// spans is the pre-run port-context snapshot buffer; ins and outs hold
	// the sorted unique ports of the flows being certified or snapshotted.
	spans     []core.PortSpan
	ins, outs []int
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

// replanOnce is one scheduling pass: in-flight reservations are kept
// (non-preemption), everything else is rescheduled in priority order against
// the remaining demand of all live Coflows. On a fault-free fabric the pass
// reuses the previous pass's schedule for every Coflow whose certification
// holds — bit-identical by the reuse contract of DESIGN.md §7, which the
// engine differential property tests enforce. Circuits that completed since
// the last pass leave the plan here, and their full planned bytes are folded
// into the drift-free base remainder in the same breath.
func (e *Engine) replanOnce(now float64) (int, error) {
	e.replans++
	o := e.obs
	if o != nil {
		o.SchedPasses.Inc()
	}
	// In-place locked filter: locked is a subsequence of plan and the pass
	// rebuilds plan from it below.
	locked := e.plan[:0]
	for _, r := range e.plan {
		if r.Start >= now-timeEps {
			continue // never established; the pass replans its demand
		}
		if r.End > now+timeEps {
			locked = append(locked, r)
			continue
		}
		if lc := e.live[r.CoflowID]; lc != nil && lc.base != nil {
			lc.base[fabric.FlowKey{Src: r.In, Dst: r.Out}] -= r.Bytes
		}
	}

	prt := e.prt
	prt.Reset()
	if len(e.outages) > 0 {
		// Degraded table: re-seed defensively — a locked circuit that no
		// longer fits is invalidated rather than crashing the run — then
		// block every port interval an outage keeps down.
		kept := locked[:0]
		for _, r := range locked {
			if prt.TryReserve(r) == nil {
				kept = append(kept, r)
			} else if lc := e.live[r.CoflowID]; lc != nil && lc.base != nil {
				// Invalidated mid-flight: only what it already delivered
				// leaves the drift-free remainder; the rest returns to the
				// replanner.
				lc.base[fabric.FlowKey{Src: r.In, Dst: r.Out}] -= r.TransmittedBy(now, e.cfg.LinkBps)
			}
		}
		locked = kept
		for port := 0; port < e.cfg.Ports; port++ {
			for _, og := range e.outages {
				if og.Port == port && og.End > now+timeEps {
					prt.Block(port, math.Max(og.Start, now), og.End)
				}
			}
		}
	}

	sc := &e.scratch
	lockedFuture := sc.takeLockedFuture()
	for i := range locked {
		r := &locked[i]
		if e.live[r.CoflowID] != nil {
			m := lockedFuture[r.CoflowID]
			if m == nil {
				m = sc.takeExcl()
				lockedFuture[r.CoflowID] = m
			}
			m[fabric.FlowKey{Src: r.In, Dst: r.Out}] += r.Bytes
		}
	}

	for len(sc.tmps) < len(e.live) {
		sc.tmps = append(sc.tmps, &coflow.Coflow{})
	}
	n := 0
	for _, lc := range e.live {
		remainderInto(sc.tmps[n], lc)
		n++
	}
	ordered := e.orderLive(sc.tmps[:n])

	incremental := e.incremental && len(e.outages) == 0
	if incremental {
		e.compactCache()
		sc.nextCache = sc.nextCache[:0]
		if sc.cacheIdx == nil {
			sc.cacheIdx = map[int]int{}
		} else {
			clear(sc.cacheIdx)
		}
		for i := range e.cache {
			sc.cacheIdx[e.cache[i].id] = i
		}
	}
	id, err := e.schedulePass(now, ordered, locked, incremental)
	if err == errBulkFallback {
		// The replayed reservations did not fit the table: the reuse checks
		// missed an invalidation. Rebuild the pass from scratch and drop the
		// cache — defense in depth, the differential suites never reach here.
		prt.Reset()
		sc.nextCache = sc.nextCache[:0]
		for i := range e.cache {
			e.cache[i] = planCacheEntry{}
		}
		e.cache = e.cache[:0]
		return e.schedulePass(now, ordered, locked, false)
	}
	if err == nil && incremental {
		// Swap the rebuilt cache in; stale entries are zeroed so the old
		// backing array does not pin retired schedules for the GC.
		old := e.cache
		e.cache = sc.nextCache
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
var errBulkFallback = errors.New("daemon: cached schedule replay conflicted")

// schedulePass rebuilds the plan for one scheduling pass, replaying each
// cached schedule whose certification proves it bit-identical to what
// IntraCoflow would recompute, and running IntraCoflow for the rest. The
// certification is the simulator's (DESIGN.md §7): bit-exact input flows,
// the minStart/eps-band guard, and a bit-exact match of the busy intervals
// visible on the entry's ports against the snapshot taken when it was
// computed.
func (e *Engine) schedulePass(now float64, ordered []*coflow.Coflow, locked []core.Reservation, reuse bool) (int, error) {
	o := e.obs
	prt := e.prt
	sc := &e.scratch
	if reuse {
		prt.BulkAdd(locked)
		if err := prt.FinishBulk(); err != nil {
			return 0, errBulkFallback
		}
	} else if len(e.outages) == 0 {
		prt.Preload(locked)
	}
	e.plan = locked
	for _, tmp := range ordered {
		lc := e.live[tmp.ID]
		var ce *planCacheEntry
		if reuse {
			if k, ok := sc.cacheIdx[tmp.ID]; ok {
				ce = &e.cache[k]
			}
		}
		if ce != nil && e.reusable(ce, tmp, lc, now) {
			for i := range ce.res {
				if err := prt.TryReserve(ce.res[i]); err != nil {
					return 0, errBulkFallback
				}
			}
			finish := math.Max(now, lc.arrival)
			if ce.maxEnd > finish {
				finish = ce.maxEnd
			}
			for _, r := range locked {
				if r.CoflowID == tmp.ID && r.End > finish {
					finish = r.End
				}
			}
			lc.finish = finish
			e.plan = append(e.plan, ce.res...)
			sc.nextCache = append(sc.nextCache, *ce)
			if o != nil {
				o.IntraSkipped.Inc()
			}
			continue
		}
		// Dirty: snapshot the port context the search is about to see, then
		// run the scheduler.
		toSchedule := e.schedInput(tmp, lc)
		start := math.Max(now, lc.arrival)
		if reuse {
			sc.ins, sc.outs = flowPorts(toSchedule.Flows, sc.ins, sc.outs)
			sc.spans = prt.SpansOn(start, math.Inf(1), sc.ins, sc.outs, sc.spans[:0])
		}
		sched, err := core.IntraCoflow(prt, toSchedule, core.Options{
			LinkBps: e.cfg.LinkBps,
			Delta:   e.cfg.Delta,
			Start:   start,
			Order:   e.cfg.Order,
			Seed:    e.cfg.Seed,
			Obs:     e.obs,
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
		e.plan = append(e.plan, sched.Reservations...)
		if reuse {
			ne := newCacheEntry(tmp.ID, toSchedule.Flows, sched.Reservations)
			ne.horizon = ne.maxEnd + e.cfg.Delta + 2*timeEps
			for _, sp := range sc.spans {
				if sp.Start < ne.horizon {
					ne.ctx = append(ne.ctx, sp)
				}
			}
			sc.nextCache = append(sc.nextCache, ne)
		}
	}
	return 0, nil
}

// compactCache drops cache entries for Coflows that have left the fabric.
func (e *Engine) compactCache() {
	out := e.cache[:0]
	for i := range e.cache {
		if e.live[e.cache[i].id] != nil {
			out = append(out, e.cache[i])
		}
	}
	for i := len(out); i < len(e.cache); i++ {
		e.cache[i] = planCacheEntry{}
	}
	e.cache = out
}

// reusable reports whether the cached entry can be replayed for the Coflow
// this pass; see the simulator's reusable for the certification argument.
func (e *Engine) reusable(ce *planCacheEntry, tmp *coflow.Coflow, lc *liveEntry, now float64) bool {
	if lc == nil {
		return false
	}
	if ce.minStart < now || (ce.minStart > now && ce.minStart <= now+timeEps) {
		return false
	}
	if !flowsEqual(ce.flows, e.schedInput(tmp, lc).Flows) {
		return false
	}
	sc := &e.scratch
	sc.ins, sc.outs = flowPorts(ce.flows, sc.ins, sc.outs)
	return e.prt.SpansMatch(ce.ctx, math.Max(now, lc.arrival), ce.horizon, sc.ins, sc.outs)
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

// newCacheEntry snapshots one freshly-computed schedule. The input flows are
// copied because the pooled remainder buffer they sit in recycles next pass;
// the reservations slice is owned by the schedule just computed (the plan
// keeps its own copies).
func newCacheEntry(id int, flows []coflow.Flow, res []core.Reservation) planCacheEntry {
	ce := planCacheEntry{
		id:       id,
		flows:    append([]coflow.Flow(nil), flows...),
		res:      res,
		minStart: math.Inf(1),
		maxEnd:   math.Inf(-1),
	}
	for i := range res {
		if res[i].Start < ce.minStart {
			ce.minStart = res[i].Start
		}
		if res[i].End > ce.maxEnd {
			ce.maxEnd = res[i].End
		}
	}
	return ce
}

// schedInput builds the IntraCoflow input for the Coflow this pass: the
// drift-free base remainder minus the full planned bytes of its in-flight
// circuits. A Coflow that never carried a byte and holds no circuits keeps
// its pooled priority-sort header — rem and base are still bit-identical
// there, so the remainders are too.
func (e *Engine) schedInput(tmp *coflow.Coflow, lc *liveEntry) *coflow.Coflow {
	excl := e.scratch.lockedFuture[lc.id]
	if lc.base == nil && excl == nil {
		return tmp
	}
	if e.scratch.sched == nil {
		e.scratch.sched = &coflow.Coflow{}
	}
	src := lc.rem
	if lc.base != nil {
		src = lc.base
	}
	return remainderFrom(e.scratch.sched, lc, src, excl)
}

// orderLive sorts the remainder Coflows for scheduling: shortest-first within
// a priority class, strictly higher classes first. With all priorities zero
// this is exactly the simulator's shortest-Coflow-first policy. The sort runs
// in the pooled scratch.
func (e *Engine) orderLive(tmps []*coflow.Coflow) []*coflow.Coflow {
	sc := &e.scratch
	if sc.key == nil {
		sc.key = make(map[int]float64, len(tmps))
	}
	sc.order = core.ShortestFirst{LinkBps: e.cfg.LinkBps}.SortInto(tmps, sc.order, sc.key)
	out := sc.order
	sort.SliceStable(out, func(a, b int) bool {
		return e.live[out[a].ID].priority > e.live[out[b].ID].priority
	})
	return out
}

// remainderInto rebuilds tmp as the live entry's remaining demand from the
// continuously-credited rem — the priority-key view.
func remainderInto(tmp *coflow.Coflow, lc *liveEntry) *coflow.Coflow {
	return remainderFrom(tmp, lc, lc.rem, nil)
}

// remainderFrom rebuilds tmp as the Coflow's remaining demand read from src,
// optionally excluding demand that locked reservations will serve. Flows
// come out in (Src, Dst) order without sorting: lc.keys was sorted once at
// registration and keys stranded out of the map are skipped on read.
func remainderFrom(tmp *coflow.Coflow, lc *liveEntry, src, exclude map[fabric.FlowKey]float64) *coflow.Coflow {
	tmp.ID, tmp.Arrival = lc.id, lc.arrival
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

// truncatePort invalidates the in-flight portion of every established circuit
// touching a port that just failed, mirroring the simulator.
func (e *Engine) truncatePort(port int, bt float64) {
	for idx := range e.plan {
		r := &e.plan[idx]
		if r.In != port && r.Out != port {
			continue
		}
		if r.Start >= bt-timeEps || r.End <= bt+timeEps {
			continue
		}
		delivered := r.TransmittedBy(bt, e.cfg.LinkBps)
		r.End = bt
		if delivered < r.Bytes {
			r.Bytes = delivered
		}
		if r.Setup > bt-r.Start {
			r.Setup = bt - r.Start
		}
	}
}

// nextOutageBoundary returns the earliest outage start or finite end strictly
// after t, or +Inf.
func (e *Engine) nextOutageBoundary(t float64) float64 {
	next := math.Inf(1)
	for _, og := range e.outages {
		if og.Start > t+timeEps {
			next = math.Min(next, og.Start)
		}
		if !og.permanent() && og.End > t+timeEps {
			next = math.Min(next, og.End)
		}
	}
	return next
}

// permanentFrom returns the earliest permanent-outage start on the port, or
// +Inf.
func (e *Engine) permanentFrom(port int) float64 {
	from := math.Inf(1)
	for _, og := range e.outages {
		if og.Port == port && og.permanent() {
			from = math.Min(from, og.Start)
		}
	}
	return from
}

// quarantine strands every live flow whose source or destination port is
// permanently dead as of now.
func (e *Engine) quarantine(now float64) {
	any := false
	for _, og := range e.outages {
		if og.permanent() {
			any = true
			break
		}
	}
	if !any {
		return
	}
	for _, id := range sortedIDs(e.live) {
		e.strandFlows(e.live[id], func(k fabric.FlowKey) bool {
			return e.permanentFrom(k.Src) <= now+timeEps || e.permanentFrom(k.Dst) <= now+timeEps
		})
	}
}

// strandDoomed quarantines the Coflow's flows touching any port with a
// permanent failure anywhere on the horizon — the repair when a scheduling
// pass stalls against the degraded table.
func (e *Engine) strandDoomed(lc *liveEntry) bool {
	return e.strandFlows(lc, func(k fabric.FlowKey) bool {
		return !math.IsInf(e.permanentFrom(k.Src), 1) || !math.IsInf(e.permanentFrom(k.Dst), 1)
	})
}

// strandFlows removes from the live Coflow every unfinished flow matching
// cond, accumulating the stranded demand on the entry.
func (e *Engine) strandFlows(lc *liveEntry, cond func(fabric.FlowKey) bool) bool {
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
		if o := e.obs; o != nil {
			o.FlowsStranded.Inc()
			o.StrandedBytes.Add(b)
		}
	}
	return any
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
	putF(e.now)
	putU(uint64(len(e.plan)))
	plan := append([]core.Reservation(nil), e.plan...)
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

// sortedIDs returns the live map's keys ascending.
func sortedIDs(live map[int]*liveEntry) []int {
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
