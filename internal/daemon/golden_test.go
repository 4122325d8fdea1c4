package daemon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sunflow/internal/trace"
)

// goldenStream builds a seeded event stream exercising the Engine's event
// mapping: arrivals rounded to the millisecond over a short horizon, so
// several Coflows often register at the same instant; random priority
// classes; advances between arrivals; late events stamped before the clock;
// forced completions; and exact re-registrations of live and finished ids.
// With faults, it also declares a transient outage, a permanent one, two
// overlapping outages on one port and a late outage.
func goldenStream(seed int64, faults bool) []Event {
	const ports = 10
	tr := trace.Generator{Ports: ports, Coflows: 36, HorizonSec: 0.08, MaxWidth: 4, Seed: seed}.Trace()
	rng := rand.New(rand.NewSource(seed*104729 + 1))
	var evs []Event
	clock := 0.0
	for i, c := range tr.Coflows {
		flows := make([]FlowSpec, 0, len(c.Flows))
		for _, f := range c.Flows {
			flows = append(flows, FlowSpec{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes})
		}
		at := math.Round(c.Arrival*1000) / 1000
		if i%9 == 4 && clock > 0 {
			at = clock / 2 // late: stamped before the clock
		}
		reg := Event{Kind: KindRegister, At: at, Coflow: c.ID, Priority: rng.Intn(3) - 1, Flows: flows}
		evs = append(evs, reg)
		clock = math.Max(clock, at)
		switch rng.Intn(6) {
		case 0:
			clock += rng.Float64() * 0.05
			evs = append(evs, Event{Kind: KindAdvance, At: clock})
		case 1:
			evs = append(evs, reg) // client retry of an acked registration
		case 2:
			if i > 0 {
				evs = append(evs, Event{Kind: KindComplete, At: clock + 0.01, Coflow: tr.Coflows[rng.Intn(i)].ID})
			}
		case 3:
			if i > 2 {
				old := evs[rng.Intn(len(evs))]
				if old.Kind == KindRegister {
					evs = append(evs, old) // re-registration of an earlier id, possibly finished
				}
			}
		}
		if faults {
			switch i {
			case 6:
				evs = append(evs, Event{Kind: KindFault, At: clock + 0.002, Port: rng.Intn(ports), Duration: 0.4})
			case 12:
				p := rng.Intn(ports)
				evs = append(evs,
					Event{Kind: KindFault, At: clock + 0.001, Port: p, Duration: 0.5},
					Event{Kind: KindFault, At: clock + 0.2, Port: p, Duration: 0.6})
			case 20:
				evs = append(evs, Event{Kind: KindFault, At: clock + 0.003, Port: rng.Intn(ports)})
			case 28:
				evs = append(evs, Event{Kind: KindFault, At: clock / 3, Port: rng.Intn(ports), Duration: 2})
			}
		}
	}
	evs = append(evs, Event{Kind: KindAdvance, At: clock + 50}, Event{Kind: KindAdvance, At: 1e5})
	return evs
}

// completionsHash fingerprints every completion record, in id order.
func completionsHash(done map[int]Completion) string {
	ids := make([]int, 0, len(done))
	for id := range done {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, id := range ids {
		c := done[id]
		put(uint64(int64(id)))
		put(math.Float64bits(c.Arrival))
		put(math.Float64bits(c.Finish))
		put(math.Float64bits(c.CCT))
		put(uint64(int64(c.Switches)))
		put(flag(c.Stranded))
		put(math.Float64bits(c.Bytes))
		put(flag(c.Forced))
		h.Write([]byte(c.SpecHash))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineGoldenDigests pins the Engine's final digest and completion
// records on seeded event streams, so a refactor of the scheduling loop
// underneath the Engine is caught if it moves a single bit. The fault-free
// cases must never change; the fault cases change only with a deliberate
// change of fault semantics, recorded in CHANGES.md.
func TestEngineGoldenDigests(t *testing.T) {
	cases := []struct {
		name        string
		seed        int64
		faults      bool
		digest      string
		completions string
	}{
		{"clean-1", 1, false,
			"4131d85ffc40e31add0dfd20a0e4ff9d91010c99ca5a41c3f226498f27a131c8",
			"a870c745793c6e705ccc8f17408077e3b60b2b6d26c371cf2afbae795a717473"},
		{"clean-2", 2, false,
			"a862f49d9b7ba63f5b8f9c98ebb8fc88c3e46dc6153d26d911ed80cd68cbffba",
			"33dc1d3b04ba5d8673b9d111a4e0d4f92265543fc3cc3c4ad580572c7307e1c9"},
		{"clean-3", 3, false,
			"70ef584395b13dc24efc036f193a773b2944da2880c8b8b347f365e7e331d22d",
			"599408483c172940ce3d634da4fe2ce30bfa77feada9f077f4d9caf5a080dde4"},
		{"faults-4", 4, true,
			"f0f1852873fb1261269e383623595623a84c1a9a2e022e7d39f46b0b11b222d7",
			"e01b9dbf5358e32bfb6c55eaf2629e12befb292a4a94d70482d89b0dc1a6502b"},
		{"faults-5", 5, true,
			"afaf4d718b88b008b017eec93d8aeb75906db3a8359833f35681141286abf532",
			"0b1ff6db84ee4a31ee7bbcdd361e14394a9e4a25575a923cc813d23ff1c53960"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(EngineConfig{Ports: 10, LinkBps: 1e9, Delta: 0.01}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range goldenStream(tc.seed, tc.faults) {
				_, _ = e.Apply(ev) // rejections fold into the digest too
			}
			if e.LiveCount() != 0 {
				t.Errorf("%d coflows still live at t=%v", e.LiveCount(), e.Now())
			}
			if got := e.Digest(); got != tc.digest {
				t.Errorf("digest = %s, want %s", got, tc.digest)
			}
			if got := completionsHash(e.Completions()); got != tc.completions {
				t.Errorf("completions hash = %s, want %s", got, tc.completions)
			}
		})
	}
}
