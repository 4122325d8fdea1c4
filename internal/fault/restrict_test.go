package fault

import (
	"math"
	"reflect"
	"testing"
)

// restrictPlan compiles twice so one model can be restricted and compared
// against its untouched twin (compilation is deterministic in the seed).
func restrictPlan(t *testing.T) (full, restricted *Model) {
	t.Helper()
	plan := &Plan{
		Seed:          7,
		TransientRate: 1.5, MeanOutage: 0.3, Horizon: 8,
		PortFailures:     []PortFailure{{Port: 2, At: 0.5}, {Port: 5, At: 0.3}},
		SetupFailProb:    0.4,
		DegradedLinkProb: 0.3,
		StragglerProb:    0.3,
	}
	var err error
	if full, err = plan.Compile(6); err != nil {
		t.Fatalf("compile: %v", err)
	}
	if restricted, err = plan.Compile(6); err != nil {
		t.Fatalf("compile: %v", err)
	}
	return full, restricted
}

func TestRestrictPorts(t *testing.T) {
	full, m := restrictPlan(t)
	kept := func(p int) bool { return p < 3 }
	m.RestrictPorts(kept)

	for p := 0; p < 6; p++ {
		if kept(p) {
			if !reflect.DeepEqual(m.Outages(p), full.Outages(p)) {
				t.Errorf("port %d: outages changed by restriction", p)
			}
			if m.PermanentFrom(p) != full.PermanentFrom(p) {
				t.Errorf("port %d: permanent-from changed by restriction", p)
			}
			continue
		}
		if len(m.Outages(p)) != 0 {
			t.Errorf("dropped port %d still has %d outages", p, len(m.Outages(p)))
		}
		if !math.IsInf(m.PermanentFrom(p), 1) {
			t.Errorf("dropped port %d still permanently fails at %v", p, m.PermanentFrom(p))
		}
		for _, at := range []float64{0, 0.4, 1, 5, 100} {
			if m.Down(p, at) {
				t.Errorf("dropped port %d reports down at t=%v", p, at)
			}
		}
	}

	// Port 2's permanent failure is kept, so the model stays permanent.
	if !m.AnyPermanent() {
		t.Error("restriction to {0,1,2} lost the permanent failure on port 2")
	}

	// The boundary walk must visit exactly the kept ports' outage edges.
	want := map[float64]bool{}
	for p := 0; p < 3; p++ {
		for _, o := range full.Outages(p) {
			want[o.Start] = true
			if !o.Permanent() {
				want[o.End] = true
			}
		}
	}
	got := map[float64]bool{}
	for b := m.NextBoundary(math.Inf(-1)); !math.IsInf(b, 1); b = m.NextBoundary(b) {
		got[b] = true
		down, up := m.BoundariesAt(b)
		for _, o := range append(down, up...) {
			if !kept(o.Port) {
				t.Errorf("boundary %v reports dropped port %d", b, o.Port)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("boundary walk visited %d instants, want %d", len(got), len(want))
	}

	// Per-pair draws on kept ports are untouched: rate factors and setup
	// outcome sequences (the attempts counter is per coflow and pair) match
	// the unrestricted model draw for draw.
	for cid := 0; cid < 4; cid++ {
		for src := 0; src < 3; src++ {
			for dst := 0; dst < 3; dst++ {
				if m.RateFactor(cid, src, dst) != full.RateFactor(cid, src, dst) {
					t.Fatalf("rate factor diverged for coflow %d pair (%d,%d)", cid, src, dst)
				}
				for i := 0; i < 3; i++ {
					a := m.Setup(cid, src, dst, 0.5, 0.01)
					b := full.Setup(cid, src, dst, 0.5, 0.01)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("setup draw %d diverged for coflow %d pair (%d,%d): %+v vs %+v", i, cid, src, dst, a, b)
					}
				}
			}
		}
	}
}

func TestRestrictPortsDropAllAndNil(t *testing.T) {
	_, m := restrictPlan(t)
	m.RestrictPorts(func(int) bool { return false })
	if m.AnyPermanent() {
		t.Error("empty restriction kept a permanent failure")
	}
	if b := m.NextBoundary(math.Inf(-1)); !math.IsInf(b, 1) {
		t.Errorf("empty restriction kept boundary %v", b)
	}
	var nilModel *Model
	nilModel.RestrictPorts(func(int) bool { return true }) // must not panic
}

// TestAddOutageMatchesCompile: adding outages one at a time to an empty
// model yields the same merged outages, permanent starts and boundary index
// as compiling them all at once.
func TestAddOutageMatchesCompile(t *testing.T) {
	fs := []PortFailure{
		{Port: 1, At: 1, Duration: 2},
		{Port: 1, At: 2.5, Duration: 2}, // overlaps the first: merges to [1, 4.5)
		{Port: 3, At: 0.5, Duration: 0.1},
		{Port: 3, At: 2},                // permanent
		{Port: 3, At: 5, Duration: 1},   // swallowed by the permanent failure
		{Port: 0, At: 4.5, Duration: 1}, // shares a boundary with port 1
	}
	want, err := (&Plan{PortFailures: fs}).Compile(4)
	if err != nil {
		t.Fatal(err)
	}
	got := NewModel(4)
	for _, f := range fs {
		if err := got.AddOutage(f.outage()); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 4; p++ {
		if !reflect.DeepEqual(got.Outages(p), want.Outages(p)) {
			t.Errorf("port %d: outages %v, compiled %v", p, got.Outages(p), want.Outages(p))
		}
		if got.PermanentFrom(p) != want.PermanentFrom(p) {
			t.Errorf("port %d: permanent from %v, compiled %v", p, got.PermanentFrom(p), want.PermanentFrom(p))
		}
	}
	if !got.AnyPermanent() {
		t.Error("permanent outage lost")
	}
	for at := 0.0; !math.IsInf(at, 1); at = want.NextBoundary(at) {
		if b := got.NextBoundary(at); b != want.NextBoundary(at) {
			t.Errorf("NextBoundary(%v) = %v, compiled %v", at, b, want.NextBoundary(at))
		}
	}
	if s := got.Setup(1, 0, 1, 1, 0.01); !s.Established || s.Setup != 0.01 {
		t.Errorf("empty model failed a setup: %+v", s)
	}
	if f := got.RateFactor(1, 0, 1); f != 1 {
		t.Errorf("empty model degrades a link: factor %v", f)
	}
	if err := got.AddOutage(Outage{Port: 4, Start: 1, End: 2}); err == nil {
		t.Error("out-of-range port accepted")
	}
}
