package main

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"sunflow/internal/obs/span"
	"sunflow/internal/sim"
	"sunflow/internal/trace"
)

var smallGen = trace.Generator{Ports: 16, Coflows: 40, HorizonSec: 20, MaxWidth: 6, Seed: 3}

func smallTrace(t *testing.T, seed int64) []byte {
	t.Helper()
	text, err := buildTrace(smallGen, seed)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// runPlain simulates the trace with no benchmark wrapper at all.
func runPlain(t *testing.T, text []byte) (string, sim.Result) {
	t.Helper()
	sc, err := openTrace(text)
	if err != nil {
		t.Fatal(err)
	}
	var dig sim.ArchiveDigest
	res, err := sim.RunCircuitSource(sc.Coflows(), sim.CircuitOptions{
		Ports: sc.Ports(), LinkBps: linkBps, Delta: deltaSec, OnArchive: dig.Add,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dig.Sum(), res
}

// The timing wrappers must not change what the simulator computes, whether
// they record spans or not.
func TestWrappersPassThroughBitIdentically(t *testing.T) {
	text := smallTrace(t, 7)
	cs, err := readCoflows(text)
	if err != nil {
		t.Fatal(err)
	}
	want, wantRes := runPlain(t, text)
	prof := span.New(span.Options{Tree: true})
	for name, st := range map[string]*span.Stack{"untraced": nil, "traced": prof.NewStack("")} {
		got, problems, err := simulate(text, simSpec{}, demands(cs), st, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(problems) > 0 {
			t.Fatalf("%s: %v", name, problems)
		}
		if got.digest != want {
			t.Errorf("%s digest %s, unwrapped %s", name, got.digest, want)
		}
		if got.res.Events != wantRes.Events {
			t.Errorf("%s: %d events, unwrapped %d", name, got.res.Events, wantRes.Events)
		}
		// One gap per pull (each coflow, then end of stream) plus the drain.
		if len(got.gaps) != len(cs)+2 {
			t.Errorf("%s: %d gaps for %d coflows", name, len(got.gaps), len(cs))
		}
		var sum float64
		for _, g := range got.gaps {
			sum += g
		}
		if sum > got.wall*(1+1e-9) {
			t.Errorf("%s: gaps sum to %v s, wall %v s", name, sum, got.wall)
		}
	}
	if roots := prof.Roots(); len(roots) != 1 || roots[0].Name != "sim.run" {
		t.Fatalf("traced run left %d roots", len(roots))
	}
}

// timedSource yields exactly the coflows of the source it wraps.
func TestTimedSourceYieldsSameCoflows(t *testing.T) {
	text := smallTrace(t, 7)
	want, err := readCoflows(text)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := openTrace(text)
	if err != nil {
		t.Fatal(err)
	}
	src := &timedSource{src: sc.Coflows()}
	for i := 0; ; i++ {
		c, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			if i != len(want) || src.n != len(want) {
				t.Fatalf("stream ended after %d coflows (counted %d), want %d", i, src.n, len(want))
			}
			break
		}
		if !reflect.DeepEqual(c, want[i]) {
			t.Fatalf("coflow %d differs through the wrapper", i)
		}
	}
}

func TestPortPerm(t *testing.T) {
	id := portPerm(ports, canonicalSeed)
	for i, p := range id {
		if p != i {
			t.Fatalf("canonical seed must keep port labels: perm[%d] = %d", i, p)
		}
	}
	p := append([]int(nil), portPerm(ports, 42)...)
	if reflect.DeepEqual(p, id) {
		t.Error("seed 42 left the labels unchanged")
	}
	sort.Ints(p)
	if !reflect.DeepEqual(p, id) {
		t.Error("seed 42 is not a permutation")
	}
}

// At the canonical seed the trace text is the generator's own output, which
// is what ties the paper golden digest to cmd/sunflow-scale.
func TestCanonicalTraceIsGeneratorOutput(t *testing.T) {
	var want bytes.Buffer
	ports, jobs := smallGen.Jobs()
	if err := trace.WriteJobs(&want, ports, jobs); err != nil {
		t.Fatal(err)
	}
	if got := smallTrace(t, canonicalSeed); !bytes.Equal(got, want.Bytes()) {
		t.Error("canonical-seed trace differs from trace.WriteJobs(Generator.Jobs())")
	}
	if bytes.Equal(smallTrace(t, 2), want.Bytes()) {
		t.Error("seed 2 produced the canonical trace")
	}
}
