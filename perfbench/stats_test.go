package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	d := newDist(xs)
	for _, c := range []struct {
		q, want float64
		beyond  int
	}{
		{0.5, 50, 50},
		{0.99, 99, 1},
		{0.9, 90, 10},
		{1, 100, 0},
		{0, 1, 99},
	} {
		if got := d.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := d.beyond(d.quantile(c.q)); got != c.beyond {
			t.Errorf("beyond(quantile(%v)) = %d, want %d", c.q, got, c.beyond)
		}
	}
	if xs[0] != 100 {
		t.Error("newDist reordered its input")
	}
	if got := d.mean(); got != 50.5 {
		t.Errorf("mean = %v, want 50.5", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty dist
	if !math.IsNaN(empty.quantile(0.5)) || !math.IsNaN(empty.mean()) {
		t.Error("empty dist must report NaN")
	}
	one := newDist([]float64{7})
	if one.quantile(0.01) != 7 || one.quantile(0.99) != 7 {
		t.Error("single sample must be every quantile")
	}
	if got := newDist([]float64{1, 2, 2, 2, 3}).beyond(2); got != 1 {
		t.Errorf("beyond counts ties: got %d, want 1", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// A p99 needs at least minBeyond samples above it: 1000 samples leave ten.
func TestP99SupportAtThousandSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	d := newDist(xs)
	if n := d.beyond(d.quantile(0.99)); n != minBeyond {
		t.Errorf("p99 of 1000 distinct samples leaves %d beyond, want %d", n, minBeyond)
	}
}

// The rescale factor is the median pass over nominal, and each tick times
// refPasses passes of a kernel whose output is deterministic.
func TestRefClockScale(t *testing.T) {
	c := newRefClock()
	c.tick()
	if len(c.times) != refPasses {
		t.Fatalf("one tick timed %d passes, want %d", len(c.times), refPasses)
	}
	for i := 1; i < len(c.buf); i++ {
		if c.buf[i-1] > c.buf[i] {
			t.Fatal("kernel left its buffer unsorted")
		}
	}
	c.times = []float64{3 * refNominal, refNominal, 2 * refNominal}
	if got := c.scale(); got != 2 {
		t.Errorf("scale = %v, want 2", got)
	}
}
