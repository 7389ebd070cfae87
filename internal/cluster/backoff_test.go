package cluster

import (
	"hash/fnv"
	"testing"
	"time"
)

func TestBackoffDelayFunction(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	prevCap := time.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		d := backoffDelay(attempt, base, max, 12345)
		// Uncapped ideal for this attempt.
		ideal := base
		for i := 1; i < attempt && ideal < max; i++ {
			ideal *= 2
		}
		if ideal > max {
			ideal = max
		}
		if d < ideal/2 || d >= ideal {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, ideal/2, ideal)
		}
		if ideal < prevCap {
			t.Fatalf("attempt %d: cap shrank", attempt)
		}
		prevCap = ideal
	}
	// Capped: attempts far out never exceed max.
	if d := backoffDelay(50, base, max, 1); d >= max {
		t.Fatalf("attempt 50: delay %v not capped below %v", d, max)
	}
	// Deterministic per seed, varies across seeds.
	if backoffDelay(3, base, max, 7) != backoffDelay(3, base, max, 7) {
		t.Fatal("same seed gave different delays")
	}
	varies := false
	for seed := uint64(0); seed < 16; seed++ {
		if backoffDelay(3, base, max, seed) != backoffDelay(3, base, max, seed+100) {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("jitter never varies across seeds")
	}
}

// jitterSeed is FNV-1a; hash/fnv is the independent oracle.
func TestJitterSeedIsFNV1a(t *testing.T) {
	for _, id := range []string{"", "job-1", "cjob-4096", "batch-17"} {
		h := fnv.New64a()
		h.Write([]byte(id))
		if got, want := jitterSeed(id), h.Sum64(); got != want {
			t.Errorf("jitterSeed(%q) = %#x, want %#x", id, got, want)
		}
	}
}
