package cluster

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
)

// keys returns n distinct routing keys shaped like production ones:
// hex SHA-256 content addresses.
func testKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("netlist-%d", i))))
	}
	return out
}

func backendNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("b%d", i)
	}
	return out
}

// Distribution balance: with the default vnode count, every backend's
// key share stays within a factor of the even split across fleet sizes
// 2–8. Consistent hashing is not perfectly uniform, but a share
// outside [0.5, 1.6]× of even means the vnode count or hash is broken.
func TestRingBalance(t *testing.T) {
	keys := testKeys(20000)
	for n := 2; n <= 8; n++ {
		r, err := NewRing(backendNames(n))
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int)
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		mean := float64(len(keys)) / float64(n)
		for _, name := range backendNames(n) {
			share := float64(counts[name]) / mean
			if share < 0.5 || share > 1.6 {
				t.Errorf("n=%d: backend %s owns %d keys, %.2fx the even share", n, name, counts[name], share)
			}
		}
	}
}

// Minimal key movement: removing one backend moves exactly the keys it
// owned — every key owned by a survivor keeps its owner. This is the
// property that makes the ring a cache-sharding function: a node death
// does not reshuffle (and so does not cold-start) the rest of the
// fleet's caches.
func TestRingMinimalMovement(t *testing.T) {
	keys := testKeys(10000)
	names := backendNames(5)
	before, err := NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	const removed = "b2"
	var survivors []string
	for _, n := range names {
		if n != removed {
			survivors = append(survivors, n)
		}
	}
	after, err := NewRing(survivors)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, k := range keys {
		was := before.Owner(k)
		now := after.Owner(k)
		if was == removed {
			moved++
			continue
		}
		if was != now {
			t.Fatalf("key %s moved %s -> %s though %s survived", k[:12], was, now, was)
		}
	}
	if moved == 0 {
		t.Fatal("removed backend owned no keys; balance test should have caught this")
	}
}

// Deterministic routing: two independently built rings over the same
// backend list route every key identically, and the full failover
// order is stable — the property that lets any coordinator (or a
// rebooted one) route a resubmission to the same secondary.
func TestRingDeterministicRouting(t *testing.T) {
	names := backendNames(4)
	r1, _ := NewRing(names)
	r2, _ := NewRing(names)
	for _, k := range testKeys(500) {
		o1, o2 := r1.Route(k), r2.Route(k)
		if len(o1) != len(names) || len(o2) != len(names) {
			t.Fatalf("route for %s covers %d/%d backends", k[:12], len(o1), len(o2))
		}
		seen := make(map[string]bool)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("rings disagree on %s: %v vs %v", k[:12], o1, o2)
			}
			if seen[o1[i]] {
				t.Fatalf("route for %s repeats backend %s", k[:12], o1[i])
			}
			seen[o1[i]] = true
		}
		if o1[0] != r1.Owner(k) {
			t.Fatalf("Route[0]=%s but Owner=%s", o1[0], r1.Owner(k))
		}
	}
}

func TestRingRejectsBadConfig(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Error("duplicate backend name accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Error("empty backend name accepted")
	}
}

func TestParseBackends(t *testing.T) {
	bs, err := ParseBackends("http://h1:8080, n2=http://h2:9090/ ,h3:7070")
	if err != nil {
		t.Fatal(err)
	}
	want := []Backend{
		{Name: "b0", URL: "http://h1:8080"},
		{Name: "n2", URL: "http://h2:9090"},
		{Name: "b2", URL: "http://h3:7070"},
	}
	if len(bs) != len(want) {
		t.Fatalf("got %d backends, want %d", len(bs), len(want))
	}
	for i := range want {
		if bs[i] != want[i] {
			t.Errorf("backend %d = %+v, want %+v", i, bs[i], want[i])
		}
	}
	if _, err := ParseBackends(" , "); err == nil {
		t.Error("empty spec accepted")
	}
}

// Duplicate backend names are a typed error from ParseBackends — a
// silent duplicate would double one backend's ring share, so both the
// explicit-name and positional-name collision shapes must be caught.
func TestParseBackendsRejectsDuplicates(t *testing.T) {
	cases := []string{
		"a=http://h1,a=http://h2",          // explicit vs explicit
		"b1=http://h1,http://h2",           // explicit vs positional (entry 1 auto-names b1)
		"http://h1,b0=http://h2",           // positional vs explicit
		"http://h1,http://h2,b1=http://h3", // positional vs later explicit
	}
	for _, spec := range cases {
		if _, err := ParseBackends(spec); !errors.Is(err, ErrDuplicateBackend) {
			t.Errorf("ParseBackends(%q) = %v, want ErrDuplicateBackend", spec, err)
		}
	}
	// Distinct names sharing a URL are fine — that is a deployment
	// choice (weighting), not a config typo.
	if _, err := ParseBackends("a=http://h1,b=http://h1"); err != nil {
		t.Errorf("shared URL rejected: %v", err)
	}
}

// MovedKeys is the membership-change churn estimator: identical rings
// move nothing, adding one node to k moves about 1/(k+1) of the keys,
// and the sample is deterministic call to call.
func TestMovedKeysEstimatesChurn(t *testing.T) {
	r2, err := NewRing([]string{"b0", "b1"})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := NewRing([]string{"b0", "b1", "b2"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	if moved := MovedKeys(r2, r2, n); moved != 0 {
		t.Fatalf("identical rings moved %d keys", moved)
	}
	moved := MovedKeys(r2, r3, n)
	if moved == 0 || moved > n/2 {
		t.Fatalf("2->3 backends moved %d/%d keys, want roughly a third", moved, n)
	}
	if again := MovedKeys(r2, r3, n); again != moved {
		t.Fatalf("estimate not deterministic: %d then %d", moved, again)
	}
}
