package cluster

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"igpart/internal/jobreg"
)

// Growing and shrinking the fleet live: adds steal only their
// consistent-hash share, removes disappear from routing, and the
// metrics record the churn.
func TestUpdateBackendsAddRemove(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{MinDwell: -1})
	b2 := newFakeBackend()
	t.Cleanup(b2.srv.Close)

	fleet2 := c.Backends()
	fleet3 := append(append([]Backend(nil), fleet2...), Backend{Name: "b2", URL: b2.srv.URL})
	ch, err := c.UpdateBackends(fleet3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Added) != 1 || ch.Added[0] != "b2" || len(ch.Removed) != 0 {
		t.Fatalf("change = %+v, want add b2 only", ch)
	}
	// Minimal movement: one joiner in a fleet of three owns about a
	// third of the keys; far more than half moving means a full rehash.
	if ch.MovedKeys == 0 || ch.MovedKeys > ch.SampledKeys/2 {
		t.Fatalf("add moved %d/%d sampled keys", ch.MovedKeys, ch.SampledKeys)
	}
	if got := len(c.Ring().Backends()); got != 3 {
		t.Fatalf("ring has %d backends after add", got)
	}
	if got := c.Metrics().Gauge("cluster.backends_total").Value(); got != 3 {
		t.Fatalf("backends_total = %v", got)
	}

	// Work still lands, including on the joiner for keys it now owns.
	for seed := int64(1); seed <= 8; seed++ {
		j := mustSubmit(t, c, string(rune('a'+seed))+"-memb-key", seed)
		if snap := waitDone(t, j); snap.State != jobreg.StateDone {
			t.Fatalf("seed %d ended %s: %s", seed, snap.State, snap.Err)
		}
	}

	ch, err = c.UpdateBackends(fleet2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Removed) != 1 || ch.Removed[0] != "b2" || len(ch.Added) != 0 {
		t.Fatalf("change = %+v, want remove b2 only", ch)
	}
	if got := len(c.Ring().Backends()); got != 2 {
		t.Fatalf("ring has %d backends after remove", got)
	}
	_ = b0
	_ = b1
}

// A removed backend's in-flight jobs drain to completion on it — the
// retained client keeps polling — while new work for its keys routes
// to the survivors.
func TestUpdateBackendsDrainsInflight(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{MinDwell: -1})
	// Find a key the soon-to-be-removed b1 owns.
	key := ""
	for i := 0; i < 10000; i++ {
		k := "drain-key-" + string(rune('0'+i%10)) + "-" + time.Duration(i).String()
		if c.Ring().Owner(k) == "b1" {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key routing to b1 found")
	}
	b0.setHold(true)
	b1.setHold(true)
	j := mustSubmit(t, c, key, 7)
	deadline := time.Now().Add(5 * time.Second)
	for len(b1.seeds()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never dispatched to b1")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := c.UpdateBackends([]Backend{{Name: "b0", URL: b0.srv.URL}}); err != nil {
		t.Fatal(err)
	}
	// The departed backend finishes the held job; the coordinator is
	// still polling it through the retained client.
	b1.release(7)
	if snap := waitDone(t, j); snap.State != jobreg.StateDone || snap.Backend != "b1" {
		t.Fatalf("drained job: state %s on %s (err %s)", snap.State, snap.Backend, snap.Err)
	}

	// The same key now routes to the survivor.
	b0.setHold(false)
	j2 := mustSubmit(t, c, key, 8)
	if snap := waitDone(t, j2); snap.State != jobreg.StateDone || snap.Backend != "b0" {
		t.Fatalf("post-remove job: state %s on %s", snap.State, snap.Backend)
	}
}

// The flap guard: a backend re-added within MinDwell of its removal is
// suppressed; with the guard disabled it rejoins immediately.
func TestUpdateBackendsFlapGuard(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{MinDwell: time.Hour})
	fleet2 := c.Backends()
	only0 := []Backend{{Name: "b0", URL: b0.srv.URL}}
	if _, err := c.UpdateBackends(only0); err != nil {
		t.Fatal(err)
	}
	ch, err := c.UpdateBackends(fleet2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Suppressed) != 1 || ch.Suppressed[0] != "b1" || len(ch.Added) != 0 {
		t.Fatalf("change = %+v, want b1 flap-suppressed", ch)
	}
	if got := len(c.Ring().Backends()); got != 1 {
		t.Fatalf("suppressed backend rejoined the ring (%d backends)", got)
	}
	if got := c.Metrics().Counter("cluster.membership.flap_suppressed").Value(); got != 1 {
		t.Fatalf("flap_suppressed = %d", got)
	}
	// A reload that would leave only suppressed backends is refused
	// outright — it would empty the fleet.
	if _, err := c.UpdateBackends([]Backend{{Name: "b1", URL: b1.srv.URL}}); err == nil {
		t.Fatal("all-suppressed reload accepted")
	}

	cd, _, _ := testCluster(t, Config{MinDwell: -1})
	fleet2d := cd.Backends()
	if _, err := cd.UpdateBackends(fleet2d[:1]); err != nil {
		t.Fatal(err)
	}
	ch, err = cd.UpdateBackends(fleet2d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Added) != 1 || ch.Added[0] != "b1" || len(ch.Suppressed) != 0 {
		t.Fatalf("with the guard disabled, change = %+v, want immediate re-add", ch)
	}
}

func TestUpdateBackendsRejectsBadFleets(t *testing.T) {
	c, b0, _ := testCluster(t, Config{})
	if _, err := c.UpdateBackends(nil); err == nil {
		t.Error("empty fleet accepted")
	}
	dup := []Backend{{Name: "b0", URL: b0.srv.URL}, {Name: "b0", URL: "http://other:1"}}
	if _, err := c.UpdateBackends(dup); !errors.Is(err, ErrDuplicateBackend) {
		t.Errorf("duplicate fleet: err = %v, want ErrDuplicateBackend", err)
	}
	// Rejections leave the fleet untouched.
	if got := len(c.Ring().Backends()); got != 2 {
		t.Errorf("rejected update changed the ring (%d backends)", got)
	}
}

func TestParseBackendsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "backends.txt")
	content := "# fleet as of today\nhttp://h1:8080\n\nn2=http://h2:9090  # the big box\n  h3:7070\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	bs, err := ParseBackendsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Backend{
		{Name: "b0", URL: "http://h1:8080"},
		{Name: "n2", URL: "http://h2:9090"},
		{Name: "b2", URL: "http://h3:7070"},
	}
	if len(bs) != len(want) {
		t.Fatalf("got %+v, want %+v", bs, want)
	}
	for i := range want {
		if bs[i] != want[i] {
			t.Errorf("backend %d = %+v, want %+v", i, bs[i], want[i])
		}
	}
	if _, err := ParseBackendsFile(filepath.Join(dir, "absent.txt")); err == nil {
		t.Error("missing file accepted")
	}
	empty := filepath.Join(dir, "empty.txt")
	os.WriteFile(empty, []byte("# nothing\n\n"), 0o644)
	if _, err := ParseBackendsFile(empty); err == nil {
		t.Error("comment-only file accepted")
	}
}

// The watcher applies file edits on its poll and immediately on a
// force tick (SIGHUP in the daemon), and a broken edit keeps the
// current fleet.
func TestWatchBackendsFile(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{MinDwell: -1})
	dir := t.TempDir()
	path := filepath.Join(dir, "backends.txt")
	both := "b0=" + b0.srv.URL + "\nb1=" + b1.srv.URL + "\n"
	if err := os.WriteFile(path, []byte(both), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	force := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.WatchBackendsFile(ctx, path, 2*time.Millisecond, force, nil)
	}()
	// Let the watcher take its baseline stat of the current file before
	// editing it, or the edit can slip under the baseline unseen.
	time.Sleep(100 * time.Millisecond)

	waitFleet := func(n int, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for len(c.Ring().Backends()) != n {
			if time.Now().After(deadline) {
				t.Fatalf("%s: fleet stuck at %v", what, c.Ring().Backends())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Shrink via the poll path.
	if err := os.WriteFile(path, []byte("b0="+b0.srv.URL+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFleet(1, "poll-driven remove")

	// A half-written edit must not take the fleet down.
	if err := os.WriteFile(path, []byte("# oops, nothing here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for c.Metrics().Counter("cluster.membership.reload_errors").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("broken edit never reported")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(c.Ring().Backends()); got != 1 {
		t.Fatalf("broken edit changed the fleet (%d backends)", got)
	}

	// Grow back via the force path.
	if err := os.WriteFile(path, []byte(both), 0o644); err != nil {
		t.Fatal(err)
	}
	force <- struct{}{}
	waitFleet(2, "forced re-add")

	cancel()
	<-done
}
