package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// movedSampleKeys is how many synthetic keys MovedKeys samples to
// estimate ring churn on a membership change.
const movedSampleKeys = 4096

// MembershipChange summarizes one UpdateBackends call.
type MembershipChange struct {
	Added      []string
	Removed    []string
	Suppressed []string // adds held back by the flap guard
	// MovedKeys of SampledKeys synthetic routing keys changed owner
	// between the old and new ring — the minimal-movement check.
	MovedKeys   int
	SampledKeys int
}

func (ch MembershipChange) empty() bool {
	return len(ch.Added) == 0 && len(ch.Removed) == 0 && len(ch.Suppressed) == 0
}

// UpdateBackends swaps the fleet to the given list. Added backends
// extend the ring (stealing only their consistent-hash share of the
// key space); removed backends disappear from routing while their
// in-flight jobs drain through the ordinary failover path — the
// runner's next poll or submit fails over along the ring, because pick
// no longer finds the departed client. A backend re-added within
// MinDwell of its removal is suppressed until the dwell passes
// (flapping guard): the watcher retries, so a genuinely stable return
// takes traffic after the dwell, while a flapping node never churns
// the ring.
func (c *Coordinator) UpdateBackends(backends []Backend) (MembershipChange, error) {
	var ch MembershipChange
	if len(backends) == 0 {
		return ch, errors.New("cluster: membership update lists no backends")
	}
	now := time.Now()
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	cur := make(map[string]Backend, len(c.backends))
	for _, b := range c.backends {
		cur[b.Name] = b
	}
	next := make([]Backend, 0, len(backends))
	nextSet := make(map[string]Backend, len(backends))
	for _, b := range backends {
		if _, dup := nextSet[b.Name]; dup {
			return MembershipChange{}, fmt.Errorf("%w: %q", ErrDuplicateBackend, b.Name)
		}
		if _, have := cur[b.Name]; !have {
			if left, ok := c.removed[b.Name]; ok && c.cfg.MinDwell > 0 && now.Sub(left) < c.cfg.MinDwell {
				ch.Suppressed = append(ch.Suppressed, b.Name)
				continue
			}
			ch.Added = append(ch.Added, b.Name)
		}
		nextSet[b.Name] = b
		next = append(next, b)
	}
	if len(next) == 0 {
		return MembershipChange{}, errors.New("cluster: membership update leaves no routable backends")
	}
	for name := range cur {
		if _, keep := nextSet[name]; !keep {
			ch.Removed = append(ch.Removed, name)
		}
	}
	sort.Strings(ch.Added)
	sort.Strings(ch.Removed)
	sort.Strings(ch.Suppressed)

	names := make([]string, len(next))
	for i, b := range next {
		names[i] = b.Name
	}
	ring, err := NewRing(names)
	if err != nil {
		return MembershipChange{}, err
	}
	ch.SampledKeys = movedSampleKeys
	ch.MovedKeys = MovedKeys(c.ring, ring, movedSampleKeys)

	clients := make(map[string]*client, len(next))
	for _, b := range next {
		// Keep the existing client (and its health belief) when the
		// backend is unchanged; a new URL means a new client.
		if old := c.clients[b.Name]; old != nil && old.b.URL == b.URL {
			clients[b.Name] = old
		} else {
			clients[b.Name] = newClient(b)
		}
	}
	for _, name := range ch.Removed {
		c.removed[name] = now
	}
	for _, name := range ch.Added {
		delete(c.removed, name)
	}
	c.ring, c.backends, c.clients = ring, next, clients

	c.reg.Counter("cluster.membership.reloads").Add(1)
	c.reg.Counter("cluster.membership.adds").Add(int64(len(ch.Added)))
	c.reg.Counter("cluster.membership.removes").Add(int64(len(ch.Removed)))
	c.reg.Counter("cluster.membership.flap_suppressed").Add(int64(len(ch.Suppressed)))
	if len(ch.Added)+len(ch.Removed) > 0 {
		// The gauge records the churn of the last real topology change;
		// a no-op reload (double SIGHUP, unchanged file) must not zero it.
		c.reg.Gauge("cluster.ring.moved_keys").Set(float64(ch.MovedKeys))
	}
	c.reg.Gauge("cluster.backends_total").Set(float64(len(next)))
	return ch, nil
}

// ParseBackendsFile reads a watchable backends file: one ParseBackends
// spec per line ("name=URL" or bare URL), '#' comments, blank lines
// ignored. Line order is flag order for positional b0, b1, … naming.
func ParseBackendsFile(path string) ([]Backend, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: backends file: %w", err)
	}
	var specs []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line != "" {
			specs = append(specs, line)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: backends file %s lists no backends", path)
	}
	return ParseBackends(strings.Join(specs, ","))
}

// WatchBackendsFile polls the backends file for membership changes
// until ctx ends: a changed mtime or size triggers a reload, and a
// tick on force (SIGHUP in the daemon) reloads unconditionally. A file
// that fails to parse — or a reload that would empty the fleet — is
// logged and skipped, keeping the current fleet: a half-written edit
// must never take the cluster down. While an add is flap-suppressed
// the watcher keeps retrying every interval so the backend joins as
// soon as its dwell passes.
func (c *Coordinator) WatchBackendsFile(ctx context.Context, path string, interval time.Duration, force <-chan struct{}, logf func(format string, args ...any)) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var lastMod time.Time
	var lastSize int64 = -1
	if st, err := os.Stat(path); err == nil {
		lastMod, lastSize = st.ModTime(), st.Size()
	}
	pending := false // a suppressed add waiting out its dwell
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		reload := pending
		select {
		case <-ctx.Done():
			return
		case <-force:
			reload = true
		case <-t.C:
			if st, err := os.Stat(path); err == nil && (!st.ModTime().Equal(lastMod) || st.Size() != lastSize) {
				lastMod, lastSize = st.ModTime(), st.Size()
				reload = true
			}
		}
		if !reload {
			continue
		}
		backends, err := ParseBackendsFile(path)
		if err != nil {
			c.reg.Counter("cluster.membership.reload_errors").Add(1)
			logf("cluster: backends file reload failed, keeping current fleet: %v", err)
			pending = false
			continue
		}
		ch, err := c.UpdateBackends(backends)
		if err != nil {
			c.reg.Counter("cluster.membership.reload_errors").Add(1)
			logf("cluster: membership update rejected, keeping current fleet: %v", err)
			pending = false
			continue
		}
		pending = len(ch.Suppressed) > 0
		if !ch.empty() {
			logf("cluster: membership reload: added %v removed %v flap-suppressed %v (%d/%d sampled keys moved)",
				ch.Added, ch.Removed, ch.Suppressed, ch.MovedKeys, ch.SampledKeys)
		}
	}
}
