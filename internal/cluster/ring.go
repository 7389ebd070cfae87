// Package cluster is the coordinator tier that scales igpartd out: a
// consistent-hash ring that routes jobs to N backends by the same
// content address that memoizes results (SHA-256 of the netlist's
// CanonicalBytes — so each backend's result cache shards naturally,
// with zero invalidation protocol), a backend client with health
// probing, a failover policy that resubmits work whose backend died,
// and a durable fsync'd job journal replayed on boot so a coordinator
// restart loses no accepted work.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// replicas is the virtual-node count per backend. 128 vnodes keep
// per-backend key shares within a few tens of percent of even while the
// ring stays small enough to rebuild on every topology change (rebuilds
// happen on membership reloads, which are operator actions, not
// hot-path events).
const replicas = 128

// Ring is an immutable consistent-hash ring over named backends. Keys
// and virtual nodes share one hash space; a key belongs to the first
// vnode clockwise from its hash. Immutability is deliberate: the
// backend set is configuration, so routing is a pure function and two
// coordinators with the same -backends flag route identically.
type Ring struct {
	names  []string // distinct backend names, insertion order
	hashes []uint64 // sorted vnode positions
	owners []string // owners[i] owns hashes[i]
}

// NewRing builds a ring with replicas virtual nodes per backend.
// Backend names must be non-empty and distinct — they are the ring's
// identity, so a duplicate would silently double one backend's share.
func NewRing(names []string) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one backend")
	}
	seen := make(map[string]bool, len(names))
	r := &Ring{
		names:  append([]string(nil), names...),
		hashes: make([]uint64, 0, len(names)*replicas),
		owners: make([]string, 0, len(names)*replicas),
	}
	type vnode struct {
		h     uint64
		owner string
	}
	vnodes := make([]vnode, 0, len(names)*replicas)
	for _, name := range names {
		if name == "" {
			return nil, fmt.Errorf("cluster: empty backend name")
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate backend name %q", name)
		}
		seen[name] = true
		for i := 0; i < replicas; i++ {
			vnodes = append(vnodes, vnode{ringHash(fmt.Sprintf("%s#%d", name, i)), name})
		}
	}
	sort.Slice(vnodes, func(a, b int) bool { return vnodes[a].h < vnodes[b].h })
	for _, v := range vnodes {
		r.hashes = append(r.hashes, v.h)
		r.owners = append(r.owners, v.owner)
	}
	return r, nil
}

// ringHash positions a vnode or key: the first 8 bytes of SHA-256.
// SHA-256 (rather than FNV) because vnode labels are short and highly
// structured — a weak hash clumps them and skews the shares.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Backends returns the backend names in configuration order.
func (r *Ring) Backends() []string { return append([]string(nil), r.names...) }

// Owner returns the backend the key routes to first.
func (r *Ring) Owner(key string) string { return r.owners[r.succ(key)] }

// Route returns every backend in failover order for the key: the owner
// first, then each further backend in the order their vnodes appear
// clockwise from the key. The order is deterministic per key, so a
// resubmitted job lands on the same secondary from any coordinator.
func (r *Ring) Route(key string) []string {
	out := make([]string, 0, len(r.names))
	seen := make(map[string]bool, len(r.names))
	for i, start := 0, r.succ(key); len(out) < len(r.names) && i < len(r.hashes); i++ {
		owner := r.owners[(start+i)%len(r.hashes)]
		if !seen[owner] {
			seen[owner] = true
			out = append(out, owner)
		}
	}
	return out
}

// MovedKeys estimates ring churn between two topologies: of n
// synthetic keys, how many route to a different owner on after than on
// before. For a consistent-hash ring the expectation is n·(share of
// the ring the changed backends own) — adding one node to a fleet of k
// moves about n/(k+1) keys, never a full rehash. The key stream is
// fixed, so the estimate is deterministic.
func MovedKeys(before, after *Ring, n int) int {
	moved := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("movedkeys-sample-%d", i)
		if before.Owner(key) != after.Owner(key) {
			moved++
		}
	}
	return moved
}

// succ returns the index of the key's successor vnode.
func (r *Ring) succ(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return i
}
