// Package jobreg is the job registry and the job lifecycle shared by
// the partition engine (internal/service) and the cluster coordinator
// (internal/cluster).
//
// Registry does ID allocation, lookup by ID, and bounded retention of
// finished jobs. It is generic over the job type and knows nothing of
// the lifecycle: its owner decides when a job is accepted (Add) and
// when it is terminal (Finish), and keeps its own lock for intake
// decisions such as a closed check; the registry's lock only guards the
// table itself, so callers may hold theirs around it.
//
// Lifecycle is the state machine both owners' job types embed: the five
// states, the job's context, its Done channel, and a terminal-wins
// Finish that releases the context.
package jobreg

import (
	"fmt"
	"sync"
)

// Registry maps job IDs to jobs of type J.
type Registry[J any] struct {
	// limit bounds how many terminal jobs stay queryable; the oldest
	// are forgotten first.
	limit int

	mu       sync.Mutex
	seq      int64
	jobs     map[string]J
	finished []string // terminal job IDs, oldest first
}

// New returns an empty registry retaining at most limit finished jobs.
func New[J any](limit int) *Registry[J] {
	return &Registry[J]{limit: limit, jobs: make(map[string]J)}
}

// NextID allocates the next ID as prefix-N. Every prefix draws on the
// same counter, so a "batch-N" never shares its N with a "cjob-N".
func (r *Registry[J]) NextID(prefix string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return fmt.Sprintf("%s-%d", prefix, r.seq)
}

// Seq returns the last allocated sequence number.
func (r *Registry[J]) Seq() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Advance moves the counter to at least n, so IDs allocated afterwards
// never collide with n or anything below it (journal replay).
func (r *Registry[J]) Advance(n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq = max(r.seq, n)
}

// Add registers j under id.
func (r *Registry[J]) Add(id string, j J) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs[id] = j
}

// Get returns the job registered under id.
func (r *Registry[J]) Get(id string) (J, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Finish records id as terminal and forgets the oldest terminal jobs
// beyond the retention limit, so the table cannot grow without bound.
// Call it once per job, after Add.
func (r *Registry[J]) Finish(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = append(r.finished, id)
	for len(r.finished) > r.limit {
		delete(r.jobs, r.finished[0])
		r.finished = r.finished[1:]
	}
}

// Jobs returns every registered job, in no particular order.
func (r *Registry[J]) Jobs() []J {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]J, 0, len(r.jobs))
	for _, j := range r.jobs {
		out = append(out, j)
	}
	return out
}
