package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"igpart/internal/jobreg"
	"igpart/internal/obs"
)

func TestLatestLease(t *testing.T) {
	base := time.Unix(1000, 0)
	recs := []Record{
		{T: "accept", Job: "cjob-1"},
		{T: "lease", Term: 1, Owner: "a", Deadline: base.UnixNano()},
		{T: "lease", Term: 2, Owner: "b", Deadline: base.Add(time.Second).UnixNano()},
		// A renewal of term 2 pushes the deadline without a new term.
		{T: "lease", Term: 2, Owner: "b", Deadline: base.Add(3 * time.Second).UnixNano()},
		{T: "done", Job: "cjob-1"},
	}
	l, ok := LatestLease(recs)
	if !ok {
		t.Fatal("no lease found")
	}
	if l.Term != 2 || l.Owner != "b" {
		t.Fatalf("lease = %+v, want term 2 owner b", l)
	}
	if !l.Deadline.Equal(base.Add(3 * time.Second)) {
		t.Fatalf("deadline %v, want the renewed one", l.Deadline)
	}
	if _, ok := LatestLease([]Record{{T: "accept", Job: "x"}}); ok {
		t.Fatal("lease found in a lease-free record set")
	}
}

func TestTakeLeadershipColdStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, recs, lease, err := TakeLeadership(path, "owner-a", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != 0 {
		t.Fatalf("cold journal replayed %d records", len(recs))
	}
	if lease.Term != 1 || lease.Owner != "owner-a" {
		t.Fatalf("lease = %+v, want term 1 owner-a", lease)
	}
	if holder, err := readLockOwner(LockPath(path)); err != nil || holder != "owner-a" {
		t.Fatalf("lock holder = %q (%v), want owner-a", holder, err)
	}
	// The lease is durably in the journal, visible to a read-only peek.
	got, ok, err := peekLease(path)
	if err != nil || !ok || got.Term != 1 {
		t.Fatalf("peekLease = %+v ok=%v err=%v", got, ok, err)
	}
}

func TestTakeLeadershipHeldByLiveLeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	// A live remote leader: unexpired lease, lock naming another host
	// (so the pid liveness check cannot break it).
	j, _, _, err := TakeLeadership(path, "otherhost/4242", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, _, _, err = TakeLeadership(path, "owner-b", time.Second)
	if !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("err = %v, want ErrLeaseHeld", err)
	}
}

func TestTakeLeadershipAfterLeaseExpiry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, l1, err := TakeLeadership(path, "otherhost/4242", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("cjob-1", "", "k", []byte(`{"seed":1}`)); err != nil {
		t.Fatal(err)
	}
	j.Close() // crash: the lock file stays behind
	time.Sleep(80 * time.Millisecond)

	j2, recs, l2, err := TakeLeadership(path, "owner-b", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if l2.Term != l1.Term+1 {
		t.Fatalf("term %d, want fenced successor term %d", l2.Term, l1.Term+1)
	}
	if un := Unfinished(recs); len(un) != 1 || un[0].Job != "cjob-1" {
		t.Fatalf("unfinished = %+v, want the crashed leader's accept", un)
	}
	if holder, _ := readLockOwner(LockPath(path)); holder != "owner-b" {
		t.Fatalf("lock holder = %q after takeover", holder)
	}
}

// A same-host holder whose process provably died is takeable even
// before the lease expires.
func TestTakeLeadershipDeadSameHostHolder(t *testing.T) {
	cmd := exec.Command("true")
	if err := cmd.Run(); err != nil {
		t.Skipf("cannot spawn helper process: %v", err)
	}
	deadPid := cmd.Process.Pid
	host, err := os.Hostname()
	if err != nil {
		t.Skipf("no hostname: %v", err)
	}
	deadOwner := fmt.Sprintf("%s/%d", host, deadPid)

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, _, err := TakeLeadership(path, deadOwner, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, _, lease, err := TakeLeadership(path, "owner-b", time.Second)
	if err != nil {
		t.Fatalf("dead same-host holder not broken: %v", err)
	}
	defer j2.Close()
	if lease.Term != 2 {
		t.Fatalf("term = %d, want 2", lease.Term)
	}
}

// A gracefully-stopped leader releases its lock; the unexpired lease
// alone must not block the successor.
func TestTakeLeadershipAfterGracefulRelease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, _, err := TakeLeadership(path, "otherhost/4242", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	releaseLock(LockPath(path), "otherhost/4242")

	j2, _, lease, err := TakeLeadership(path, "owner-b", time.Second)
	if err != nil {
		t.Fatalf("released lock not takeable: %v", err)
	}
	defer j2.Close()
	if lease.Term != 2 {
		t.Fatalf("term = %d, want 2", lease.Term)
	}
}

// The leader renews its lease on a cadence and releases the lock on a
// clean shutdown.
func TestLeaseRenewalAndRelease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, lease, err := TakeLeadership(path, LeaseOwnerID(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	reg := new(obs.Registry)
	c, _, _ := testCluster(t, Config{
		Journal: j,
		Metrics: reg,
		HA:      &HAConfig{Lease: lease, TTL: 150 * time.Millisecond, LockPath: LockPath(path)},
	})
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("cluster.lease.renewals").Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("renewals = %d after 5s", reg.Counter("cluster.lease.renewals").Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(LockPath(path)); !os.IsNotExist(err) {
		t.Fatalf("lock not released on clean shutdown: %v", err)
	}
	// The renewed lease (same term, later deadline) is on disk.
	got, ok, err := peekLease(path)
	if err != nil || !ok {
		t.Fatalf("peekLease: %v ok=%v", err, ok)
	}
	if got.Term != lease.Term || !got.Deadline.After(lease.Deadline) {
		t.Fatalf("lease on disk %+v not a renewal of %+v", got, lease)
	}
}

// A leader whose lock stops naming it has been fenced out by a standby
// and must depose itself instead of double-serving.
func TestLeaseFencingDeposesLeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, lease, err := TakeLeadership(path, LeaseOwnerID(), 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	reg := new(obs.Registry)
	c, _, _ := testCluster(t, Config{
		Journal: j,
		Metrics: reg,
		HA:      &HAConfig{Lease: lease, TTL: 60 * time.Millisecond, LockPath: LockPath(path)},
	})
	// A standby fences us: the lock now names someone else.
	if err := os.WriteFile(LockPath(path), []byte("usurper/1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("cluster.lease.lost").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never noticed it was fenced out")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Submit("fenced-key", seedBody(1)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("deposed leader accepted a job (err = %v)", err)
	}
}

// Standby takeover end to end: the leader journals accepted work and
// crashes; the standby, tailing the same journal, claims leadership
// once the lease lapses and walks away with exactly the unfinished set.
func TestStandbyTakeoverAfterLeaderCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, l1, err := TakeLeadership(path, "otherhost/4242", 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Accept(fmt.Sprintf("cjob-%d", i), "", fmt.Sprintf("k%d", i), seedBody(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Complete("cjob-2", jobreg.StateDone); err != nil {
		t.Fatal(err)
	}

	reg := new(obs.Registry)
	stb := NewStandby(StandbyConfig{Path: path, Owner: "owner-b", TTL: 200 * time.Millisecond, Poll: 10 * time.Millisecond, Metrics: reg})
	// Warm up while the leader is alive: the standby must already hold
	// the replay set before any takeover.
	deadline := time.Now().Add(5 * time.Second)
	for stb.Status().Unfinished != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("standby never warmed: %+v", stb.Status())
		}
		stb.refresh()
		time.Sleep(5 * time.Millisecond)
	}
	j.Close() // leader crashes; its lock file remains

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j2, recs, l2, err := stb.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if l2.Term != l1.Term+1 || l2.Owner != "owner-b" {
		t.Fatalf("takeover lease = %+v, want term %d owner-b", l2, l1.Term+1)
	}
	un := Unfinished(recs)
	if len(un) != 2 || un[0].Job != "cjob-1" || un[1].Job != "cjob-3" {
		t.Fatalf("replay set = %+v, want cjob-1 and cjob-3", un)
	}
	if got := reg.Counter("cluster.standby.takeovers").Value(); got != 1 {
		t.Fatalf("takeovers = %d", got)
	}
}

// While the leader keeps renewing, the standby stays a standby.
func TestStandbyWaitsOutLiveLeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, _, err := TakeLeadership(path, "otherhost/4242", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	reg := new(obs.Registry)
	stb := NewStandby(StandbyConfig{Path: path, Owner: "owner-b", TTL: time.Hour, Poll: 5 * time.Millisecond, Metrics: reg})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, _, _, err := stb.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("standby returned %v while the lease was live", err)
	}
	if got := reg.Counter("cluster.standby.takeovers").Value(); got != 0 {
		t.Fatalf("takeovers = %d, want 0", got)
	}
}

// Takeover racing compaction: the standby's byte offset points into a
// journal that the (re)booting leader just compacted — a smaller file
// renamed over the path. The tailer must detect the rewrite, rebuild
// from byte zero, and still produce the correct replay set.
func TestStandbyTailSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, _, _, err := TakeLeadership(path, "otherhost/4242", 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Plenty of completed bulk so compaction shrinks the file.
	for i := 1; i <= 20; i++ {
		id := fmt.Sprintf("cjob-%d", i)
		if err := j.Accept(id, "", "k", seedBody(int64(i))); err != nil {
			t.Fatal(err)
		}
		if i != 7 {
			if err := j.Complete(id, jobreg.StateDone); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg := new(obs.Registry)
	stb := NewStandby(StandbyConfig{Path: path, Owner: "owner-b", TTL: 150 * time.Millisecond, Poll: 5 * time.Millisecond, Metrics: reg})
	stb.refresh()
	if st := stb.Status(); st.Records < 40 {
		t.Fatalf("standby warmed only %d records pre-compaction", st.Records)
	}
	j.Close()

	// The successor's boot compacts: rename a much smaller file over
	// the path, exactly what OpenJournal does.
	jb, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jb.Close()
	if len(recs) >= 40 {
		t.Fatalf("boot did not compact (%d records)", len(recs))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j2, recs2, lease, err := stb.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if reg.Counter("cluster.standby.resets").Value() == 0 {
		t.Fatal("tailer never reset across the compaction rewrite")
	}
	un := Unfinished(recs2)
	if len(un) != 1 || un[0].Job != "cjob-7" {
		t.Fatalf("replay set after compaction race = %+v, want cjob-7", un)
	}
	if lease.Term != 2 {
		t.Fatalf("term = %d, want 2", lease.Term)
	}
}
