package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"igpart/internal/fault"
	"igpart/internal/jobreg"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	body := json.RawMessage(`{"seed":7}`)
	for _, id := range []string{"cjob-1", "cjob-2", "cjob-3"} {
		if err := j.Accept(id, "batch-0", "key-"+id, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Complete("cjob-2", jobreg.StateDone); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// Boot-time compaction drops the completed cjob-2 pair, leaving the
	// high-water mark plus the two unfinished accepts.
	if len(recs) != 3 || recs[0].T != "mark" || recs[0].Job != "cjob-3" {
		t.Fatalf("replayed %+v, want mark(cjob-3) + 2 accepts", recs)
	}
	un := Unfinished(recs)
	if len(un) != 2 || un[0].Job != "cjob-1" || un[1].Job != "cjob-3" {
		t.Fatalf("unfinished = %+v, want cjob-1 and cjob-3", un)
	}
	if un[0].Batch != "batch-0" || string(un[0].Body) != `{"seed":7}` || un[0].Key != "key-cjob-1" {
		t.Fatalf("accept payload not preserved: %+v", un[0])
	}
}

// A torn final line — the fsync'd write was interrupted mid-crash — is
// tolerated and dropped; the journal stays usable.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("cjob-1", "", "k", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: append half a record with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"done","job":"cj`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(recs) != 1 || recs[0].Job != "cjob-1" {
		t.Fatalf("replayed %+v, want just the accept", recs)
	}
	if un := Unfinished(recs); len(un) != 1 {
		t.Fatalf("torn completion must leave the job unfinished, got %+v", un)
	}
	// The torn tail must be truncated, not just skipped: an append after
	// recovery has to start on a clean line, or the NEXT boot would see
	// mid-file corruption and refuse the journal entirely.
	if err := j2.Complete("cjob-1", jobreg.StateDone); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("journal corrupted by post-recovery append: %v", err)
	}
	defer j3.Close()
	// The completed pair compacts away; only the high-water mark remains.
	if len(recs) != 1 || recs[0].T != "mark" || recs[0].Job != "cjob-1" {
		t.Fatalf("after recovery+append replayed %+v, want just mark(cjob-1)", recs)
	}
	if un := Unfinished(recs); len(un) != 0 {
		t.Fatalf("completed job still unfinished: %+v", un)
	}
}

// A crash can also cut the write exactly between the record and its
// newline: the tail parses as JSON but was never acknowledged (Sync
// follows the full line), so it is dropped and truncated like any
// other torn tail.
func TestJournalTornTailMissingNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("cjob-1", "", "k", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"done","job":"cjob-1"}`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("newline-less tail rejected: %v", err)
	}
	if len(recs) != 1 || recs[0].T != "accept" {
		t.Fatalf("replayed %+v, want just the accept", recs)
	}
	if err := j2.Accept("cjob-2", "", "k2", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("journal corrupted by post-recovery append: %v", err)
	}
	defer j3.Close()
	if len(recs) != 2 || recs[1].Job != "cjob-2" {
		t.Fatalf("after recovery+append replayed %+v, want the two accepts", recs)
	}
}

// Garbage in the middle of the file is not a torn write — it means the
// file is not our journal, and replaying it would silently lose work.
func TestJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte("not json\n{\"t\":\"accept\",\"job\":\"cjob-1\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// Boot-time compaction must preserve the journal's two observable
// contracts: the Unfinished replay set is identical to the original's,
// and the high-water ID Recover derives (so fresh IDs never collide
// with completed jobs dropped from the file) survives via the mark.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	body := json.RawMessage(`{"nets":5}`)
	for _, id := range []string{"cjob-1", "cjob-2", "cjob-3", "cjob-4", "cjob-5"} {
		if err := j.Accept(id, "batch-1", "key-"+id, body); err != nil {
			t.Fatal(err)
		}
	}
	// Complete all but cjob-2 and cjob-4; note cjob-5 — the high-water
	// ID — is among the completed, so without the mark a recovered
	// coordinator would mint cjob-5 again.
	for _, id := range []string{"cjob-1", "cjob-3", "cjob-5"} {
		if err := j.Complete(id, jobreg.StateDone); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantUnfinished := Unfinished(mustParseJournal(t, before))

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Compacted: mark + the 2 unfinished accepts, nothing else.
	if len(recs) != 3 || recs[0].T != "mark" || recs[0].Job != "cjob-5" {
		t.Fatalf("compacted set = %+v, want mark(cjob-5) + 2 accepts", recs)
	}
	got := Unfinished(recs)
	if len(got) != len(wantUnfinished) {
		t.Fatalf("unfinished set changed: got %+v, want %+v", got, wantUnfinished)
	}
	for i := range got {
		if got[i].Job != wantUnfinished[i].Job || got[i].Key != wantUnfinished[i].Key ||
			got[i].Batch != wantUnfinished[i].Batch || string(got[i].Body) != string(wantUnfinished[i].Body) {
			t.Fatalf("unfinished[%d] = %+v, want %+v", i, got[i], wantUnfinished[i])
		}
	}
	// The on-disk file shrank and is itself a valid journal: appends go
	// to the compacted file and a further boot replays them.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Fatalf("compaction did not shrink the file: %d -> %d bytes", len(before), len(after))
	}
	if err := j2.Complete("cjob-2", jobreg.StateDone); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("compacted journal unreadable: %v", err)
	}
	defer j3.Close()
	if un := Unfinished(recs); len(un) != 1 || un[0].Job != "cjob-4" {
		t.Fatalf("after append+reboot unfinished = %+v, want just cjob-4", un)
	}
	// A Coordinator recovering from the compacted journal must not
	// regress its ID counter below the dropped completed jobs.
	c, err := New(Config{Backends: []Backend{{Name: "b0", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	c.Recover(recs)
	next := c.jobs.Seq()
	if next < 5 {
		t.Fatalf("recovered nextID = %d, want >= 5 (mark must pin the high-water ID)", next)
	}
}

// An already-compacted journal is not rewritten again on the next
// boot — the rewrite only fires when it shrinks the record set.
func TestJournalCompactionIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("cjob-1", "", "k", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("cjob-2", "", "k", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Complete("cjob-1", jobreg.StateDone); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, _, err := OpenJournal(path) // compacts: mark + accept(cjob-2)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	st1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	j3, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	st2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Size() != st2.Size() {
		t.Fatalf("second boot rewrote a stable journal: %d -> %d bytes", st1.Size(), st2.Size())
	}
	if len(recs) != 2 || recs[0].T != "mark" || recs[1].Job != "cjob-2" {
		t.Fatalf("stable journal replayed %+v, want mark + accept(cjob-2)", recs)
	}
}

func mustParseJournal(t *testing.T, raw []byte) []Record {
	t.Helper()
	var recs []Record
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("unparseable journal line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	return recs
}

// Appends after Close are dropped, not crashed on — the shutdown path
// races runners finishing against the journal closing.
func TestJournalAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Complete("cjob-9", jobreg.StateDone); err != nil {
		t.Fatalf("append after close: %v", err)
	}
	var nilJ *Journal
	if err := nilJ.Accept("x", "", "", nil); err != nil {
		t.Fatalf("nil journal accept: %v", err)
	}
	if err := nilJ.Close(); err != nil {
		t.Fatalf("nil journal close: %v", err)
	}
}

// Compaction keeps exactly one lease record — the newest by term, then
// deadline — no matter how many claims and renewals the journal has
// accumulated. Dropping it would let the next takeover reuse a term;
// keeping an old one would misreport who led last.
func TestJournalCompactionPreservesNewestLease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	leases := []Lease{
		{Term: 1, Owner: "a", Deadline: base.Add(time.Second)},
		{Term: 2, Owner: "b", Deadline: base.Add(2 * time.Second)},
		{Term: 2, Owner: "b", Deadline: base.Add(5 * time.Second)}, // renewal
	}
	for i, l := range leases {
		if err := j.Lease(l); err != nil {
			t.Fatal(err)
		}
		// Interleave completed work so compaction has something to drop.
		id := fmt.Sprintf("cjob-%d", i+1)
		if err := j.Accept(id, "", "k", json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := j.Complete(id, jobreg.StateDone); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	nLease := 0
	for _, r := range recs {
		if r.T == "lease" {
			nLease++
		}
	}
	if nLease != 1 {
		t.Fatalf("compacted journal keeps %d lease records, want exactly 1 (%+v)", nLease, recs)
	}
	l, ok := LatestLease(recs)
	if !ok || l.Term != 2 || l.Owner != "b" {
		t.Fatalf("surviving lease = %+v, want term 2 owner b", l)
	}
	if !l.Deadline.Equal(leases[2].Deadline.Truncate(0)) && l.Deadline.UnixNano() != leases[2].Deadline.UnixNano() {
		t.Fatalf("surviving lease deadline %v, want the renewal's %v", l.Deadline, leases[2].Deadline)
	}
}

// Compact-then-recover with a live lease: a coordinator booting from a
// compacted journal (mark + lease + unfinished) must resubmit exactly
// the unfinished set under the original IDs and keep counting above the
// mark — the lease record must not confuse either derivation.
func TestJournalCompactedLeaseRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Lease(Lease{Term: 3, Owner: "a", Deadline: time.Now().Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"cjob-6", "cjob-7", "cjob-8"} {
		if err := j.Accept(id, "", "key-"+id, json.RawMessage(`{"seed":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"cjob-6", "cjob-8"} {
		if err := j.Complete(id, jobreg.StateDone); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, recs, err := OpenJournal(path) // compacts: mark + lease + cjob-7
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if un := Unfinished(recs); len(un) != 1 || un[0].Job != "cjob-7" {
		t.Fatalf("unfinished = %+v, want cjob-7", un)
	}
	if l, ok := LatestLease(recs); !ok || l.Term != 3 {
		t.Fatalf("lease lost in compaction: %+v ok=%v", l, ok)
	}
	c, err := New(Config{Backends: []Backend{{Name: "b0", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	n := c.Recover(recs)
	if n != 1 {
		t.Fatalf("Recover resubmitted %d jobs, want 1", n)
	}
	if _, ok := c.Get("cjob-7"); !ok {
		t.Fatal("recovered job not tracked under its original ID")
	}
	next := c.jobs.Seq()
	if next < 8 {
		t.Fatalf("recovered nextID = %d, want >= 8 (mark must outlive the lease)", next)
	}
}

// The journal.write-err fault point fails the append before any byte
// reaches disk — the coordinator must surface the error instead of
// acknowledging a job it cannot durably own.
func TestJournalWriteErrInjection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(1, nil, fault.Rule{Point: fault.JournalWriteErr, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	j.SetFault(inj)
	if err := j.Accept("cjob-1", "", "k", json.RawMessage(`{}`)); err == nil {
		t.Fatal("injected write error not surfaced")
	}
	// Limit=1: the fault is spent, the journal works again.
	if err := j.Accept("cjob-2", "", "k", json.RawMessage(`{}`)); err != nil {
		t.Fatalf("journal did not recover after injected fault: %v", err)
	}
	j.Close()
	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 1 || recs[0].Job != "cjob-2" {
		t.Fatalf("replayed %+v, want only the acknowledged cjob-2", recs)
	}
}
