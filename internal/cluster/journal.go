package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"igpart/internal/fault"
	"igpart/internal/jobreg"
)

// errInjectedWrite marks a journal append failed by the
// journal.write-err fault point rather than by the filesystem.
var errInjectedWrite = errors.New("injected fault")

// Record is one journal line. Four kinds exist:
//
//   - accept: the coordinator took responsibility for a job — the full
//     forwarded request body and routing key are stored, so the job can
//     be resubmitted from the journal alone;
//   - done: the job reached a terminal state (done/failed/cancelled);
//   - mark: a compaction watermark. Boot-time compaction drops
//     accept/done pairs, which would otherwise regress the ID counter
//     Recover derives from the highest ID seen; the mark pins that
//     high-water ID in the compacted file. Unfinished ignores marks.
//   - lease: a leadership claim or renewal — term number, owner
//     identity, and deadline. The newest lease (highest term, then
//     latest deadline) tells a standby tailing the journal whether the
//     leader is still alive; compaction always preserves it.
//
// A job that has an accept but no done record is unfinished: a
// coordinator crash happened between accepting and completing it, and
// boot-time replay resubmits it. Re-running a job whose completion
// record was lost in the crash window is safe — the solve is a pure
// function of the request and the backends' content-addressed caches
// usually turn the re-run into a hit.
type Record struct {
	T     string          `json:"t"` // "accept" | "done" | "mark" | "lease"
	Job   string          `json:"job,omitempty"`
	Batch string          `json:"batch,omitempty"`
	Key   string          `json:"key,omitempty"`
	Body  json.RawMessage `json:"body,omitempty"`
	State jobreg.State    `json:"state,omitempty"`

	// Lease fields (T == "lease").
	Term     int64  `json:"term,omitempty"`
	Owner    string `json:"owner,omitempty"`
	Deadline int64  `json:"deadline,omitempty"` // unix nanoseconds
}

// Journal is the coordinator's durable intake log: append-only JSONL,
// fsync'd per record, replayed on boot. Durability before
// acknowledgement is the contract — Accept returns only after the
// record is on disk, so an accepted batch survives a SIGKILL. A nil
// *Journal is a disabled journal: appends succeed as no-ops.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	inj *fault.Injector
}

// SetFault arms the journal.write-err injection point: when it fires,
// an append fails before touching disk, exactly as a full or failing
// volume would.
func (j *Journal) SetFault(inj *fault.Injector) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.inj = inj
	j.mu.Unlock()
}

// OpenJournal opens (creating if absent) the journal at path and
// returns the records already in it. A torn final line — the crash
// happened mid-write — is truncated away: its job, necessarily
// unfinished, is either absent entirely (torn accept: the coordinator
// never acknowledged it, so nothing is lost) or replayed (torn done:
// the job re-runs, which is idempotent). Truncation matters because
// the file is O_APPEND — without it the first post-recovery append
// would concatenate onto the partial line, corrupting the journal for
// the boot after this one.
//
// The journal is then compacted: completed accept/done pairs are
// dropped (their request bodies dominate the file's size and replay
// never reads them), keeping only a mark record pinning the high-water
// job ID plus the unfinished accepts. The rewrite is atomic — tmp
// file, fsync, rename — so a crash mid-compaction leaves the old
// journal intact; the returned records are the compacted set, which
// yields the same Unfinished replay set as the original.
func OpenJournal(path string) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: open journal: %w", err)
	}
	recs, off, err := scanJournal(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if end, serr := f.Seek(0, io.SeekEnd); serr != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: seek journal: %w", serr)
	} else if end != off {
		// Drop the torn tail so appends (O_APPEND: always at EOF) start
		// on a clean line.
		if terr := f.Truncate(off); terr != nil {
			f.Close()
			return nil, nil, fmt.Errorf("cluster: truncate torn journal tail: %w", terr)
		}
	}

	kept := compactRecords(recs)
	if len(kept) < len(recs) {
		if err := rewriteJournal(path, kept); err != nil {
			f.Close()
			return nil, nil, err
		}
		// The open handle still points at the renamed-over inode; reopen
		// so appends land in the compacted file.
		f.Close()
		f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: reopen compacted journal: %w", err)
		}
		recs = kept
	}
	return &Journal{f: f}, recs, nil
}

// scanJournal reads complete records off r, returning them along with
// the byte offset just past the last fully-persisted line. A torn
// final line — the crash happened mid-write — is tolerated and simply
// excluded from off; a complete garbage line followed by valid data
// means the file is not a journal (or was rewritten underneath the
// reader) and is reported as an error. The standby tailer reuses this
// on the suffix of the leader's live journal.
func scanJournal(r io.Reader) ([]Record, int64, error) {
	var recs []Record
	br := bufio.NewReaderSize(r, 64*1024)
	var off int64 // byte offset just past the last fully-persisted line
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return nil, 0, fmt.Errorf("cluster: read journal: %w", rerr)
		}
		complete := rerr == nil // the line carries its terminating newline
		if body := bytes.TrimSuffix(line, []byte{'\n'}); len(body) > 0 {
			var rec Record
			if jerr := json.Unmarshal(body, &rec); jerr != nil {
				// Only the torn tail of a crashed write is tolerated; garbage
				// followed by valid records means the file is not ours.
				if complete {
					if _, perr := br.Peek(1); perr == nil {
						return nil, 0, fmt.Errorf("cluster: corrupt journal record: %v", jerr)
					}
				}
				break
			}
			if !complete {
				// Parseable JSON but no newline: the write (line then Sync)
				// never finished, so the record was never acknowledged —
				// drop it with the rest of the torn tail.
				break
			}
			recs = append(recs, rec)
		}
		if !complete {
			break
		}
		off += int64(len(line))
	}
	return recs, off, nil
}

// compactRecords reduces a replayed record set to what future boots
// need: a mark pinning the high-water job/batch ID (so dropping
// completed jobs cannot regress Recover's ID counter), the newest
// lease record (a standby must still see who led last and at what
// term, or takeover would reuse term numbers), plus the unfinished
// accepts in order. Returns the input-sized slice when compaction
// would not shrink the file.
func compactRecords(recs []Record) []Record {
	maxID := maxSeq(recs)
	unfinished := Unfinished(recs)
	kept := make([]Record, 0, len(unfinished)+2)
	if maxID > 0 {
		kept = append(kept, Record{T: "mark", Job: fmt.Sprintf("cjob-%d", maxID)})
	}
	if lease, ok := LatestLease(recs); ok {
		kept = append(kept, lease.record())
	}
	kept = append(kept, unfinished...)
	if len(kept) >= len(recs) {
		return recs
	}
	return kept
}

// maxSeq is the highest sequence number among the records' job and
// batch IDs (the N of "cjob-N" and "batch-N").
func maxSeq(recs []Record) int64 {
	maxID := int64(0)
	for _, r := range recs {
		for _, id := range []string{r.Job, r.Batch} {
			if i := strings.LastIndexByte(id, '-'); i >= 0 {
				if n, err := strconv.ParseInt(id[i+1:], 10, 64); err == nil && n > maxID {
					maxID = n
				}
			}
		}
	}
	return maxID
}

// rewriteJournal atomically replaces the journal at path with the
// given records: write a sibling tmp file, fsync it, rename over.
func rewriteJournal(path string, recs []Record) error {
	tmp := path + ".compact.tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("cluster: create compaction tmp: %w", err)
	}
	bw := bufio.NewWriter(f)
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("cluster: marshal compacted record: %w", err)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("cluster: write compacted journal: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cluster: flush compacted journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cluster: fsync compacted journal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: close compacted journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: swap compacted journal: %w", err)
	}
	return nil
}

// append writes one record and fsyncs before returning.
func (j *Journal) append(r Record) error {
	if j == nil {
		return nil
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil // closed: the coordinator is past the point of journaling
	}
	if j.inj.Active(fault.JournalWriteErr) {
		return fmt.Errorf("cluster: journal write: %w", errInjectedWrite)
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("cluster: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("cluster: journal fsync: %w", err)
	}
	return nil
}

// Accept journals responsibility for a job; it must succeed before the
// submission is acknowledged to the client.
func (j *Journal) Accept(job, batch, key string, body json.RawMessage) error {
	return j.append(Record{T: "accept", Job: job, Batch: batch, Key: key, Body: body})
}

// Complete journals a job's terminal state.
func (j *Journal) Complete(job string, state jobreg.State) error {
	return j.append(Record{T: "done", Job: job, State: state})
}

// Lease journals a leadership claim or renewal. Like every record it
// is fsync'd before returning — a standby trusts only what is durably
// on disk, so an unsynced renewal is no renewal at all.
func (j *Journal) Lease(l Lease) error {
	return j.append(l.record())
}

// Close releases the journal file. Appends after Close are dropped —
// by then the coordinator is shutting down and unfinished jobs are
// deliberately left for the next boot's replay.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Unfinished filters the replayed records down to accepted jobs with
// no completion record, in acceptance order.
func Unfinished(recs []Record) []Record {
	done := make(map[string]bool)
	for _, r := range recs {
		if r.T == "done" {
			done[r.Job] = true
		}
	}
	var out []Record
	for _, r := range recs {
		if r.T == "accept" && !done[r.Job] {
			out = append(out, r)
		}
	}
	return out
}
