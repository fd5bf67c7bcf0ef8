package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cpr/internal/cegis"
	"cpr/internal/core"
	"cpr/internal/journal"
)

// rowRecordKind is the suite journal's only record kind: one completed
// subject row, JSON-encoded.
const rowRecordKind = 1

// rowRecord is the durable form of one finished SubjectResult. The Subject
// pointer is re-bound by ID on resume; errors round-trip as strings.
type rowRecord struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Err    string `json:"error,omitempty"`
	NA     bool   `json:"na,omitempty"`

	CPR       core.Stats    `json:"cpr"`
	Wall      time.Duration `json:"wall_ns"`
	Rank      int           `json:"rank"`
	RankFound bool          `json:"rank_found"`

	CEGISStats     cegis.Stats `json:"cegis"`
	CEGISGenerated bool        `json:"cegis_generated"`
	CEGISCorrect   bool        `json:"cegis_correct"`
}

func toRowRecord(s *Subject, r SubjectResult) rowRecord {
	rec := rowRecord{
		ID:             s.ID(),
		Status:         r.Status,
		NA:             r.NA,
		CPR:            r.CPR,
		Wall:           r.Wall,
		Rank:           r.Rank,
		RankFound:      r.RankFound,
		CEGISStats:     r.CEGISStats,
		CEGISGenerated: r.CEGISGenerated,
		CEGISCorrect:   r.CEGISCorrect,
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	return rec
}

func (rec rowRecord) toResult(s *Subject) SubjectResult {
	r := SubjectResult{
		Subject:        s,
		Status:         rec.Status,
		NA:             rec.NA,
		CPR:            rec.CPR,
		Wall:           rec.Wall,
		Rank:           rec.Rank,
		RankFound:      rec.RankFound,
		CEGISStats:     rec.CEGISStats,
		CEGISGenerated: rec.CEGISGenerated,
		CEGISCorrect:   rec.CEGISCorrect,
	}
	if rec.Err != "" {
		r.Err = errors.New(rec.Err)
	}
	return r
}

// suiteJournal makes one table run resumable: every finished subject row
// is appended to a per-suite record log, and the in-flight subject runs
// with an engine checkpoint directory of its own. A killed suite resumes
// by replaying the completed rows and continuing the interrupted subject
// from its engine snapshot. All methods are nil-safe; a nil journal (no
// checkpoint directory configured) makes every operation a no-op.
type suiteJournal struct {
	opts RunOptions
	log  *journal.LogWriter
	dir  string
	done map[string]rowRecord
}

// openSuiteJournal prepares the per-suite record log. Without Resume any
// previous journal for the tag is discarded — a fresh run must not skip
// subjects on stale rows. Journal failures degrade to a warned,
// non-resumable run, never an aborted suite.
func openSuiteJournal(tag string, opts RunOptions) *suiteJournal {
	if opts.Checkpoint.Dir == "" {
		return nil
	}
	if err := os.MkdirAll(opts.Checkpoint.Dir, 0o755); err != nil {
		warnBench(opts, "bench checkpoint: %v", err)
		return nil
	}
	path := filepath.Join(opts.Checkpoint.Dir, "suite-"+tag+".journal")
	sj := &suiteJournal{opts: opts, dir: opts.Checkpoint.Dir, done: map[string]rowRecord{}}
	if opts.Checkpoint.Resume {
		recs, err := journal.ReadLog(path)
		if err != nil {
			warnBench(opts, "bench checkpoint: journal %s unreadable, starting the suite fresh: %v", filepath.Base(path), err)
			os.Remove(path)
		}
		for _, rec := range recs {
			if rec.Kind != rowRecordKind {
				continue
			}
			var row rowRecord
			if err := json.Unmarshal(rec.Payload, &row); err != nil {
				warnBench(opts, "bench checkpoint: skipping malformed journal row: %v", err)
				continue
			}
			sj.done[row.ID] = row
		}
	} else {
		os.Remove(path)
	}
	log, err := journal.OpenLog(path)
	if err != nil {
		warnBench(opts, "bench checkpoint: cannot append to %s, suite will not be resumable: %v", filepath.Base(path), err)
		return sj // completed rows still replay; new ones just aren't recorded
	}
	sj.log = log
	return sj
}

func warnBench(opts RunOptions, format string, args ...any) {
	if opts.Checkpoint.Warn != nil {
		opts.Checkpoint.Warn(fmt.Sprintf(format, args...))
	}
}

// lookup returns a previously completed row for the subject, if any.
func (sj *suiteJournal) lookup(s *Subject) (SubjectResult, bool) {
	if sj == nil {
		return SubjectResult{}, false
	}
	rec, ok := sj.done[s.ID()]
	if !ok {
		return SubjectResult{}, false
	}
	return rec.toResult(s), true
}

// subjectOpts derives the per-subject engine options: the subject gets its
// own snapshot directories under <dir>/subjects/ (separate ones for the
// CPR engine and the CEGIS baseline — both write snap-*.ckpt files),
// resumed only when the suite itself is resuming (a fresh suite must not
// adopt stale snapshots).
func (sj *suiteJournal) subjectOpts(s *Subject, opts RunOptions) RunOptions {
	if sj == nil {
		return opts
	}
	ck := core.CheckpointOptions{
		Interval: opts.Checkpoint.Interval,
		Resume:   opts.Checkpoint.Resume,
		Warn:     opts.Checkpoint.Warn,
	}
	opts.Core.Checkpoint = ck
	opts.Core.Checkpoint.Dir = filepath.Join(sj.subjectDir(s), "cpr")
	opts.CEGIS.Checkpoint = ck
	opts.CEGIS.Checkpoint.Dir = filepath.Join(sj.subjectDir(s), "cegis")
	return opts
}

func (sj *suiteJournal) subjectDir(s *Subject) string {
	return filepath.Join(sj.dir, "subjects", strings.ReplaceAll(s.ID(), string(os.PathSeparator), "_"))
}

// record makes a finished row durable and drops the subject's engine
// snapshots — the row itself is now the recovery point.
func (sj *suiteJournal) record(s *Subject, r SubjectResult) {
	if sj == nil {
		return
	}
	if sj.log != nil {
		payload, err := json.Marshal(toRowRecord(s, r))
		if err == nil {
			err = sj.log.Append(rowRecordKind, payload)
		}
		if err == nil {
			err = sj.log.Sync()
		}
		if err != nil {
			warnBench(sj.opts, "bench checkpoint: recording %s failed: %v", s.ID(), err)
		}
	}
	os.RemoveAll(sj.subjectDir(s))
}

func (sj *suiteJournal) close() {
	if sj == nil || sj.log == nil {
		return
	}
	sj.log.Close()
}
