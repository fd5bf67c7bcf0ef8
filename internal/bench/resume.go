package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
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
// Fingerprint is rowFingerprint at the time the row was run: a row
// replays only into a run with the same one.
type rowRecord struct {
	ID          string `json:"id"`
	Fingerprint uint64 `json:"fingerprint,omitempty"`
	Status      string `json:"status"`
	Err         string `json:"error,omitempty"`
	NA          bool   `json:"na,omitempty"`

	CPR       core.Stats    `json:"cpr"`
	Wall      time.Duration `json:"wall_ns"`
	Rank      int           `json:"rank"`
	RankFound bool          `json:"rank_found"`

	CEGISStats     cegis.Stats `json:"cegis"`
	CEGISGenerated bool        `json:"cegis_generated"`
	CEGISCorrect   bool        `json:"cegis_correct"`
}

func toRowRecord(s *Subject, r SubjectResult, fp uint64) rowRecord {
	rec := rowRecord{
		ID:             s.ID(),
		Fingerprint:    fp,
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

// rowFingerprint hashes what decides a subject's row: the subject's job
// (program, spec, inputs, iteration budgets, components) with the
// engine's trajectory options, the per-subject wall-clock cap, and the
// CEGIS baseline's iteration split. Worker count and solver internals are
// left out: they change how fast a row is computed, not what it holds.
func rowFingerprint(s *Subject, opts RunOptions) uint64 {
	h := fnv.New64a()
	if job, err := s.Job(opts.Budget); err != nil {
		fmt.Fprintf(h, "job error:%v|", err)
	} else {
		fmt.Fprintf(h, "run:%x|", core.RunFingerprint(job, opts.Core))
	}
	fmt.Fprintf(h, "timeout:%d|cegis:%d:%d", opts.SubjectTimeout,
		opts.CEGIS.ExplorationIterations, opts.CEGIS.RefinementIterations)
	return h.Sum64()
}

// suiteJournal makes one table run resumable: every finished subject row
// is appended to a per-suite record log, and the in-flight subject's CPR
// run writes engine snapshots to a directory of its own. A killed suite
// resumes by replaying the completed rows, continuing the interrupted
// subject's CPR run from its engine snapshot and re-running its CEGIS
// baseline from the start (the baseline takes milliseconds and keeps no
// snapshots). All methods are nil-safe; a nil journal (no checkpoint
// directory configured) makes every operation a no-op.
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

// lookup returns a previously completed row for the subject, if any. A
// row journaled under a different fingerprint (other budgets or options,
// or a journal that predates fingerprints) is warned about and not
// replayed: the subject runs again.
func (sj *suiteJournal) lookup(s *Subject) (SubjectResult, bool) {
	if sj == nil {
		return SubjectResult{}, false
	}
	rec, ok := sj.done[s.ID()]
	if !ok {
		return SubjectResult{}, false
	}
	if rec.Fingerprint != rowFingerprint(s, sj.opts) {
		warnBench(sj.opts, "bench checkpoint: journaled row for %s was run under other budgets or options, re-running it", s.ID())
		return SubjectResult{}, false
	}
	return rec.toResult(s), true
}

// subjectOpts derives the per-subject engine options: the subject's CPR
// run gets its own snapshot directory under <dir>/subjects/, resumed only
// when the suite itself is resuming (a fresh suite must not adopt stale
// snapshots) and the directory exists. A killed suite leaves one for the
// subject it was running at most; the subjects it never reached simply
// start, without a "resume unavailable" warning each.
func (sj *suiteJournal) subjectOpts(s *Subject, opts RunOptions) RunOptions {
	if sj == nil {
		return opts
	}
	dir := filepath.Join(sj.subjectDir(s), "cpr")
	_, err := os.Stat(dir)
	opts.Core.Checkpoint = core.CheckpointOptions{
		Dir:      dir,
		Interval: opts.Checkpoint.Interval,
		Resume:   opts.Checkpoint.Resume && err == nil,
		Warn:     opts.Checkpoint.Warn,
	}
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
		payload, err := json.Marshal(toRowRecord(s, r, rowFingerprint(s, sj.opts)))
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
