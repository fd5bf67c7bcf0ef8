package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"cpr/internal/journal"
)

// The job journal is the daemon's durable source of truth: an append-only
// CRC-framed record log (internal/journal) under the state directory. An
// accepted job is journaled (and fsynced) before its 202 is sent, and every
// terminal transition is journaled before it is reported — so a daemon
// killed at any instant can replay the log and knows exactly which jobs are
// owed a result. Jobs with no terminal record are re-enqueued on restart;
// their engine checkpoints (one directory per job, present once a job has
// written a snapshot) carry the partial work.
const (
	recAccepted      uint8 = 1 // id, seq, spec
	recAttemptFailed uint8 = 2 // id, attempt ordinal, error
	recDone          uint8 = 3 // id, result
	recCancelled     uint8 = 4 // id
	recDeadLetter    uint8 = 5 // id, error
	recExpired       uint8 = 6 // id, reason
)

const jobLogName = "jobs.log"

// logRecord is the JSON payload of one job-log record; the record's kind
// says which fields it carries.
type logRecord struct {
	ID      string   `json:"id"`
	Seq     uint64   `json:"seq,omitempty"`
	Spec    *JobSpec `json:"spec,omitempty"`
	Attempt int      `json:"attempt,omitempty"`
	Msg     string   `json:"msg,omitempty"`
	Result  *Result  `json:"result,omitempty"`
}

// jobJournal serializes writes to the job record log.
type jobJournal struct {
	mu sync.Mutex
	w  *journal.LogWriter
}

func openJobJournal(dir string) (*jobJournal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w, err := journal.OpenLog(filepath.Join(dir, jobLogName))
	if err != nil {
		return nil, err
	}
	return &jobJournal{w: w}, nil
}

// append encodes, writes, and fsyncs one record. Every record the daemon
// writes is a promise (job accepted, job finished); none may be lost to a
// crash after being acted on, so the sync is unconditional.
func (jl *jobJournal) append(kind uint8, rec logRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if err := jl.w.Append(kind, payload); err != nil {
		return err
	}
	return jl.w.Sync()
}

func (jl *jobJournal) accepted(j *job) error {
	return jl.append(recAccepted, logRecord{ID: j.id, Seq: j.submitSeq, Spec: &j.spec})
}

func (jl *jobJournal) attemptFailed(id string, attempt int, errMsg string) error {
	return jl.append(recAttemptFailed, logRecord{ID: id, Attempt: attempt, Msg: errMsg})
}

func (jl *jobJournal) done(id string, res *Result) error {
	return jl.append(recDone, logRecord{ID: id, Result: res})
}

func (jl *jobJournal) terminal(kind uint8, id, msg string) error {
	return jl.append(kind, logRecord{ID: id, Msg: msg})
}

func (jl *jobJournal) close() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.w.Close()
}

// replayedJob is one job's state recovered from the log.
type replayedJob struct {
	id       string
	seq      uint64
	spec     JobSpec
	attempts int
	lastErr  string
	state    State   // zero ("") means live: re-enqueue
	result   *Result // for StateDone
}

// replayJobLog folds the record log into per-job states, in submit order.
// A torn tail is already dropped by ReadLog; a record for an unknown id
// (its accepted record fell in the torn tail) is skipped with a warning —
// such a job was never acknowledged, so nothing is owed.
func replayJobLog(dir string, warn func(string)) ([]*replayedJob, error) {
	recs, err := journal.ReadLog(filepath.Join(dir, jobLogName))
	if err != nil {
		return nil, err
	}
	warnf := func(format string, args ...any) {
		if warn != nil {
			warn(fmt.Sprintf(format, args...))
		}
	}
	byID := map[string]*replayedJob{}
	var order []*replayedJob
	for _, rec := range recs {
		var lr logRecord
		if err := json.Unmarshal(rec.Payload, &lr); err != nil {
			warnf("serve: journal record (kind %d) undecodable, skipped: %v", rec.Kind, err)
			continue
		}
		if rec.Kind == recAccepted {
			if lr.Spec == nil {
				warnf("serve: accepted record for %s carries no spec, skipped", lr.ID)
				continue
			}
			rj := &replayedJob{id: lr.ID, seq: lr.Seq, spec: *lr.Spec}
			byID[lr.ID] = rj
			order = append(order, rj)
			continue
		}
		rj := byID[lr.ID]
		if rj == nil {
			warnf("serve: journal record (kind %d) for unknown job %s, skipped", rec.Kind, lr.ID)
			continue
		}
		switch rec.Kind {
		case recAttemptFailed:
			rj.attempts, rj.lastErr = lr.Attempt, lr.Msg
		case recDone:
			if lr.Result == nil {
				warnf("serve: done record for %s carries no result, job re-enqueued", lr.ID)
				continue
			}
			rj.state, rj.result = StateDone, lr.Result
		case recCancelled:
			rj.state = StateCancelled
		case recDeadLetter:
			rj.state, rj.lastErr = StateDeadLetter, lr.Msg
		case recExpired:
			rj.state, rj.lastErr = StateExpired, lr.Msg
		default:
			warnf("serve: unknown journal record kind %d for job %s, skipped", rec.Kind, lr.ID)
		}
	}
	return order, nil
}
