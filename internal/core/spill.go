package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cpr/internal/journal"
)

// Frontier spill: the memory governor's high rung moves the frontier's
// cold tail (the items the pop policy would reach last) out of the heap
// and into batch files under the engine's spill directory, reloading a
// batch only when the pop policy actually needs one of its items.
//
// The result-neutrality argument: the frontier's observable behavior —
// which item each pop returns, which item each overflowing push evicts —
// depends only on the multiset of (score, seq) keys it holds, because seq
// is unique and both orderings are total. Spilling keeps every batch's
// keys in memory, so those decisions are still taken over the full logical
// frontier; only the item payloads (inputs, flip prefixes, hole-hit
// snapshots — the bulk of the bytes) leave the heap. A spilled item
// evicted by an overflowing push is marked dead in its batch and skipped
// at reload. Forced-pressure differential tests assert the resulting runs
// are bit-identical to unpressured ones.
//
// Spill files use the checkpoint item codec (encodeItem/decodeItem) under
// the journal framing: a term table frame, then a version, a count, and
// the items. Files are scratch state, deleted on reload and at phase end;
// a checkpoint barrier reloads everything first, so snapshots always carry
// the full logical frontier and resume needs no spill awareness.

// spillVersion is the batch-file schema version.
const spillVersion = 1

// spillMinBatch is the smallest cold tail worth a file; below it the spill
// is skipped (the syscall overhead outweighs the bytes).
const spillMinBatch = 16

// itemKey is the slice of a workItem that pop and overflow-eviction
// decisions read. seq is unique within a run, making both orderings total.
type itemKey struct {
	score int
	seq   int
}

func keyOf(it workItem) itemKey { return itemKey{score: it.score, seq: it.seq} }

// rankedKeyLess mirrors less (score descending, then seq); fifoKeyLess
// mirrors lessFIFO. Overflow eviction always uses the ranked order (as the
// in-memory push always has); popping uses the phase's queue policy.
func rankedKeyLess(a, b itemKey) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.seq < b.seq
}

func fifoKeyLess(a, b itemKey) bool { return a.seq < b.seq }

// popKeyLess returns the key ordering matching the pop policy.
func (e *engine) popKeyLess() func(a, b itemKey) bool {
	if e.opts.Queue == QueueFIFO {
		return fifoKeyLess
	}
	return rankedKeyLess
}

// spillBatch is one on-disk batch: its file, the keys of every item it
// holds, and the seqs logically evicted while spilled.
type spillBatch struct {
	path string
	keys []itemKey
	dead map[int]bool
	live int
}

// best returns the batch's best live key under kl.
func (b *spillBatch) best(kl func(a, b itemKey) bool) (itemKey, bool) {
	var bk itemKey
	found := false
	for _, k := range b.keys {
		if b.dead[k.seq] {
			continue
		}
		if !found || kl(k, bk) {
			bk, found = k, true
		}
	}
	return bk, found
}

// worst returns the batch's worst live key under kl.
func (b *spillBatch) worst(kl func(a, b itemKey) bool) (itemKey, bool) {
	var wk itemKey
	found := false
	for _, k := range b.keys {
		if b.dead[k.seq] {
			continue
		}
		if !found || kl(wk, k) {
			wk, found = k, true
		}
	}
	return wk, found
}

// markDead logically evicts seq from the batch; reports the remaining live
// count.
func (b *spillBatch) markDead(seq int) int {
	if b.dead == nil {
		b.dead = make(map[int]bool)
	}
	if !b.dead[seq] {
		b.dead[seq] = true
		b.live--
	}
	return b.live
}

// frontierSpill is one explore phase's spilled state. Coordinator-owned,
// like the queue itself.
type frontierSpill struct {
	batches []*spillBatch
}

// liveCount is the number of live spilled items.
func (sp *frontierSpill) liveCount() int {
	if sp == nil {
		return 0
	}
	n := 0
	for _, b := range sp.batches {
		n += b.live
	}
	return n
}

// frontierLen is the frontier's logical length: in-memory plus spilled.
func (st *exploreState) frontierLen() int {
	return len(st.queue) + st.spill.liveCount()
}

// dropSpill deletes every batch file; called at phase end (the queue is
// discarded with the phase, so its spilled tail is too).
func (st *exploreState) dropSpill() {
	if st.spill == nil {
		return
	}
	for _, b := range st.spill.batches {
		os.Remove(b.path)
	}
	st.spill.batches = nil
}

// spillDirLazy returns the directory spill files go to, creating the
// engine-owned temp directory on first use. An empty return means spilling
// is unavailable this run (creation failed; already warned).
func (e *engine) spillDirLazy() string {
	if e.spillDir != "" {
		return e.spillDir
	}
	dir := e.opts.SpillDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "cpr-spill-")
		if err != nil {
			e.warnMem("govern: spill directory unavailable, frontier stays in memory: %v", err)
			e.spillDir = "\x00unavailable"
			return ""
		}
		e.ownSpillDir = true
	} else if err := os.MkdirAll(dir, 0o700); err != nil {
		e.warnMem("govern: spill directory unavailable, frontier stays in memory: %v", err)
		e.spillDir = "\x00unavailable"
		return ""
	}
	e.spillDir = dir
	return dir
}

// spillFrontier writes the frontier's cold tail — everything past the
// keepHot best items under the pop policy — to one batch file and drops it
// from the heap. No-op when the tail is too small to be worth a file.
func (e *engine) spillFrontier(st *exploreState, keepHot int) {
	if keepHot < 1 {
		keepHot = 1
	}
	if len(st.queue) < keepHot+spillMinBatch {
		return
	}
	dir := e.spillDirLazy()
	if dir == "" {
		return
	}
	cmp := less
	if e.opts.Queue == QueueFIFO {
		cmp = lessFIFO
	}
	sort.SliceStable(st.queue, func(i, j int) bool { return cmp(st.queue[i], st.queue[j]) })
	cold := st.queue[keepHot:]

	te := journal.NewTermEncoder()
	var body journal.Encoder
	body.U64(spillVersion)
	body.U64(uint64(len(cold)))
	for _, it := range cold {
		encodeItem(&body, te, it)
	}
	var framed journal.Encoder
	framed.Raw(te.Table())
	framed.Append(body.Bytes())
	path := filepath.Join(dir, fmt.Sprintf("frontier-%06d.spill", e.spillSeq))
	e.spillSeq++
	if err := journal.WriteFileAtomic(path, framed.Bytes()); err != nil {
		e.warnMem("govern: frontier spill failed, keeping tail in memory: %v", err)
		e.mem.MemSpillLoadFailures++
		return
	}

	keys := make([]itemKey, len(cold))
	for i, it := range cold {
		keys[i] = keyOf(it)
	}
	if st.spill == nil {
		st.spill = &frontierSpill{}
	}
	st.spill.batches = append(st.spill.batches, &spillBatch{path: path, keys: keys, live: len(keys)})
	e.mem.MemSpills++
	e.mem.MemSpilledItems += uint64(len(cold))
	// Copy the hot set into a fresh slice so the cold tail's backing array
	// (and the item payloads it pins) is actually collectable.
	st.queue = append(make([]workItem, 0, keepHot), st.queue[:keepHot]...)
}

// reloadForPop makes sure the logical best item under the pop policy is in
// memory, reloading (at most) the one batch whose best key beats every
// in-memory item. Called right before each pop.
func (e *engine) reloadForPop(st *exploreState) {
	sp := st.spill
	if sp == nil || len(sp.batches) == 0 {
		return
	}
	kl := e.popKeyLess()
	for {
		// Prune fully-dead batches first.
		kept := sp.batches[:0]
		for _, b := range sp.batches {
			if b.live > 0 {
				kept = append(kept, b)
			} else {
				os.Remove(b.path)
			}
		}
		sp.batches = kept
		if len(sp.batches) == 0 {
			return
		}
		bestIdx := -1
		var bestKey itemKey
		for i, b := range sp.batches {
			k, ok := b.best(kl)
			if ok && (bestIdx < 0 || kl(k, bestKey)) {
				bestIdx, bestKey = i, k
			}
		}
		if bestIdx < 0 {
			return
		}
		if len(st.queue) > 0 {
			memBest := keyOf(st.queue[0])
			for _, it := range st.queue[1:] {
				if k := keyOf(it); kl(k, memBest) {
					memBest = k
				}
			}
			if kl(memBest, bestKey) {
				return // the in-memory best wins; nothing to reload
			}
		}
		if e.reloadBatch(st, bestIdx) {
			// The reloaded batch's best beat every other batch's best, so
			// memory now holds the logical best.
			return
		}
		// Reload failed (file unreadable): that batch is gone; re-evaluate
		// the survivors.
	}
}

// reloadAllSpilled pulls every spilled item back into memory. The
// checkpointer calls it before encoding a snapshot, so snapshots always
// carry the full logical frontier.
func (e *engine) reloadAllSpilled(st *exploreState) {
	for st.spill != nil && len(st.spill.batches) > 0 {
		e.reloadBatch(st, 0)
	}
}

// reloadBatch reads batch idx back into the queue (skipping dead items)
// and removes it. A read failure drops the batch with a warning — its
// items are lost, counted in MemSpillLoadFailures.
func (e *engine) reloadBatch(st *exploreState, idx int) bool {
	sp := st.spill
	b := sp.batches[idx]
	sp.batches = append(sp.batches[:idx], sp.batches[idx+1:]...)
	items, err := readSpillBatch(b.path)
	os.Remove(b.path)
	if err != nil {
		e.mem.MemSpillLoadFailures++
		e.warnMem("govern: frontier spill reload failed, %d item(s) lost: %v", b.live, err)
		return false
	}
	e.mem.MemReloads++
	for _, it := range items {
		if b.dead[it.seq] {
			continue
		}
		st.queue = append(st.queue, it)
	}
	return true
}

func readSpillBatch(path string) ([]workItem, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := journal.NewDecoder(data)
	td, err := journal.DecodeTermTable(journal.NewDecoder(d.Raw()))
	if err != nil {
		return nil, err
	}
	if v := d.U64(); d.Err() == nil && v != spillVersion {
		return nil, fmt.Errorf("%w: spill batch version %d, want %d", journal.ErrVersion, v, spillVersion)
	}
	n := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	items := make([]workItem, 0, n)
	for i := uint64(0); i < n; i++ {
		it, err := decodeItem(d, td)
		if err != nil {
			return nil, err
		}
		items = append(items, it)
	}
	return items, nil
}

// pushFrontier appends an item to the logical frontier, evicting the
// logical worst (in-memory or spilled, ranked order — matching what the
// in-memory push has always done) when the frontier is at MaxQueue. The
// candidate is rejected when it is not strictly better than the worst.
func (e *engine) pushFrontier(st *exploreState, it workItem) {
	if st.frontierLen() >= e.opts.MaxQueue {
		wi := -1 // worst in-memory index
		for i := range st.queue {
			if wi < 0 || rankedKeyLess(keyOf(st.queue[wi]), keyOf(st.queue[i])) {
				wi = i
			}
		}
		var worstBatch *spillBatch
		var worstKey itemKey
		haveWorst := wi >= 0
		if haveWorst {
			worstKey = keyOf(st.queue[wi])
		}
		if st.spill != nil {
			for _, b := range st.spill.batches {
				if k, ok := b.worst(rankedKeyLess); ok && (!haveWorst || rankedKeyLess(worstKey, k)) {
					worstBatch, worstKey, haveWorst = b, k, true
				}
			}
		}
		if !haveWorst {
			return // cap is 0-ish and nothing to evict: drop the candidate
		}
		if !rankedKeyLess(keyOf(it), worstKey) {
			return // not strictly better than the logical worst
		}
		if worstBatch != nil {
			worstBatch.markDead(worstKey.seq)
		} else {
			st.queue = append(st.queue[:wi], st.queue[wi+1:]...)
		}
	}
	st.queue = append(st.queue, it)
}
