// Package cache memoizes SMT verdicts. The repair loop re-solves
// structurally identical QF_LIA queries constantly — every branch flip
// re-checks patch feasibility against the same path prefix, and parallel
// workers race to answer the same pick-new-input queries — so a verdict
// cache in front of the solver removes a large share of the total solver
// work.
//
// Keying is exact and cheap because terms are hash-consed (package expr):
// a query is identified by the interned formula pointer plus a canonical
// rendering of its bounds map (including the solver's default bounds, which
// affect both the verdict and the model). Models are cached alongside sat
// verdicts and returned as copies, so a hit is indistinguishable from
// re-solving (the solver is deterministic for a fixed query and options).
//
// A Cache is safe for concurrent use by many solvers.
package cache

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

// maxEntries caps the exact entries (LRU eviction). The memory governor
// bounds the cache further through Shrink.
const maxEntries = 4096

// Stats counts cache traffic. Evictions includes the entries Shrink
// removed.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Value is a cached verdict: Sat with its model, or unsat. A Sat value
// with a nil Model is verdict-only — the incremental solver decides
// verdicts without constructing models, and such entries answer
// LookupVerdict but not Lookup (which promises a model on sat hits).
type Value struct {
	Sat   bool
	Model expr.Model
}

// verdictOnly reports whether the value carries no model despite being sat.
func (v Value) verdictOnly() bool { return v.Sat && v.Model == nil }

// clone returns v with its own copy of the model.
func (v Value) clone() Value {
	if v.Model != nil { // Clone maps nil to an empty model; keep verdict-only nil
		v.Model = v.Model.Clone()
	}
	return v
}

// Key identifies an exact cache entry: the interned formula and the
// canonical rendering of its bounds map. Solvers obtain it from KeyOf
// before a Store so the entry can later be withdrawn by InvalidateKey
// without re-rendering the bounds map. The zero Key matches nothing.
type Key struct {
	f      *expr.Term
	bounds string
}

type entry struct {
	key   Key
	value Value
}

// Cache is a bounded memo table of solver verdicts.
type Cache struct {
	mu      sync.Mutex
	max     int // entry cap: maxEntries, lowered by tests
	entries map[Key]*list.Element
	lru     *list.List // of *entry; front = most recently used
	stats   Stats
	// bytes is the running approximate footprint of the entries,
	// maintained on every insert/evict/invalidate (see entryBytes). It is
	// what ApproxBytes reports and Shrink targets.
	bytes uint64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		max:     maxEntries,
		entries: make(map[Key]*list.Element),
		lru:     list.New(),
	}
}

// Stats returns a snapshot of the traffic counters. A nil cache has
// zero stats.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of exact entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Lookup returns the cached verdict for f under the given bounds (def is
// the solver's default domain for unbounded integer variables). The model
// of a sat hit is a copy; callers may mutate it freely.
func (c *Cache) Lookup(f *expr.Term, bounds map[string]interval.Interval, def interval.Interval) (Value, bool) {
	if c == nil {
		return Value{}, false
	}
	k := KeyOf(f, bounds, def)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		v := el.Value.(*entry).value
		if !v.verdictOnly() {
			c.lru.MoveToFront(el)
			c.stats.Hits++
			return Value{Sat: v.Sat, Model: v.Model.Clone()}, true
		}
		// Verdict-only sat entry: a model is required, so this is a miss;
		// the subsequent Store upgrades the entry with the model.
	}
	c.stats.Misses++
	return Value{}, false
}

// LookupVerdict returns the cached verdict for f under the given bounds
// when only the sat/unsat answer is needed: it accepts verdict-only
// entries that Lookup (which promises a model) must skip.
func (c *Cache) LookupVerdict(f *expr.Term, bounds map[string]interval.Interval, def interval.Interval) (isSat, ok bool) {
	if c == nil {
		return false, false
	}
	k := KeyOf(f, bounds, def)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*entry).value.Sat, true
	}
	c.stats.Misses++
	return false, false
}

// Store records a decisive verdict for f under the given bounds. Unknown
// answers must not be stored — they depend on budgets, not on the query.
func (c *Cache) Store(f *expr.Term, bounds map[string]interval.Interval, def interval.Interval, v Value) {
	if c == nil {
		return
	}
	k := KeyOf(f, bounds, def)
	v = v.clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Evictions += c.insertLocked(k, v)
}

// insertLocked records v under k as the most recently used entry, keeps
// the byte figure, and evicts past the entry cap, returning how many
// entries it evicted. Caller holds c.mu and owns v's model.
func (c *Cache) insertLocked(k Key, v Value) (evicted uint64) {
	if el, ok := c.entries[k]; ok {
		// Concurrent workers race to fill the same slot; the solver is
		// deterministic, so the values agree and either may win — except
		// that a verdict-only value must not downgrade an entry that
		// already carries a model.
		if old := el.Value.(*entry).value; !(v.verdictOnly() && !old.verdictOnly()) {
			c.bytes += entryBytes(k, v) - entryBytes(k, old)
			el.Value.(*entry).value = v
		}
		c.lru.MoveToFront(el)
		return 0
	}
	c.entries[k] = c.lru.PushFront(&entry{key: k, value: v})
	c.bytes += entryBytes(k, v)
	for len(c.entries) > c.max {
		c.evictOldestLocked()
		evicted++
	}
	return evicted
}

// evictOldestLocked removes the LRU entry. Caller holds c.mu and
// guarantees the cache is non-empty.
func (c *Cache) evictOldestLocked() {
	oldest := c.lru.Back()
	c.lru.Remove(oldest)
	e := oldest.Value.(*entry)
	delete(c.entries, e.key)
	c.bytes -= entryBytes(e.key, e.value)
}

// Approximate per-entry overheads: struct headers, the list element, and
// a share of the map bucket. The goal is a cheap, monotone estimate the
// governor can act on — not malloc-exact truth.
const (
	entryOverheadBytes = 160
	modelEntryBytes    = 48 // map bucket share + name header; name length added separately
)

// entryBytes approximates the heap footprint of one exact entry.
func entryBytes(k Key, v Value) uint64 {
	n := uint64(entryOverheadBytes + len(k.bounds))
	for name := range v.Model {
		n += modelEntryBytes + uint64(len(name))
	}
	return n
}

// ApproxBytes reports the cache's approximate byte footprint. Zero on a
// nil cache. This is the size callback the memory governor polls, so it
// must stay cheap: the figure is maintained incrementally, never
// recomputed.
func (c *Cache) ApproxBytes() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Shrink evicts least-recently-used entries until the approximate
// footprint is at or below targetBytes. A target of 0 empties the cache.
// It returns the number of entries evicted and the approximate bytes
// freed. Safe on a nil cache and safe to race with concurrent
// Lookup/Store traffic — the cache is pure memoization, so shrinking never
// changes results, only hit rates.
func (c *Cache) Shrink(targetBytes uint64) (evicted int, freed uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.bytes
	for c.bytes > targetBytes && len(c.entries) > 0 {
		c.evictOldestLocked()
		c.stats.Evictions++
		evicted++
	}
	return evicted, before - c.bytes
}

// KeyOf returns the exact-entry key a Store for this query would use.
func KeyOf(f *expr.Term, bounds map[string]interval.Interval, def interval.Interval) Key {
	return Key{f: f, bounds: boundsKey(bounds, def)}
}

// InvalidateKey withdraws the exact entry identified by k. Unknown keys
// are a no-op; safe on a nil cache.
func (c *Cache) InvalidateKey(k Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.Remove(el)
		delete(c.entries, k)
		c.bytes -= entryBytes(k, el.Value.(*entry).value)
	}
}

// Invalidate withdraws the entry for f under the given bounds; see
// InvalidateKey.
func (c *Cache) Invalidate(f *expr.Term, bounds map[string]interval.Interval, def interval.Interval) {
	c.InvalidateKey(KeyOf(f, bounds, def))
}

// BoundsKey renders a bounds map canonically, default domain included.
// Exported for the incremental SMT context, which keys its per-bounds-box
// solving state exactly the way the cache keys verdicts.
func BoundsKey(bounds map[string]interval.Interval, def interval.Interval) string {
	return boundsKey(bounds, def)
}

// boundsKey renders a bounds map canonically. The default domain is part
// of the key: it determines both the verdict (domains of unlisted
// variables) and the model that fillModel produces.
func boundsKey(bounds map[string]interval.Interval, def interval.Interval) string {
	var b strings.Builder
	b.WriteString("d")
	writeIv(&b, def)
	if len(bounds) == 0 {
		return b.String()
	}
	names := make([]string, 0, len(bounds))
	for name := range bounds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteByte(';')
		b.WriteString(name)
		writeIv(&b, bounds[name])
	}
	return b.String()
}

func writeIv(b *strings.Builder, iv interval.Interval) {
	b.WriteByte(':')
	b.WriteString(strconv.FormatInt(iv.Lo, 10))
	b.WriteByte(':')
	b.WriteString(strconv.FormatInt(iv.Hi, 10))
}
