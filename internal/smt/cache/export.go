package cache

import (
	"fmt"
	"strconv"
	"strings"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

// Export/Import move a cache's contents across a process death: the
// checkpoint layer (internal/journal callers) exports the learned verdicts
// at a snapshot barrier and re-imports them on resume, so a resumed run
// answers the same queries from cache that the uninterrupted run would
// have. Traffic stats are not exported — the resuming engine carries those
// in its own snapshot as baselines.

// ExportedEntry is one exact verdict entry. Bounds is the canonical
// bounds-key rendering (BoundsKey).
type ExportedEntry struct {
	F      *expr.Term
	Bounds string
	Value  Value
}

// Export is a cache's full retained content, ordered oldest-first so a
// faithful Import replays insertions in LRU order.
type Export struct {
	Entries []ExportedEntry
}

// Export snapshots the cache's entries, oldest-first. Models are cloned;
// the export shares nothing mutable with the live cache. A nil cache
// exports empty.
func (c *Cache) Export() Export {
	if c == nil {
		return Export{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var ex Export
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		ex.Entries = append(ex.Entries, ExportedEntry{F: e.key.f, Bounds: e.key.bounds, Value: e.value.clone()})
	}
	return ex
}

// Import replays an export into the cache: entries are inserted in order
// (so LRU recency matches the exporting cache), each one counted in
// ApproxBytes exactly as a live Store would count it. Import counts no
// traffic and is meant for an empty cache; entries beyond the cache's
// limits evict oldest-first as live Stores would (without counting
// evictions). The export is read from disk, so a malformed bounds key is
// rejected.
func (c *Cache) Import(ex Export) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range ex.Entries {
		if e.F == nil {
			return fmt.Errorf("cache import: entry with nil formula")
		}
		if _, _, err := parseBoundsKey(e.Bounds); err != nil {
			return err
		}
		c.insertLocked(Key{f: e.F, bounds: e.Bounds}, e.Value.clone())
	}
	return nil
}

// parseBoundsKey inverts boundsKey: "d:lo:hi" then ";name:lo:hi" per
// variable. Variable names are identifiers (no ':' or ';'), so the
// rendering is unambiguous.
func parseBoundsKey(s string) (def interval.Interval, bounds map[string]interval.Interval, err error) {
	fields := strings.Split(s, ";")
	name, iv, err := parseBoundsField(fields[0])
	if err != nil || name != "d" {
		return def, nil, fmt.Errorf("cache import: malformed bounds key %q", s)
	}
	def = iv
	if len(fields) > 1 {
		bounds = make(map[string]interval.Interval, len(fields)-1)
		for _, f := range fields[1:] {
			name, iv, err := parseBoundsField(f)
			if err != nil || name == "" {
				return def, nil, fmt.Errorf("cache import: malformed bounds key %q", s)
			}
			bounds[name] = iv
		}
	}
	return def, bounds, nil
}

func parseBoundsField(f string) (string, interval.Interval, error) {
	var iv interval.Interval
	i := strings.IndexByte(f, ':')
	j := strings.LastIndexByte(f, ':')
	if i < 0 || j <= i {
		return "", iv, fmt.Errorf("cache import: malformed bounds field %q", f)
	}
	lo, err1 := strconv.ParseInt(f[i+1:j], 10, 64)
	hi, err2 := strconv.ParseInt(f[j+1:], 10, 64)
	if err1 != nil || err2 != nil {
		return "", iv, fmt.Errorf("cache import: malformed bounds field %q", f)
	}
	return f[:i], interval.Interval{Lo: lo, Hi: hi}, nil
}
