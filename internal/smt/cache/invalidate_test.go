package cache

import (
	"fmt"
	"sync"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

func TestInvalidateExactEntry(t *testing.T) {
	c := New()
	f := expr.Gt(x(), expr.Int(3))
	b := map[string]interval.Interval{"x": interval.New(0, 10)}
	c.Store(f, b, def, Value{Sat: true, Model: expr.Model{"x": 4}})
	k := KeyOf(f, b, def)
	c.InvalidateKey(k)
	if _, ok := c.Lookup(f, b, def); ok {
		t.Fatal("invalidated entry still answers")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after invalidation, want 0", c.Len())
	}
	// Idempotent, and a zero key is a no-op.
	c.InvalidateKey(k)
	c.InvalidateKey(Key{})
}

// TestConcurrentInvalidateWriters races Store, Lookup and Invalidate from
// 4 concurrent writers — the access pattern of 4 exploration workers
// sharing one cache while the guard layer pulls poisoned entries. Run
// under -race; the final check proves the entry map, the LRU list and the
// byte figure survive the interleaving.
func TestConcurrentInvalidateWriters(t *testing.T) {
	c := New()
	c.max = 64
	const workers = 4
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v := expr.IntVar(fmt.Sprintf("v%d", i%8))
				unsat := expr.And(expr.Gt(v, expr.Int(5)), expr.Lt(v, expr.Int(3)))
				b := map[string]interval.Interval{v.Name: interval.New(-10, int64(10+w))}
				c.Store(unsat, b, def, Value{Sat: false})
				if val, ok := c.Lookup(unsat, b, def); ok && val.Sat {
					t.Error("an unsat entry answered sat")
					return
				}
				if i%3 == 0 {
					c.Invalidate(unsat, b, def)
				}
				sat := expr.Ge(v, expr.Int(int64(i%4)))
				c.Store(sat, b, def, Value{Sat: true, Model: expr.Model{v.Name: 7}})
				c.Lookup(sat, b, def)
			}
		}(w)
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	var want uint64
	for _, el := range c.entries {
		e := el.Value.(*entry)
		want += entryBytes(e.key, e.value)
	}
	if len(c.entries) != c.lru.Len() || c.bytes != want {
		t.Fatalf("cache inconsistent: map=%d list=%d bytes=%d recomputed=%d", len(c.entries), c.lru.Len(), c.bytes, want)
	}
}

// TestImportDoesNotResurrectInvalidatedCore: an Export taken after
// Invalidate does not carry the withdrawn entry, so a snapshot written
// after an epoch withdrew a verdict cannot bring it back on import.
func TestImportDoesNotResurrectInvalidatedCore(t *testing.T) {
	b := map[string]interval.Interval{"x": interval.New(0, 10)}
	f := expr.And(expr.Gt(x(), expr.Int(5)), expr.Lt(x(), expr.Int(3)))

	src := New()
	src.Store(f, b, def, Value{Sat: false})
	src.Invalidate(f, b, def)
	if _, ok := src.LookupVerdict(f, b, def); ok {
		t.Fatal("invalidated unsat entry still answers")
	}

	clean := src.Export()
	for _, e := range clean.Entries {
		if (Key{f: e.F, bounds: e.Bounds}) == (Key{f: f, bounds: BoundsKey(b, def)}) {
			t.Fatal("export still carries the invalidated entry")
		}
	}
	dst := New()
	if err := dst.Import(clean); err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.LookupVerdict(f, b, def); ok {
		t.Fatal("import resurrected the withdrawn entry")
	}
}
