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
	if len(c.entries) != c.lru.Len() {
		t.Fatalf("cache inconsistent: map=%d list=%d", len(c.entries), c.lru.Len())
	}
}

// TestImportDoesNotResurrectInvalidatedCore: Invalidate withdraws an unsat
// verdict from both the entry map and the LRU list, so no later lookup,
// eviction or unrelated store can bring the withdrawn verdict back.
// Snapshots no longer carry the cache, so this is the only place a
// withdrawn verdict could linger.
func TestImportDoesNotResurrectInvalidatedCore(t *testing.T) {
	b := map[string]interval.Interval{"x": interval.New(0, 10)}
	f := expr.And(expr.Gt(x(), expr.Int(5)), expr.Lt(x(), expr.Int(3)))

	c := New()
	c.Store(f, b, def, Value{Sat: false})
	c.Invalidate(f, b, def)
	if _, ok := c.LookupVerdict(f, b, def); ok {
		t.Fatal("invalidated unsat entry still answers")
	}

	withdrawn := KeyOf(f, b, def)
	c.mu.Lock()
	_, inMap := c.entries[withdrawn]
	inList := false
	for e := c.lru.Front(); e != nil; e = e.Next() {
		if e.Value.(*entry).key == withdrawn {
			inList = true
		}
	}
	c.mu.Unlock()
	if inMap || inList {
		t.Fatalf("withdrawn entry still held: map=%v list=%v", inMap, inList)
	}

	for i := 0; i < 4; i++ {
		c.Store(expr.Ge(x(), expr.Int(int64(i))), b, def, Value{Sat: true, Model: expr.Model{"x": 9}})
	}
	c.Shrink(2)
	if _, ok := c.LookupVerdict(f, b, def); ok {
		t.Fatal("stores and a shrink resurrected the withdrawn entry")
	}
	if _, ok := c.Lookup(f, b, def); ok {
		t.Fatal("a full lookup answers the withdrawn entry")
	}
}
