package cache

import (
	"fmt"
	"sync"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

var def = interval.New(-100, 100)

func x() *expr.Term { return expr.IntVar("x") }
func y() *expr.Term { return expr.IntVar("y") }

func TestExactHitMiss(t *testing.T) {
	c := New()
	f := expr.Gt(x(), expr.Int(3))
	b := map[string]interval.Interval{"x": interval.New(0, 10)}

	if _, ok := c.Lookup(f, b, def); ok {
		t.Fatal("lookup on empty cache hit")
	}
	c.Store(f, b, def, Value{Sat: true, Model: expr.Model{"x": 4}})
	v, ok := c.Lookup(f, b, def)
	if !ok || !v.Sat || v.Model["x"] != 4 {
		t.Fatalf("expected sat hit with model x=4, got %+v ok=%v", v, ok)
	}

	// A different bounds map is a different query.
	if _, ok := c.Lookup(f, map[string]interval.Interval{"x": interval.New(0, 5)}, def); ok {
		t.Fatal("hit across different bounds")
	}
	// A different default domain is a different query too.
	if _, ok := c.Lookup(f, b, interval.New(-5, 5)); ok {
		t.Fatal("hit across different default bounds")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses", st)
	}
}

func TestModelIsolation(t *testing.T) {
	c := New()
	f := expr.Gt(x(), expr.Int(0))
	stored := expr.Model{"x": 1}
	c.Store(f, nil, def, Value{Sat: true, Model: stored})
	stored["x"] = 99 // caller mutates its map after Store

	v1, _ := c.Lookup(f, nil, def)
	if v1.Model["x"] != 1 {
		t.Fatalf("cache shares the caller's model map: got x=%d", v1.Model["x"])
	}
	v1.Model["x"] = 77 // hit receiver mutates its copy
	v2, _ := c.Lookup(f, nil, def)
	if v2.Model["x"] != 1 {
		t.Fatalf("cache shares hit models between callers: got x=%d", v2.Model["x"])
	}
}

func TestLRUEviction(t *testing.T) {
	c := New()
	c.max = 2
	fs := []*expr.Term{
		expr.Gt(x(), expr.Int(0)),
		expr.Gt(x(), expr.Int(1)),
		expr.Gt(x(), expr.Int(2)),
	}
	c.Store(fs[0], nil, def, Value{Sat: true, Model: expr.Model{"x": 1}})
	c.Store(fs[1], nil, def, Value{Sat: true, Model: expr.Model{"x": 2}})
	c.Lookup(fs[0], nil, def) // refresh 0; 1 is now the LRU entry
	c.Store(fs[2], nil, def, Value{Sat: true, Model: expr.Model{"x": 3}})

	if c.Len() != 2 {
		t.Fatalf("len = %d after eviction, want 2", c.Len())
	}
	if _, ok := c.Lookup(fs[1], nil, def); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Lookup(fs[0], nil, def); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestNeverStoresNilReceiver(t *testing.T) {
	var c *Cache
	f := expr.Gt(x(), expr.Int(0))
	c.Store(f, nil, def, Value{Sat: true})
	if _, ok := c.Lookup(f, nil, def); ok {
		t.Fatal("nil cache returned a hit")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	c.max = 64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f := expr.Gt(x(), expr.Int(int64(i%100)))
				b := map[string]interval.Interval{"x": interval.New(0, int64(10+i%5))}
				if v, ok := c.Lookup(f, b, def); ok {
					if want := int64(i % 100); v.Model["x"] != want {
						panic(fmt.Sprintf("goroutine %d: model x=%d, want %d", g, v.Model["x"], want))
					}
					continue
				}
				c.Store(f, b, def, Value{Sat: true, Model: expr.Model{"x": int64(i % 100)}})
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("lookups = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}

func TestVerdictOnlyEntries(t *testing.T) {
	c := New()
	f := expr.Gt(x(), expr.Int(0))
	b := map[string]interval.Interval{"x": interval.New(0, 10)}

	// A verdict-only sat entry answers LookupVerdict but not Lookup.
	c.Store(f, b, def, Value{Sat: true})
	if isSat, ok := c.LookupVerdict(f, b, def); !ok || !isSat {
		t.Fatalf("LookupVerdict after verdict-only store: sat=%v ok=%v", isSat, ok)
	}
	if _, ok := c.Lookup(f, b, def); ok {
		t.Fatal("Lookup returned a sat hit without a model")
	}

	// Storing the model upgrades the entry in place.
	c.Store(f, b, def, Value{Sat: true, Model: expr.Model{"x": 1}})
	if v, ok := c.Lookup(f, b, def); !ok || v.Model["x"] != 1 {
		t.Fatalf("upgraded entry not visible to Lookup: %+v ok=%v", v, ok)
	}
	// A later verdict-only store must not downgrade it.
	c.Store(f, b, def, Value{Sat: true})
	if v, ok := c.Lookup(f, b, def); !ok || v.Model["x"] != 1 {
		t.Fatalf("verdict-only store downgraded a model entry: %+v ok=%v", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want a single upgraded entry", c.Len())
	}
}

func TestLookupVerdictUnsatAndSubsumption(t *testing.T) {
	c := New()
	f := expr.And(expr.Gt(x(), expr.Int(5)), expr.Lt(x(), expr.Int(3)))
	b := map[string]interval.Interval{"x": interval.New(0, 10)}
	c.Store(f, b, def, Value{Sat: false})

	if isSat, ok := c.LookupVerdict(f, b, def); !ok || isSat {
		t.Fatalf("exact unsat verdict: sat=%v ok=%v", isSat, ok)
	}
	// The cache is exact: a superset conjunction over the same bounds is a
	// different query, answered by solving, not by generalizing f's verdict.
	super := expr.And(f, expr.Gt(y(), expr.Int(0)))
	if _, ok := c.LookupVerdict(super, b, def); ok {
		t.Fatal("superset conjunction answered from another query's entry")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}
