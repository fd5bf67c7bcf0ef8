package cache

import (
	"fmt"
	"sync"
	"testing"

	"cpr/internal/expr"
)

// fill stores n distinct sat entries (distinct formulas over x).
func fill(c *Cache, n int) {
	for i := 0; i < n; i++ {
		f := expr.Gt(x(), expr.Int(int64(i)))
		c.Store(f, nil, def, Value{Sat: true, Model: expr.Model{"x": int64(i) + 1}})
	}
}

func TestShrinkToTarget(t *testing.T) {
	c := New()
	fill(c, 100)
	if evicted := c.Shrink(100); evicted != 0 {
		t.Fatalf("Shrink(100) on 100 entries evicted %d", evicted)
	}
	if evicted := c.Shrink(25); evicted != 75 {
		t.Fatalf("Shrink(25) evicted %d, want 75", evicted)
	}
	if c.Len() != 25 {
		t.Fatalf("Len = %d after Shrink(25)", c.Len())
	}
	if st := c.Stats(); st.Evictions != 75 {
		t.Fatalf("stats %+v, want 75 evictions", st)
	}
	// Shrinking keeps the MRU end: exactly the 25 newest entries survive.
	for i := 0; i < 100; i++ {
		f := expr.Gt(x(), expr.Int(int64(i)))
		if _, ok := c.LookupVerdict(f, nil, def); ok != (i >= 75) {
			t.Fatalf("entry %d present=%v after Shrink(25)", i, ok)
		}
	}
}

func TestShrinkToZeroEmptiesEverything(t *testing.T) {
	c := New()
	fill(c, 20)
	for i := 0; i < 5; i++ {
		f := expr.And(expr.Gt(x(), expr.Int(int64(10+i))), expr.Lt(x(), expr.Int(0)))
		c.Store(f, nil, def, Value{Sat: false})
	}
	if evicted := c.Shrink(0); evicted != 25 || c.Len() != 0 || c.lru.Len() != 0 {
		t.Fatalf("Shrink(0) evicted %d, left len=%d list=%d", evicted, c.Len(), c.lru.Len())
	}
	var nilCache *Cache
	if nilCache.Shrink(0) != 0 {
		t.Fatal("nil Shrink did something")
	}
}

// TestShrinkRacesConcurrentWriters hammers Store/Lookup from several
// goroutines while another goroutine repeatedly shrinks. Run under -race
// this proves the locking; the final check proves the map and the LRU
// list survive the interleaving consistent with each other.
func TestShrinkRacesConcurrentWriters(t *testing.T) {
	c := New()
	c.max = 512
	var writers, shrinker sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				f := expr.Gt(expr.IntVar(fmt.Sprintf("v%d", w)), expr.Int(int64(i%257)))
				if i%3 == 0 {
					c.Store(f, nil, def, Value{Sat: false})
				} else {
					c.Store(f, nil, def, Value{Sat: true, Model: expr.Model{"x": int64(i)}})
				}
				c.Lookup(f, nil, def)
			}
		}()
	}
	shrinker.Add(1)
	go func() {
		defer shrinker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Shrink(c.Len() / 2)
		}
	}()
	writers.Wait()
	close(stop)
	shrinker.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != c.lru.Len() {
		t.Fatalf("map holds %d entries, LRU list %d", len(c.entries), c.lru.Len())
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		k := el.Value.(*entry).key
		if c.entries[k] != el {
			t.Fatalf("LRU element for %v is not the map's", k)
		}
	}
}
