package cache

import (
	"fmt"
	"sync"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

// fill stores n distinct sat entries (distinct formulas over x).
func fill(c *Cache, n int) {
	for i := 0; i < n; i++ {
		f := expr.Gt(x(), expr.Int(int64(i)))
		c.Store(f, nil, def, Value{Sat: true, Model: expr.Model{"x": int64(i) + 1}})
	}
}

func TestApproxBytesTracksInserts(t *testing.T) {
	c := New()
	if got := c.ApproxBytes(); got != 0 {
		t.Fatalf("empty cache ApproxBytes = %d", got)
	}
	fill(c, 10)
	got := c.ApproxBytes()
	if got == 0 {
		t.Fatal("ApproxBytes stayed 0 after stores")
	}
	// Per-entry floor: overhead + bounds string + one model var.
	if min := uint64(10 * entryOverheadBytes); got < min {
		t.Fatalf("ApproxBytes = %d, want >= %d", got, min)
	}
	var nilCache *Cache
	if nilCache.ApproxBytes() != 0 {
		t.Fatal("nil ApproxBytes non-zero")
	}
}

func TestApproxBytesReturnsToZero(t *testing.T) {
	c := New()
	// Mix a sat entry with a verdict-only upgrade and an unsat entry so
	// every accounting path runs.
	f1 := expr.Gt(x(), expr.Int(1))
	c.Store(f1, nil, def, Value{Sat: true})                            // verdict-only
	c.Store(f1, nil, def, Value{Sat: true, Model: expr.Model{"x": 2}}) // upgrade
	f2 := expr.And(expr.Gt(x(), expr.Int(5)), expr.Lt(x(), expr.Int(0)))
	b := map[string]interval.Interval{"x": interval.New(0, 10)}
	c.Store(f2, b, def, Value{Sat: false})
	c.Invalidate(f1, nil, def)
	c.Invalidate(f2, b, def)
	if got := c.ApproxBytes(); got != 0 {
		t.Fatalf("ApproxBytes = %d after invalidating everything, want 0", got)
	}
}

// TestApproxBytesCountsImport: imported entries count toward the
// footprint exactly as stored ones do, so after a resume the governor
// sees the restored cache, invalidation cannot underflow the figure, and
// Shrink(0) can empty it.
func TestApproxBytesCountsImport(t *testing.T) {
	src := New()
	fill(src, 40)
	b := map[string]interval.Interval{"x": interval.New(0, 10)}
	for i := 0; i < 10; i++ {
		src.Store(expr.Lt(x(), expr.Int(int64(-i))), b, def, Value{Sat: false})
	}
	ex := src.Export()
	if len(ex.Entries) != 50 {
		t.Fatalf("exported %d entries, want 50", len(ex.Entries))
	}
	dst := New()
	if err := dst.Import(ex); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.ApproxBytes(), src.ApproxBytes(); got != want {
		t.Fatalf("ApproxBytes = %d after Import, source holds %d", got, want)
	}
	for _, e := range ex.Entries {
		dst.InvalidateKey(Key{f: e.F, bounds: e.Bounds})
	}
	if got := dst.ApproxBytes(); got != 0 {
		t.Fatalf("ApproxBytes = %d after invalidating every imported entry, want 0", got)
	}
	if err := dst.Import(ex); err != nil {
		t.Fatal(err)
	}
	dst.Shrink(0)
	if dst.Len() != 0 || dst.ApproxBytes() != 0 {
		t.Fatalf("Shrink(0) after Import left len=%d bytes=%d", dst.Len(), dst.ApproxBytes())
	}
}

func TestShrinkToTarget(t *testing.T) {
	c := New()
	fill(c, 100)
	before := c.ApproxBytes()
	target := before / 2
	evicted, freed := c.Shrink(target)
	if evicted == 0 || freed == 0 {
		t.Fatalf("Shrink(%d) evicted=%d freed=%d", target, evicted, freed)
	}
	if got := c.ApproxBytes(); got > target {
		t.Fatalf("ApproxBytes = %d after Shrink(%d)", got, target)
	}
	if before-c.ApproxBytes() != freed {
		t.Fatalf("freed %d but footprint dropped %d", freed, before-c.ApproxBytes())
	}
	if st := c.Stats(); st.Evictions != uint64(evicted) {
		t.Fatalf("stats %+v, want %d evictions", st, evicted)
	}
	// Shrinking keeps the MRU end: the newest entry must survive.
	f := expr.Gt(x(), expr.Int(99))
	if _, ok := c.Lookup(f, nil, def); !ok {
		t.Fatal("Shrink evicted the most-recently-used entry")
	}
}

func TestShrinkToZeroEmptiesEverything(t *testing.T) {
	c := New()
	fill(c, 20)
	for i := 0; i < 5; i++ {
		f := expr.And(expr.Gt(x(), expr.Int(int64(10+i))), expr.Lt(x(), expr.Int(0)))
		c.Store(f, nil, def, Value{Sat: false})
	}
	c.Shrink(0)
	if c.Len() != 0 || c.ApproxBytes() != 0 {
		t.Fatalf("Shrink(0) left len=%d bytes=%d", c.Len(), c.ApproxBytes())
	}
	var nilCache *Cache
	if e, f := nilCache.Shrink(0); e != 0 || f != 0 {
		t.Fatal("nil Shrink did something")
	}
}

// TestShrinkRacesConcurrentWriters is the satellite's shrink race test:
// hammer Store/Lookup from several goroutines while another goroutine
// repeatedly shrinks. Run under -race this proves the locking; the final
// consistency check proves the byte accounting survives interleaving.
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
			c.Shrink(c.ApproxBytes() / 2)
		}
	}()
	writers.Wait()
	close(stop)
	shrinker.Wait()

	// Consistency: recompute the footprint from scratch and compare with
	// the running figure.
	c.mu.Lock()
	var want uint64
	for _, el := range c.entries {
		e := el.Value.(*entry)
		want += entryBytes(e.key, e.value)
	}
	got := c.bytes
	c.mu.Unlock()
	if got != want {
		t.Fatalf("running bytes %d != recomputed %d after concurrent shrink", got, want)
	}
}
