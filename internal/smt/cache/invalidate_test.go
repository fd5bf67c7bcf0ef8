package cache

import (
	"fmt"
	"sync"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

func TestInvalidateExactEntry(t *testing.T) {
	c := New(Options{})
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

func TestInvalidateWithdrawsSubsumptionCore(t *testing.T) {
	c := New(Options{})
	// Unsat formula whose core would subsume the stronger query below.
	f := expr.And(expr.Gt(x(), expr.Int(5)), expr.Lt(x(), expr.Int(3)))
	b := map[string]interval.Interval{"x": interval.New(-10, 10)}
	c.Store(f, b, def, Value{Sat: false})

	stronger := expr.And(expr.Gt(x(), expr.Int(5)), expr.Lt(x(), expr.Int(3)), expr.Gt(y(), expr.Int(0)))
	bs := map[string]interval.Interval{"x": interval.New(-10, 10), "y": interval.New(0, 5)}
	if v, ok := c.Lookup(stronger, bs, def); !ok || v.Sat {
		t.Fatal("subsumption index not primed")
	}

	// Pulling the unsat entry must also pull its generalization: a poisoned
	// unsat verdict that kept answering supersets via the core index would
	// defeat the invalidation entirely.
	c.Invalidate(f, b, def)
	if _, ok := c.Lookup(f, b, def); ok {
		t.Fatal("invalidated unsat entry still answers exactly")
	}
	if v, ok := c.Lookup(stronger, bs, def); ok && !v.Sat {
		t.Fatal("invalidated unsat entry still answers via subsumption")
	}
}

func TestInvalidateLeavesOtherCores(t *testing.T) {
	c := New(Options{})
	f1 := expr.And(expr.Gt(x(), expr.Int(5)), expr.Lt(x(), expr.Int(3)))
	f2 := expr.And(expr.Gt(y(), expr.Int(9)), expr.Lt(y(), expr.Int(2)))
	c.Store(f1, nil, def, Value{Sat: false})
	c.Store(f2, nil, def, Value{Sat: false})
	c.Invalidate(f1, nil, def)

	q := expr.And(expr.Gt(y(), expr.Int(9)), expr.Lt(y(), expr.Int(2)), expr.Gt(x(), expr.Int(0)))
	if v, ok := c.Lookup(q, nil, def); !ok || v.Sat {
		t.Fatal("unrelated subsumption core lost to invalidation")
	}
}

func TestCoreEvictionCleansIndex(t *testing.T) {
	c := New(Options{MaxUnsatCores: 2})
	var fs []*expr.Term
	for i := 0; i < 4; i++ {
		f := expr.And(expr.Gt(x(), expr.Int(int64(10+i))), expr.Lt(x(), expr.Int(int64(i))))
		fs = append(fs, f)
		c.Store(f, nil, def, Value{Sat: false})
	}
	// The two oldest cores were evicted; invalidating their source entries
	// must not disturb the two survivors (regression for coreByKey staleness).
	c.Invalidate(fs[0], nil, def)
	c.Invalidate(fs[1], nil, def)
	q := expr.And(expr.Gt(x(), expr.Int(13)), expr.Lt(x(), expr.Int(3)), expr.Gt(y(), expr.Int(0)))
	if v, ok := c.Lookup(q, nil, def); !ok || v.Sat {
		t.Fatal("surviving core lost after evicted-core invalidation")
	}
	if c.cores.Len() != 2 || len(c.coreByKey) != 2 {
		t.Fatalf("core index inconsistent: list=%d map=%d", c.cores.Len(), len(c.coreByKey))
	}
}

// TestConcurrentSubsumptionWriters exercises the unsat-core subsumption
// index under 4 concurrent writers mixed with invalidations and subsuming
// readers — the exact access pattern of 4 exploration workers sharing one
// cache while the guard layer pulls poisoned entries. Run under -race.
func TestConcurrentSubsumptionWriters(t *testing.T) {
	c := New(Options{MaxEntries: 64, MaxUnsatCores: 16})
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
				q := expr.And(expr.Gt(v, expr.Int(5)), expr.Lt(v, expr.Int(3)), expr.Gt(x(), expr.Int(0)))
				qb := map[string]interval.Interval{v.Name: interval.New(-10, 10), "x": interval.New(0, 5)}
				if val, ok := c.Lookup(q, qb, def); ok && val.Sat {
					t.Error("subsumption produced a sat verdict for an unsat superset")
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
	if got, want := c.cores.Len(), len(c.coreByKey); got < want {
		t.Fatalf("core index leaked: list=%d map=%d", got, want)
	}
}

// TestImportDoesNotResurrectInvalidatedCore: an Export taken after
// Invalidate carries neither the withdrawn entry nor its subsumption core,
// so a snapshot written after an epoch withdrew a verdict cannot bring it
// back on import.
func TestImportDoesNotResurrectInvalidatedCore(t *testing.T) {
	b := map[string]interval.Interval{"x": interval.New(0, 10)}
	f := expr.And(expr.Gt(x(), expr.Int(5)), expr.Lt(x(), expr.Int(3)))
	super := expr.And(expr.Gt(x(), expr.Int(5)), expr.Lt(x(), expr.Int(3)), expr.Gt(y(), expr.Int(0)))

	src := New(Options{})
	src.Store(f, b, def, Value{Sat: false})
	src.Invalidate(f, b, def)

	clean := src.Export()
	for _, e := range clean.Entries {
		if (key{f: e.F, bounds: e.Bounds}) == (key{f: f, bounds: BoundsKey(b, def)}) {
			t.Fatal("export still carries the invalidated entry")
		}
	}
	if len(clean.Cores) != 0 {
		t.Fatalf("export still carries %d cores after invalidation", len(clean.Cores))
	}
	dst := New(Options{})
	if err := dst.Import(clean); err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.LookupVerdict(f, b, def); ok {
		t.Fatal("import resurrected the withdrawn entry")
	}
	if _, ok := dst.LookupVerdict(super, b, def); ok {
		t.Fatal("import resurrected the withdrawn core")
	}
}
