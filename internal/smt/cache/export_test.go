package cache

import (
	"fmt"
	"sync"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

func TestExportImportRoundTrip(t *testing.T) {
	c := New()
	b := map[string]interval.Interval{"x": interval.New(0, 10)}

	fSat := expr.Gt(x(), expr.Int(3))
	c.Store(fSat, b, def, Value{Sat: true, Model: expr.Model{"x": 4}})
	fVerdict := expr.Lt(x(), expr.Int(50))
	c.Store(fVerdict, nil, def, Value{Sat: true}) // verdict-only
	fUnsat := expr.And(expr.Gt(x(), expr.Int(5)), expr.Lt(x(), expr.Int(2)))
	c.Store(fUnsat, b, def, Value{Sat: false})

	ex := c.Export()
	if len(ex.Entries) != 3 {
		t.Fatalf("exported %d entries, want 3", len(ex.Entries))
	}

	fresh := New()
	if err := fresh.Import(ex); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 3 {
		t.Fatalf("imported cache holds %d entries, want 3", fresh.Len())
	}

	// Exact sat entry with model survives.
	v, ok := fresh.Lookup(fSat, b, def)
	if !ok || !v.Sat || v.Model["x"] != 4 {
		t.Fatalf("sat entry lost: %+v ok=%v", v, ok)
	}
	// Verdict-only entry answers LookupVerdict but not Lookup.
	if _, ok := fresh.Lookup(fVerdict, nil, def); ok {
		t.Fatal("verdict-only entry answered a model lookup")
	}
	if sat, ok := fresh.LookupVerdict(fVerdict, nil, def); !ok || !sat {
		t.Fatalf("verdict-only entry lost: sat=%v ok=%v", sat, ok)
	}
	// Unsat entry survives.
	if sat, ok := fresh.LookupVerdict(fUnsat, b, def); !ok || sat {
		t.Fatalf("unsat entry lost: sat=%v ok=%v", sat, ok)
	}

	// Import left traffic stats untouched except the lookups above.
	st := fresh.Stats()
	if st.Evictions != 0 {
		t.Fatalf("import counted %d evictions", st.Evictions)
	}
}

func TestExportIsolation(t *testing.T) {
	c := New()
	f := expr.Eq(x(), expr.Int(7))
	c.Store(f, nil, def, Value{Sat: true, Model: expr.Model{"x": 7}})
	ex := c.Export()
	ex.Entries[0].Value.Model["x"] = 999
	v, ok := c.Lookup(f, nil, def)
	if !ok || v.Model["x"] != 7 {
		t.Fatalf("mutating an export leaked into the cache: %+v", v)
	}
}

func TestImportRespectsLimits(t *testing.T) {
	big := New()
	big.max = 16
	var oldest *expr.Term
	for i := 0; i < 16; i++ {
		f := expr.Eq(x(), expr.Int(int64(i)))
		if i == 0 {
			f = expr.And(expr.Gt(x(), expr.Int(5)), expr.Lt(x(), expr.Int(2)))
			oldest = f
			big.Store(f, nil, def, Value{Sat: false})
			continue
		}
		big.Store(f, nil, def, Value{Sat: true, Model: expr.Model{"x": int64(i)}})
	}
	small := New()
	small.max = 4
	if err := small.Import(big.Export()); err != nil {
		t.Fatal(err)
	}
	if small.Len() != 4 {
		t.Fatalf("imported cache holds %d entries, want the 4 newest", small.Len())
	}
	if _, ok := small.LookupVerdict(oldest, nil, def); ok {
		t.Fatal("the oldest exported entry survived an import past the cap")
	}
	if st := small.Stats(); st.Evictions != 0 {
		t.Fatalf("import counted %d evictions", st.Evictions)
	}
}

func TestImportRejectsMalformed(t *testing.T) {
	c := New()
	if err := c.Import(Export{Entries: []ExportedEntry{{F: nil, Bounds: "d:0:1"}}}); err == nil {
		t.Fatal("imported a nil formula")
	}
	if err := c.Import(Export{Entries: []ExportedEntry{{F: x(), Bounds: "garbage"}}}); err == nil {
		t.Fatal("imported a malformed bounds key")
	}
}

func TestParseBoundsKeyRoundTrip(t *testing.T) {
	cases := []struct {
		bounds map[string]interval.Interval
		def    interval.Interval
	}{
		{nil, interval.New(-100, 100)},
		{map[string]interval.Interval{"x": interval.New(0, 10)}, interval.New(-5, 5)},
		{map[string]interval.Interval{"a": interval.New(-9, -1), "zz": interval.New(3, 3)}, interval.New(-1<<40, 1<<40)},
	}
	for _, tc := range cases {
		s := BoundsKey(tc.bounds, tc.def)
		def2, bounds2, err := parseBoundsKey(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if BoundsKey(bounds2, def2) != s {
			t.Fatalf("round trip of %q produced %q", s, BoundsKey(bounds2, def2))
		}
	}
}

// TestExportImportDeltaRoundtripConcurrent drives repeated Export/Import
// rounds while other goroutines keep calling Store, importing only the
// entries not shipped in an earlier round, and checks that every verdict
// that made it into an export lands intact in the importing cache, with
// models preserved.
func TestExportImportDeltaRoundtripConcurrent(t *testing.T) {
	src := New()
	dst := New()
	b := map[string]interval.Interval{"x": interval.New(0, 1000)}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := expr.Gt(expr.IntVar(fmt.Sprintf("x%d_%d", w, i%64)), expr.Int(int64(i%32)))
				if i%3 == 0 {
					src.Store(f, b, def, Value{Sat: false})
				} else {
					src.Store(f, b, def, Value{Sat: true, Model: expr.Model{"x": int64(i)}})
				}
			}
		}(w)
	}

	// Delta exchanges under fire: each round exports whatever is retained,
	// filters against what was already shipped, and imports the remainder.
	sent := make(map[Key]bool)
	for round := 0; round < 20; round++ {
		ex := src.Export()
		var delta Export
		for _, e := range ex.Entries {
			k := Key{f: e.F, bounds: e.Bounds}
			if sent[k] {
				continue
			}
			sent[k] = true
			delta.Entries = append(delta.Entries, e)
		}
		if err := dst.Import(delta); err != nil {
			t.Fatalf("round %d: import: %v", round, err)
		}
		// Everything in this delta must now answer from dst (unless its
		// own volume evicted it — bounded caches may drop oldest-first).
		for _, e := range delta.Entries {
			def2, bounds2, err := parseBoundsKey(e.Bounds)
			if err != nil {
				t.Fatalf("exported bounds key unparseable: %v", err)
			}
			sat, ok := dst.LookupVerdict(e.F, bounds2, def2)
			if ok && sat != e.Value.Sat {
				t.Fatalf("round %d: imported verdict flipped: want sat=%v", round, e.Value.Sat)
			}
		}
	}
	close(stop)
	wg.Wait()

	// A final quiescent roundtrip into a fresh cache must be faithful
	// entry-for-entry.
	final := src.Export()
	fresh := New()
	if err := fresh.Import(final); err != nil {
		t.Fatal(err)
	}
	for _, e := range final.Entries {
		def2, bounds2, err := parseBoundsKey(e.Bounds)
		if err != nil {
			t.Fatal(err)
		}
		sat, ok := fresh.LookupVerdict(e.F, bounds2, def2)
		if !ok || sat != e.Value.Sat {
			t.Fatalf("quiescent roundtrip lost or flipped an entry (ok=%v sat=%v want %v)", ok, sat, e.Value.Sat)
		}
		if e.Value.Model != nil {
			v, ok := fresh.Lookup(e.F, bounds2, def2)
			if !ok || v.Model == nil {
				t.Fatal("quiescent roundtrip dropped a model")
			}
		}
	}
}
