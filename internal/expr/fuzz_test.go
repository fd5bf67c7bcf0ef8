package expr

import "testing"

// FuzzParseSpec fuzzes the specification parser, which cprd runs on the
// untrusted "spec" field of every submitted job. Arbitrary text either
// fails to parse or yields a term whose printed form — the parser's own
// syntax — parses again and prints identically.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		// The cprd CI job.
		"(and (distinct x 0) (distinct y 0))",
		// Benchmark subjects.
		"(and (<= r0 r1) (<= r1 r2))",
		"(= (* 2 s) (* n (- n 1)))",
		"(= strips (div (+ length (- rps 1)) rps))",
		"(< (+ (rem size bsize) bsize) 9)",
		"(or (distinct cmp (- 1)) (< c0 d0) (< c1 d1))",
		"(and (>= (- yend ystart) 0) (< (- yend ystart) 12))",
		// Boolean variables, connectives, and odd spacing.
		"(=> p (not (ite p (> x 0) (< y -3))))",
		" ( or  true\tfalse ) ",
		"(",
	} {
		f.Add(s)
	}
	vars := IntVarsFrom("x", "y", "n", "s", "r0", "r1", "r2", "strips", "length", "rps",
		"size", "bsize", "cmp", "c0", "c1", "d0", "d1", "ystart", "yend")
	vars["p"] = SortBool
	f.Fuzz(func(t *testing.T, src string) {
		term, err := Parse(src, vars)
		if err != nil {
			return
		}
		text := term.String()
		again, err := Parse(text, vars)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q) printed %q, which reparses and prints as %q", src, text, got)
		}
	})
}
