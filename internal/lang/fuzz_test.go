package lang

import "testing"

// FuzzParseProgram fuzzes the mini-C front end, which cprd runs on the
// untrusted "program" field of every submitted job. Arbitrary text either
// fails to parse and type-check, or yields a program whose formatted
// source parses again and formats identically.
func FuzzParseProgram(f *testing.F) {
	for _, s := range []string{
		// The cprd CI job.
		"void main(int x, int y) { if (__HOLE__) { return; } __BUG__; int c = 100 / x; int d = c / y; }",
		// Benchmark subjects: a guard, a loop condition, an integer hole.
		`
void main(int off, int count) {
    assume(count >= 0);
    assume(count <= 8);
    int aligned = off % 2;
    if (__HOLE__) {
        return;
    }
    __BUG__;
    assert(aligned == 0);
}`,
		`
void main(int ncomp, int alloc) {
    int bufs[6];
    assume(alloc >= 0);
    assume(alloc <= 6);
    int i = 0;
    while (__HOLE__) {
        __BUG__;
        bufs[i] = 0;
        i = i + 1;
    }
}`,
		`
int main(int length, int rps) {
    assume(rps >= 1);
    int strips = (length + __HOLE__) / rps;
    __BUG__;
    assert(strips == (length + rps - 1) / rps);
    return strips;
}`,
		sampleSrc,
		// Arrays, for loops, else-if chains, booleans, braceless bodies.
		`
void main(int x) {
    int a[3] = {1, 2, x};
    bool ok = !(x < 0) && true;
    for (int i = 0; i < 3; i = i + 1) a[i] = -a[i] * 2;
    if (ok) assert(a[0] == 2); else if (x > 0) { assume(x < 5); } else { __BUG__; }
}`,
		"void main(int x) { int y = ; }",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(prog, "")
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) formatted as\n%s\nwhich does not parse: %v", src, text, err)
		}
		if got := Format(again, ""); got != text {
			t.Fatalf("Parse(%q) formatted as\n%s\nwhich reparses and formats as\n%s", src, text, got)
		}
	})
}
