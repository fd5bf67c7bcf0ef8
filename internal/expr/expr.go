// Package expr provides immutable, hash-consed logical terms over the
// integer and boolean sorts. Terms are the lingua franca of the repair
// system: the concolic executor emits path constraints as terms, the
// synthesizer enumerates candidate patch expressions as terms, and the SMT
// solver decides satisfiability of terms.
//
// Terms are interned: two structurally equal terms are represented by the
// same pointer, so pointer comparison is structural comparison and maps
// keyed by *Term behave like maps keyed by structure.
package expr

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Sort is the type of a term: integer or boolean.
type Sort uint8

// The two sorts of the logic.
const (
	SortInt Sort = iota
	SortBool
)

// String returns the SMT-LIB name of the sort.
func (s Sort) String() string {
	switch s {
	case SortInt:
		return "Int"
	case SortBool:
		return "Bool"
	default:
		return fmt.Sprintf("Sort(%d)", uint8(s))
	}
}

// Op identifies the head symbol of a term.
type Op uint8

// Operators of the term language.
const (
	OpIntConst  Op = iota // integer literal (Val)
	OpBoolConst           // boolean literal (Val is 0 or 1)
	OpVar                 // variable (Name, Sort)

	OpAdd // n-ary integer addition
	OpSub // binary integer subtraction
	OpMul // binary integer multiplication
	OpDiv // binary integer division, C semantics (truncate toward zero)
	OpRem // binary integer remainder, C semantics
	OpNeg // unary integer negation

	OpEq // binary equality (both sorts)
	OpNe // binary disequality (both sorts)
	OpLt // integer less-than
	OpLe // integer less-or-equal
	OpGt // integer greater-than
	OpGe // integer greater-or-equal

	OpAnd     // n-ary conjunction
	OpOr      // n-ary disjunction
	OpNot     // negation
	OpImplies // binary implication
	OpIte     // if-then-else (condition bool; branches share a sort)

	numOps // sentinel
)

var opNames = [numOps]string{
	OpIntConst: "int", OpBoolConst: "bool", OpVar: "var",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "div", OpRem: "rem", OpNeg: "neg",
	OpEq: "=", OpNe: "distinct", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "and", OpOr: "or", OpNot: "not", OpImplies: "=>", OpIte: "ite",
}

// String returns the SMT-LIB spelling of the operator.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Term is an immutable logical term. Construct terms only through the
// package constructors; never mutate a Term after construction.
type Term struct {
	Op   Op
	Sort Sort
	Val  int64   // literal value for OpIntConst / OpBoolConst
	Name string  // variable name for OpVar
	Args []*Term // operands

	hash uint64
	// simplified memoizes Simplify(t). It is a cache of a pure function of
	// the term, not part of its value; atomic because workers share terms.
	simplified atomic.Pointer[Term]
}

// interner deduplicates terms so that structural equality coincides with
// pointer equality. It is sharded by hash: term construction is the
// hottest shared operation in the system (every path constraint, patch
// formula, and solver rewrite goes through it), and the repair engine
// builds terms from many worker goroutines concurrently, so a single
// mutex would serialize all of them.
type interner struct {
	shards [internShards]internShard
}

type internShard struct {
	mu      sync.Mutex
	buckets map[uint64][]*Term
	// slab and argSlab are per-shard arenas for canonical terms. A miss
	// carves the Term header and its Args copy out of them instead of
	// taking two heap allocations; a hit allocates nothing at all, because
	// interning is by value: the candidate term lives on the caller's
	// stack until it is known to be new. Canonical terms are immortal (the
	// interner never evicts), so the arenas never free.
	slab    []Term
	argSlab []*Term
}

const (
	termSlabSize = 256
	argSlabSize  = 2048
)

// alloc returns a canonical *Term for the given fields from the shard's
// arenas. Caller holds the shard lock.
func (sh *internShard) alloc(op Op, sort Sort, val int64, name string, args []*Term, hash uint64) *Term {
	if len(sh.slab) == 0 {
		sh.slab = make([]Term, termSlabSize)
	}
	t := &sh.slab[0]
	sh.slab = sh.slab[1:]
	*t = Term{Op: op, Sort: sort, Val: val, Name: name, Args: sh.copyArgs(args), hash: hash}
	return t
}

// copyArgs copies an argument list into arena-backed storage. Oversized
// lists (wide conjunctions) get their own allocation rather than bloating
// the arena.
func (sh *internShard) copyArgs(args []*Term) []*Term {
	n := len(args)
	if n == 0 {
		return nil
	}
	if n > argSlabSize/4 {
		out := make([]*Term, n)
		copy(out, args)
		return out
	}
	if len(sh.argSlab) < n {
		sh.argSlab = make([]*Term, argSlabSize)
	}
	out := sh.argSlab[:n:n]
	sh.argSlab = sh.argSlab[n:]
	copy(out, args)
	return out
}

// internShards is a power of two so shard selection is a mask.
const internShards = 64

var terms = newInterner()

func newInterner() *interner {
	in := &interner{}
	for i := range in.shards {
		in.shards[i].buckets = make(map[uint64][]*Term)
	}
	return in
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashFields(op Op, sort Sort, val int64, name string, args []*Term) uint64 {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		h ^= v
		h *= fnvPrime
	}
	mix(uint64(op))
	mix(uint64(sort))
	mix(uint64(val))
	for i := 0; i < len(name); i++ {
		mix(uint64(name[i]))
	}
	for _, a := range args {
		mix(a.hash)
	}
	return h
}

func sameFields(c *Term, op Op, sort Sort, val int64, name string, args []*Term) bool {
	if c.Op != op || c.Sort != sort || c.Val != val || c.Name != name || len(c.Args) != len(args) {
		return false
	}
	for i := range args {
		if c.Args[i] != args[i] { // args are interned: pointer equality
			return false
		}
	}
	return true
}

// mk returns the canonical term for the given fields. Interning is by
// value: the hit path (the overwhelming majority — path constraints and
// patch formulas rebuild the same terms constantly) allocates nothing,
// and a miss carves the canonical term out of the shard's arena.
func mk(op Op, sort Sort, val int64, name string, args ...*Term) *Term {
	h := hashFields(op, sort, val, name, args)
	sh := &terms.shards[h&(internShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, c := range sh.buckets[h] {
		if sameFields(c, op, sort, val, name, args) {
			return c
		}
	}
	t := sh.alloc(op, sort, val, name, args, h)
	sh.buckets[h] = append(sh.buckets[h], t)
	return t
}

// Int returns the integer literal v.
func Int(v int64) *Term { return mk(OpIntConst, SortInt, v, "") }

// Bool returns the boolean literal b.
func Bool(b bool) *Term {
	if b {
		return mk(OpBoolConst, SortBool, 1, "")
	}
	return mk(OpBoolConst, SortBool, 0, "")
}

// True and False return the boolean constants.
func True() *Term  { return Bool(true) }
func False() *Term { return Bool(false) }

// IntVar returns the integer variable named name.
func IntVar(name string) *Term { return mk(OpVar, SortInt, 0, name) }

// BoolVar returns the boolean variable named name.
func BoolVar(name string) *Term { return mk(OpVar, SortBool, 0, name) }

// Var returns a variable of the given sort.
func Var(name string, sort Sort) *Term { return mk(OpVar, sort, 0, name) }

// IsConst reports whether t is a literal of either sort.
func (t *Term) IsConst() bool { return t.Op == OpIntConst || t.Op == OpBoolConst }

// IsTrue reports whether t is the literal true.
func (t *Term) IsTrue() bool { return t.Op == OpBoolConst && t.Val == 1 }

// IsFalse reports whether t is the literal false.
func (t *Term) IsFalse() bool { return t.Op == OpBoolConst && t.Val == 0 }

// Hash returns a stable structural hash of the term.
func (t *Term) Hash() uint64 { return t.hash }

func wantSort(t *Term, s Sort, ctx string) {
	if t.Sort != s {
		panic(fmt.Sprintf("expr: %s: operand %v has sort %v, want %v", ctx, t, t.Sort, s))
	}
}

// Add returns the sum of the operands, folding constants and dropping
// zeros. Add() is 0; Add(x) is x.
func Add(args ...*Term) *Term {
	var k int64
	var buf [narySmall]*Term
	flat := buf[:0]
	for _, a := range args {
		wantSort(a, SortInt, "Add")
		switch {
		case a.Op == OpIntConst:
			k += a.Val
		case a.Op == OpAdd:
			for _, sub := range a.Args {
				if sub.Op == OpIntConst {
					k += sub.Val
				} else {
					flat = append(flat, sub)
				}
			}
		default:
			flat = append(flat, a)
		}
	}
	if k != 0 || len(flat) == 0 {
		flat = append(flat, Int(k))
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return mk(OpAdd, SortInt, 0, "", flat...)
}

// Sub returns a - b, folding constants.
func Sub(a, b *Term) *Term {
	wantSort(a, SortInt, "Sub")
	wantSort(b, SortInt, "Sub")
	if a.Op == OpIntConst && b.Op == OpIntConst {
		return Int(a.Val - b.Val)
	}
	if b.Op == OpIntConst && b.Val == 0 {
		return a
	}
	if a == b {
		return Int(0)
	}
	return mk(OpSub, SortInt, 0, "", a, b)
}

// Mul returns a * b, folding constants and simplifying by 0 and 1.
func Mul(a, b *Term) *Term {
	wantSort(a, SortInt, "Mul")
	wantSort(b, SortInt, "Mul")
	if a.Op == OpIntConst && b.Op == OpIntConst {
		return Int(a.Val * b.Val)
	}
	for _, p := range [2][2]*Term{{a, b}, {b, a}} {
		c, o := p[0], p[1]
		if c.Op == OpIntConst {
			switch c.Val {
			case 0:
				return Int(0)
			case 1:
				return o
			case -1:
				return Neg(o)
			}
		}
	}
	// Canonical operand order keeps commutative duplicates interned together.
	if b.less(a) {
		a, b = b, a
	}
	return mk(OpMul, SortInt, 0, "", a, b)
}

// Div returns a / b with C semantics (truncation toward zero). Division by
// the literal zero is left symbolic; evaluation reports it as an error.
func Div(a, b *Term) *Term {
	wantSort(a, SortInt, "Div")
	wantSort(b, SortInt, "Div")
	if a.Op == OpIntConst && b.Op == OpIntConst && b.Val != 0 {
		return Int(a.Val / b.Val)
	}
	if b.Op == OpIntConst && b.Val == 1 {
		return a
	}
	return mk(OpDiv, SortInt, 0, "", a, b)
}

// Rem returns a % b with C semantics.
func Rem(a, b *Term) *Term {
	wantSort(a, SortInt, "Rem")
	wantSort(b, SortInt, "Rem")
	if a.Op == OpIntConst && b.Op == OpIntConst && b.Val != 0 {
		return Int(a.Val % b.Val)
	}
	if b.Op == OpIntConst && (b.Val == 1 || b.Val == -1) {
		return Int(0)
	}
	return mk(OpRem, SortInt, 0, "", a, b)
}

// Neg returns -a.
func Neg(a *Term) *Term {
	wantSort(a, SortInt, "Neg")
	if a.Op == OpIntConst {
		return Int(-a.Val)
	}
	if a.Op == OpNeg {
		return a.Args[0]
	}
	return mk(OpNeg, SortInt, 0, "", a)
}

func cmpConst(op Op, a, b int64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	panic("expr: cmpConst: not a comparison op")
}

func compare(op Op, a, b *Term) *Term {
	if a.Sort != b.Sort {
		panic(fmt.Sprintf("expr: %v: mixed sorts %v and %v", op, a.Sort, b.Sort))
	}
	if op != OpEq && op != OpNe {
		wantSort(a, SortInt, op.String())
	}
	if a.IsConst() && b.IsConst() {
		return Bool(cmpConst(op, a.Val, b.Val))
	}
	if a == b {
		switch op {
		case OpEq, OpLe, OpGe:
			return True()
		case OpNe, OpLt, OpGt:
			return False()
		}
	}
	// Canonicalize symmetric comparisons.
	if (op == OpEq || op == OpNe) && b.less(a) {
		a, b = b, a
	}
	return mk(op, SortBool, 0, "", a, b)
}

// Eq returns a = b. Operands must share a sort.
func Eq(a, b *Term) *Term { return compare(OpEq, a, b) }

// Ne returns a ≠ b. Operands must share a sort.
func Ne(a, b *Term) *Term { return compare(OpNe, a, b) }

// Lt returns a < b over integers.
func Lt(a, b *Term) *Term { return compare(OpLt, a, b) }

// Le returns a ≤ b over integers.
func Le(a, b *Term) *Term { return compare(OpLe, a, b) }

// Gt returns a > b over integers.
func Gt(a, b *Term) *Term { return compare(OpGt, a, b) }

// Ge returns a ≥ b over integers.
func Ge(a, b *Term) *Term { return compare(OpGe, a, b) }

// naryAcc accumulates the flattened, deduplicated operand list of an
// n-ary And/Or. Small lists — the overwhelming majority — live in the
// caller's stack buffer and dedup by linear scan, so building a small
// conjunction that already exists allocates nothing; past narySmall
// operands the dedup upgrades to a map.
type naryAcc struct {
	flat []*Term
	seen map[*Term]bool // nil until flat outgrows linear-scan dedup
}

const narySmall = 16

func (acc *naryAcc) add(a *Term) {
	if acc.seen != nil {
		if !acc.seen[a] {
			acc.seen[a] = true
			acc.flat = append(acc.flat, a)
		}
		return
	}
	for _, f := range acc.flat {
		if f == a {
			return
		}
	}
	if len(acc.flat) >= narySmall {
		acc.seen = make(map[*Term]bool, 4*narySmall)
		for _, f := range acc.flat {
			acc.seen[f] = true
		}
		acc.seen[a] = true
	}
	acc.flat = append(acc.flat, a)
}

// And returns the conjunction of the operands, flattening nested
// conjunctions, dropping trues, and short-circuiting on false. And() is
// true. Flattening is one level deep by constructor invariant: the args
// of an interned OpAnd term are never themselves OpAnd (this function
// flattened them), which keeps the loop iterative so the stack buffer
// stays on the stack.
func And(args ...*Term) *Term {
	var buf [narySmall]*Term
	acc := naryAcc{flat: buf[:0]}
	for _, a := range args {
		wantSort(a, SortBool, "And")
		switch {
		case a.IsTrue():
		case a.IsFalse():
			return False()
		case a.Op == OpAnd:
			for _, sub := range a.Args {
				acc.add(sub)
			}
		default:
			acc.add(a)
		}
	}
	switch len(acc.flat) {
	case 0:
		return True()
	case 1:
		return acc.flat[0]
	}
	return mk(OpAnd, SortBool, 0, "", acc.flat...)
}

// Or returns the disjunction of the operands, flattening nested
// disjunctions, dropping falses, and short-circuiting on true. Or() is
// false. Like And, flattening is one level deep by constructor invariant.
func Or(args ...*Term) *Term {
	var buf [narySmall]*Term
	acc := naryAcc{flat: buf[:0]}
	for _, a := range args {
		wantSort(a, SortBool, "Or")
		switch {
		case a.IsFalse():
		case a.IsTrue():
			return True()
		case a.Op == OpOr:
			for _, sub := range a.Args {
				acc.add(sub)
			}
		default:
			acc.add(a)
		}
	}
	switch len(acc.flat) {
	case 0:
		return False()
	case 1:
		return acc.flat[0]
	}
	return mk(OpOr, SortBool, 0, "", acc.flat...)
}

// Not returns the negation of a, eliminating double negation and flipping
// comparisons.
func Not(a *Term) *Term {
	wantSort(a, SortBool, "Not")
	switch a.Op {
	case OpBoolConst:
		return Bool(a.Val == 0)
	case OpNot:
		return a.Args[0]
	case OpEq:
		return mk(OpNe, SortBool, 0, "", a.Args...)
	case OpNe:
		return mk(OpEq, SortBool, 0, "", a.Args...)
	case OpLt:
		return mk(OpGe, SortBool, 0, "", a.Args...)
	case OpLe:
		return mk(OpGt, SortBool, 0, "", a.Args...)
	case OpGt:
		return mk(OpLe, SortBool, 0, "", a.Args...)
	case OpGe:
		return mk(OpLt, SortBool, 0, "", a.Args...)
	}
	return mk(OpNot, SortBool, 0, "", a)
}

// Implies returns a ⇒ b.
func Implies(a, b *Term) *Term {
	wantSort(a, SortBool, "Implies")
	wantSort(b, SortBool, "Implies")
	switch {
	case a.IsFalse() || b.IsTrue():
		return True()
	case a.IsTrue():
		return b
	case b.IsFalse():
		return Not(a)
	}
	return mk(OpImplies, SortBool, 0, "", a, b)
}

// Ite returns if cond then a else b. Branches must share a sort.
func Ite(cond, a, b *Term) *Term {
	wantSort(cond, SortBool, "Ite")
	if a.Sort != b.Sort {
		panic("expr: Ite: branches have different sorts")
	}
	switch {
	case cond.IsTrue():
		return a
	case cond.IsFalse():
		return b
	case a == b:
		return a
	}
	if a.Sort == SortBool && a.IsTrue() && b.IsFalse() {
		return cond
	}
	if a.Sort == SortBool && a.IsFalse() && b.IsTrue() {
		return Not(cond)
	}
	return mk(OpIte, a.Sort, 0, "", cond, a, b)
}

// less imposes an arbitrary but deterministic total order on interned
// terms, used to canonicalize commutative operands.
func (t *Term) less(u *Term) bool {
	if t == u {
		return false
	}
	if t.Op != u.Op {
		return t.Op < u.Op
	}
	if t.Val != u.Val {
		return t.Val < u.Val
	}
	if t.Name != u.Name {
		return t.Name < u.Name
	}
	if len(t.Args) != len(u.Args) {
		return len(t.Args) < len(u.Args)
	}
	for i := range t.Args {
		if t.Args[i] != u.Args[i] {
			return t.Args[i].less(u.Args[i])
		}
	}
	return false
}

// Size returns the number of nodes in the term DAG counted as a tree.
func (t *Term) Size() int {
	n := 1
	for _, a := range t.Args {
		n += a.Size()
	}
	return n
}
