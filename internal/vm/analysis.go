package vm

import (
	"fmt"
	"math"
	"sync"
)

// Abstract interpretation over the (loop-free) control-flow graph. The
// verifier (verify.go) drives analyze() to prove, before a program is
// loaded "into the kernel", that it cannot trap at runtime: every
// register read is preceded by a write on all paths, helper arguments
// satisfy their contracts, divisions are either proven non-zero or fall
// back to the VM's x/0 = 0 semantics, and the worst-case step count is
// certified. The domain is a per-register definite-initialization bitset
// plus a signed interval with an explicit NaN-possibility flag — the
// float64 analogue of the eBPF verifier's tnum + min/max register
// state.

// absVal abstracts one float64 value: a (possibly empty) closed
// interval [lo,hi] of ordinary values plus a flag recording whether the
// value may be NaN. The bottom element (no value at all) is the zero
// absVal; top admits every float64.
type absVal struct {
	// lo and hi bound the ordinary part; they are meaningful only when
	// num is set and may be ±Inf. lo <= hi always, and neither bound is
	// ever NaN. (Field order packs the struct to 24 bytes — regState is
	// copied on every abstract transfer, so its size is hot.)
	lo, hi float64
	// num reports that the value may be an ordinary (non-NaN) float in
	// [lo,hi].
	num bool
	// nan reports that the value may be NaN.
	nan bool
}

func topVal() absVal { return absVal{num: true, lo: math.Inf(-1), hi: math.Inf(1), nan: true} }

func constVal(v float64) absVal {
	if math.IsNaN(v) {
		return absVal{nan: true}
	}
	return absVal{num: true, lo: v, hi: v}
}

func (v absVal) isBottom() bool { return !v.num && !v.nan }

// singleton reports whether v is exactly one ordinary value.
func (v absVal) singleton() (float64, bool) {
	if v.num && !v.nan && v.lo == v.hi {
		return v.lo, true
	}
	return 0, false
}

// contains reports whether v admits the concrete value x.
func (v absVal) contains(x float64) bool {
	if math.IsNaN(x) {
		return v.nan
	}
	return v.num && v.lo <= x && x <= v.hi
}

// hasInf reports whether v admits an infinity of the given sign.
func (v absVal) hasInf(sign int) bool {
	if !v.num {
		return false
	}
	if sign < 0 {
		return math.IsInf(v.lo, -1)
	}
	return math.IsInf(v.hi, 1)
}

// join is the lattice union: the least abstract value admitting
// everything either operand admits.
func join(a, b absVal) absVal {
	out := absVal{nan: a.nan || b.nan}
	switch {
	case a.num && b.num:
		out.num = true
		out.lo = math.Min(a.lo, b.lo)
		out.hi = math.Max(a.hi, b.hi)
	case a.num:
		out.num, out.lo, out.hi = true, a.lo, a.hi
	case b.num:
		out.num, out.lo, out.hi = true, b.lo, b.hi
	}
	return out
}

// widen is join with bound acceleration: any interval bound that grew
// beyond old's goes straight to its infinity (Interval.Widen). The
// analyzer never widens: a forward-only CFG reaches its fixpoint in one
// ascending sweep, so widening could only lose precision.
func widen(old, next absVal) absVal {
	j := join(old, next)
	if old.num && j.num {
		if j.lo < old.lo {
			j.lo = math.Inf(-1)
		}
		if j.hi > old.hi {
			j.hi = math.Inf(1)
		}
	}
	return j
}

// outLo / outHi nudge a computed bound outward by one ulp, covering the
// rounding direction that plain float64 interval arithmetic ignores.
// Singleton × singleton operations skip the nudge: the analyzer replays
// the VM's own operation, so the result is the exact machine value.
func outLo(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(-1)
	}
	return math.Nextafter(v, math.Inf(-1))
}

func outHi(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return math.Nextafter(v, math.Inf(1))
}

// normalize enforces the absVal invariants after a bound was clamped:
// an inverted interval means the ordinary part is empty.
func (v absVal) normalize() absVal {
	if v.num && (v.lo > v.hi || math.IsNaN(v.lo) || math.IsNaN(v.hi)) {
		v.num, v.lo, v.hi = false, 0, 0
	}
	if !v.num {
		v.lo, v.hi = 0, 0
	}
	return v
}

// bothSingle reports a singleton pair, enabling exact transfer.
func bothSingle(a, b absVal) (x, y float64, ok bool) {
	if a.num && !a.nan && a.lo == a.hi && b.num && !b.nan && b.lo == b.hi {
		return a.lo, b.lo, true
	}
	return 0, 0, false
}

// exactOr wraps an exactly computed result: NaN folds into the nan
// flag, ordinary values become singleton intervals.
func exactVal(c float64) absVal {
	if math.IsNaN(c) {
		return absVal{nan: true}
	}
	return absVal{num: true, lo: c, hi: c}
}

func absAdd(a, b absVal) absVal {
	if !a.num || !b.num {
		return absVal{nan: true} // NaN + anything = NaN
	}
	if x, y, ok := bothSingle(a, b); ok {
		return exactVal(x + y)
	}
	nan := a.nan || b.nan ||
		(a.hasInf(1) && b.hasInf(-1)) || (a.hasInf(-1) && b.hasInf(1)) // Inf + -Inf = NaN
	lo, hi := a.lo+b.lo, a.hi+b.hi
	return absVal{num: true, lo: outLo(lo), hi: outHi(hi), nan: nan}
}

func absSub(a, b absVal) absVal {
	if !a.num || !b.num {
		return absVal{nan: true}
	}
	if x, y, ok := bothSingle(a, b); ok {
		return exactVal(x - y)
	}
	nan := a.nan || b.nan ||
		(a.hasInf(1) && b.hasInf(1)) || (a.hasInf(-1) && b.hasInf(-1)) // Inf - Inf = NaN
	lo, hi := a.lo-b.hi, a.hi-b.lo
	return absVal{num: true, lo: outLo(lo), hi: outHi(hi), nan: nan}
}

func absMul(a, b absVal) absVal {
	if !a.num || !b.num {
		return absVal{nan: true}
	}
	if x, y, ok := bothSingle(a, b); ok {
		return exactVal(x * y)
	}
	nan := a.nan || b.nan
	// 0 × ±Inf = NaN; when both a zero and an infinity are admitted the
	// ordinary products also diverge, so go to top.
	if (a.contains(0) && (b.hasInf(-1) || b.hasInf(1))) ||
		(b.contains(0) && (a.hasInf(-1) || a.hasInf(1))) {
		return absVal{num: true, lo: math.Inf(-1), hi: math.Inf(1), nan: true}
	}
	c := [4]float64{a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return absVal{num: true, lo: outLo(lo), hi: outHi(hi), nan: nan}
}

// absDiv models the VM's safeDiv: x/0 = 0 for every dividend, including
// NaN; a NaN divisor yields NaN.
func absDiv(a, b absVal) absVal {
	if !b.num {
		return absVal{nan: true} // divisor always NaN
	}
	if b.lo == 0 && b.hi == 0 {
		// Divisor is zero whenever it is ordinary: safeDiv returns 0.
		return absVal{num: true, lo: 0, hi: 0, nan: b.nan}
	}
	if !a.num {
		// Dividend always NaN: NaN/z = NaN unless z = 0 (then 0).
		if b.contains(0) {
			return absVal{num: true, lo: 0, hi: 0, nan: true}
		}
		return absVal{nan: true}
	}
	nan := a.nan || b.nan
	if b.contains(0) {
		// Divisor straddles zero: quotients near ±0 diverge, and the
		// exact zero maps to 0.
		return absVal{num: true, lo: math.Inf(-1), hi: math.Inf(1), nan: true}
	}
	if x, y, ok := bothSingle(a, b); ok {
		return exactVal(x / y)
	}
	aInf := a.hasInf(-1) || a.hasInf(1)
	bInf := b.hasInf(-1) || b.hasInf(1)
	if aInf && bInf {
		return absVal{num: true, lo: math.Inf(-1), hi: math.Inf(1), nan: true} // Inf/Inf = NaN
	}
	c := [4]float64{a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return absVal{num: true, lo: outLo(lo), hi: outHi(hi), nan: nan}
}

// absMin / absMax model math.Min/math.Max, which propagate NaN except
// against the infinity they are looking for: math.Min(NaN, -Inf) is
// -Inf and math.Max(NaN, +Inf) is +Inf.
func absMin(a, b absVal) absVal {
	if !a.num || !b.num {
		return nanOrInf(a, b, -1)
	}
	return absVal{num: true, lo: math.Min(a.lo, b.lo), hi: math.Min(a.hi, b.hi), nan: a.nan || b.nan}
}

func absMax(a, b absVal) absVal {
	if !a.num || !b.num {
		return nanOrInf(a, b, 1)
	}
	return absVal{num: true, lo: math.Max(a.lo, b.lo), hi: math.Max(a.hi, b.hi), nan: a.nan || b.nan}
}

// nanOrInf is min (sign -1) or max (sign +1) of a and b when one of
// them holds no ordinary value: NaN, or the infinity of that sign when
// either side admits it.
func nanOrInf(a, b absVal, sign int) absVal {
	r := absVal{nan: true}
	if a.hasInf(sign) || b.hasInf(sign) {
		inf := math.Inf(sign)
		r.num, r.lo, r.hi = true, inf, inf
	}
	return r
}

func absNeg(v absVal) absVal {
	if !v.num {
		return v
	}
	return absVal{num: true, lo: -v.hi, hi: -v.lo, nan: v.nan}
}

func absAbs(v absVal) absVal {
	if !v.num {
		return v
	}
	switch {
	case v.lo >= 0:
		return v
	case v.hi <= 0:
		return absVal{num: true, lo: -v.hi, hi: -v.lo, nan: v.nan}
	default:
		return absVal{num: true, lo: 0, hi: math.Max(-v.lo, v.hi), nan: v.nan}
	}
}

// boolSet builds the {0,1} result of a truthiness operation.
func boolSet(canZero, canOne bool) absVal {
	switch {
	case canZero && canOne:
		return absVal{num: true, lo: 0, hi: 1}
	case canOne:
		return absVal{num: true, lo: 1, hi: 1}
	default:
		return absVal{num: true, lo: 0, hi: 0}
	}
}

// absNot models OpNot: 1 if the value equals 0, else 0 (NaN is truthy).
func absNot(v absVal) absVal {
	one := v.contains(0)
	zero := v.nan || (v.num && (v.lo != 0 || v.hi != 0))
	return boolSet(zero, one)
}

// absBoo models OpBoo: non-zero (including NaN) collapses to 1, zero
// stays 0.
func absBoo(v absVal) absVal {
	zero := v.contains(0)
	one := v.nan || (v.num && (v.lo != 0 || v.hi != 0))
	return boolSet(zero, one)
}

// refineCmp refines the abstract operands of a conditional jump along
// one edge. IEEE comparisons are false when either operand is NaN, so
// the taken edge of an ordered comparison (and of ==) proves both
// operands non-NaN, while the not-taken edge only constrains the
// ordinary parts — and only against an operand that cannot itself be
// NaN (a NaN counterpart makes the comparison false for *any* value).
// != is the mirror image: NaN satisfies it, so its taken edge keeps the
// NaN flags and its not-taken edge proves equality of ordinary values.
// A returned bottom value means the edge is unreachable.
func refineCmp(op Op, x, y absVal, taken bool) (absVal, absVal) {
	dropNaN := func() {
		x.nan, y.nan = false, false
		x, y = x.normalize(), y.normalize()
	}
	// clampXleY constrains x <= y (strict: x < y) on ordinary parts.
	// Each side is clamped only when guard for that side holds.
	clampXleY := func(strict, clampX, clampY bool) {
		if !x.num || !y.num {
			return
		}
		hb, lb := y.hi, x.lo
		if strict {
			hb, lb = outLo(hb), outHi(lb)
		}
		if clampX && hb < x.hi {
			x.hi = hb
		}
		if clampY && lb > y.lo {
			y.lo = lb
		}
		x, y = x.normalize(), y.normalize()
	}
	clampYleX := func(strict, clampY, clampX bool) {
		x, y = y, x
		clampXleY(strict, clampY, clampX)
		x, y = y, x
	}
	intersect := func() {
		nx := absVal{num: x.num && y.num, nan: x.nan && y.nan}
		if nx.num {
			nx.lo, nx.hi = math.Max(x.lo, y.lo), math.Min(x.hi, y.hi)
		}
		nx = nx.normalize()
		x, y = nx, nx
	}

	switch {
	case op == OpJLt && taken, op == OpJGe && !taken: // x < y
		if taken {
			dropNaN()
			clampXleY(true, true, true)
		} else {
			clampXleY(true, !y.nan, !x.nan)
		}
	case op == OpJLe && taken, op == OpJGt && !taken: // x <= y
		if taken {
			dropNaN()
			clampXleY(false, true, true)
		} else {
			clampXleY(false, !y.nan, !x.nan)
		}
	case op == OpJGt && taken, op == OpJLe && !taken: // x > y
		if taken {
			dropNaN()
			clampYleX(true, true, true)
		} else {
			clampYleX(true, !x.nan, !y.nan)
		}
	case op == OpJGe && taken, op == OpJLt && !taken: // x >= y
		if taken {
			dropNaN()
			clampYleX(false, true, true)
		} else {
			clampYleX(false, !x.nan, !y.nan)
		}
	case op == OpJEq && taken, op == OpJNe && !taken: // x == y
		dropNaN()
		intersect()
	case op == OpJNe && taken, op == OpJEq && !taken: // x != y
		// Only singleton-vs-singleton inequality is refutable.
		if xv, ok := x.singleton(); ok {
			if yv, ok := y.singleton(); ok && xv == yv {
				return absVal{}, absVal{}
			}
		}
	}
	return x, y
}

// cmpRegOf maps an immediate-compare opcode to its register form so
// refineCmp handles both shapes.
func cmpRegOf(op Op) (Op, bool) {
	switch op {
	case OpJEq, OpJNe, OpJLt, OpJLe, OpJGt, OpJGe:
		return op, true
	case OpJEqI:
		return OpJEq, true
	case OpJNeI:
		return OpJNe, true
	case OpJLtI:
		return OpJLt, true
	case OpJLeI:
		return OpJLe, true
	case OpJGtI:
		return OpJGt, true
	case OpJGeI:
		return OpJGe, true
	}
	return op, false
}

// helperContract is the per-helper argument contract the analyzer
// enforces at OpCall sites. arity counts declared arguments (r1..);
// when bounded, the first argument must be *provably* non-NaN and
// within [min,max] — the analogue of the eBPF verifier's helper
// argument type checks.
type helperContract struct {
	arity    int
	bounded  bool
	min, max float64
}

// maxActionIndex bounds HelperAction's dispatch index: it must be a
// provable small non-negative number for the runtime's action table.
const maxActionIndex = 1 << 31

func contractFor(h HelperID) helperContract {
	switch h {
	case HelperNow:
		return helperContract{arity: 0}
	case HelperAction:
		return helperContract{arity: 1, bounded: true, min: 0, max: maxActionIndex - 1}
	case HelperReport, HelperSqrt, HelperLog2:
		return helperContract{arity: 1}
	default:
		// Runtime-extended helpers: one argument, no range contract.
		return helperContract{arity: 1}
	}
}

// String names the built-in helpers for diagnostics.
func (h HelperID) String() string {
	switch h {
	case HelperNow:
		return "now"
	case HelperReport:
		return "report"
	case HelperAction:
		return "action"
	case HelperSqrt:
		return "sqrt"
	case HelperLog2:
		return "log2"
	default:
		return fmt.Sprintf("helper#%d", int(h))
	}
}

// regState is the per-pc abstract machine state: which registers are
// provably initialized on every path, and each register's abstract
// value. Values of uninitialized registers are canonicalized to top so
// state comparison is meaningful.
type regState struct {
	init uint32
	vals [NumRegs]absVal
}

func entryState() regState {
	var rs regState
	rs.init = 1 << 0 // r0 carries the trigger argument
	for i := range rs.vals {
		rs.vals[i] = topVal()
	}
	return rs
}

func (rs *regState) canon() {
	for i := 0; i < NumRegs; i++ {
		if rs.init&(1<<i) == 0 {
			rs.vals[i] = topVal()
		}
	}
}

// Interval is the exported face of the analyzer's value abstraction: a
// (possibly absent) closed interval of ordinary float64 values plus a
// NaN-possibility flag. Deployment-level analyses (internal/spec/
// interfere) exchange certified value ranges in this form.
type Interval struct {
	// Lo and Hi are meaningful only when Num is set. (Bounds first: the
	// field order packs the struct to 24 bytes, and certificates carry
	// sixteen of these per block invariant.)
	Lo, Hi float64
	// Num reports that the value may be an ordinary (non-NaN) float in
	// [Lo, Hi].
	Num bool
	// NaN reports that the value may be NaN.
	NaN bool
}

// TopInterval admits every float64.
func TopInterval() Interval {
	return Interval{Num: true, Lo: math.Inf(-1), Hi: math.Inf(1), NaN: true}
}

// RangeInterval is the interval of ordinary values in [lo, hi].
func RangeInterval(lo, hi float64) Interval {
	return Interval{Num: true, Lo: lo, Hi: hi}
}

// DisjointFrom reports that no ordinary value is admitted by both
// intervals — the certificate behind "these two SAVEs are contradictory".
// Intervals that may both be NaN are not considered disjoint.
func (iv Interval) DisjointFrom(o Interval) bool {
	if iv.NaN && o.NaN {
		return false
	}
	if !iv.Num || !o.Num {
		// A side with no ordinary part admits only NaN (or nothing);
		// without a shared NaN possibility there is no common value.
		return true
	}
	return iv.Hi < o.Lo || o.Hi < iv.Lo
}

// Join returns the least interval admitting everything either admits.
func (iv Interval) Join(o Interval) Interval {
	return join(fromInterval(iv), fromInterval(o)).iv()
}

// String renders "[lo,hi]" with a "|NaN" suffix when NaN is admitted.
func (iv Interval) String() string {
	s := "∅"
	if iv.Num {
		s = fmt.Sprintf("[%g,%g]", iv.Lo, iv.Hi)
	}
	if iv.NaN {
		s += "|NaN"
	}
	return s
}

func (v absVal) iv() Interval { return Interval{Num: v.num, Lo: v.lo, Hi: v.hi, NaN: v.nan} }

func fromInterval(iv Interval) absVal {
	return absVal{num: iv.Num, lo: iv.Lo, hi: iv.Hi, nan: iv.NaN}.normalize()
}

// StoreFact is one OpStore site's certified behaviour: the abstract
// value the instruction may write to its cell, valid whenever the
// instruction is reachable.
type StoreFact struct {
	// Cell indexes the program symbol table (the SAVEd key).
	Cell int32
	// Val is the certified range of stored values.
	Val Interval
}

// ExitFact is one reachable OpExit site's certified return value.
type ExitFact struct {
	// R0 is the certified range of returned values. Rule programs
	// return 1 when the property holds and 0 when it is violated.
	R0 Interval
}

// Analysis is the proof object produced by a successful abstract
// interpretation; Verify copies the scalar fields into Program.Meta,
// and the deployment interference analyzer consumes the per-site facts.
type Analysis struct {
	// MaxSteps is the certified worst-case number of interpreter steps
	// (executed instructions, including the final OpExit) over every
	// path through the program.
	MaxSteps int
	// DivProven reports that every division's divisor was proven unable
	// to be ordinary zero, so the interpreter's x/0 = 0 rule never fires.
	DivProven bool
	// Stores lists every reachable OpStore with its certified value
	// range, in pc order.
	Stores []StoreFact
	// Exits lists every reachable OpExit with its certified return
	// range, in pc order.
	Exits []ExitFact
}

// CanViolate reports whether any reachable exit may return 0 — i.e.
// whether the rule conjunction can ever be violated (and so whether the
// guardrail's actions can ever fire). An analysis with no reachable
// exits trivially cannot violate.
func (a *Analysis) CanViolate() bool {
	for _, e := range a.Exits {
		if e.R0.NaN || (e.R0.Num && e.R0.Lo <= 0 && 0 <= e.R0.Hi) {
			return true
		}
	}
	return false
}

// MustViolate reports whether every reachable exit provably returns an
// ordinary 0 — the rule conjunction is violated on *all* paths, so the
// guardrail's actions fire on every evaluation. The model checker uses
// it to apply strong (replacing) state updates; a program with no
// reachable exits trivially does not must-violate.
func (a *Analysis) MustViolate() bool {
	if len(a.Exits) == 0 {
		return false
	}
	for _, e := range a.Exits {
		if e.R0.NaN || !e.R0.Num || e.R0.Lo != 0 || e.R0.Hi != 0 {
			return false
		}
	}
	return true
}

// Widen is Join with bound acceleration: any bound of o that escapes
// iv goes straight to its infinity. Fixpoint loops over interval chains
// (the deployment model checker's repeated state joins) terminate under
// Widen where plain Join could climb forever.
func (iv Interval) Widen(o Interval) Interval {
	return widen(fromInterval(iv), fromInterval(o)).iv()
}

// pcState is the analyzer's per-instruction entry state.
type pcState struct {
	reachable bool
	rs        regState
}

// CellEnv supplies certified input ranges for feature-store cells: it
// returns the abstract value LOADs of the cell may observe, or ok=false
// for cells with no certificate (which then analyze as top). A nil
// CellEnv is the open-world assumption every single-program verification
// uses; the deployment analyzer passes declared feature ranges and
// producer SAVE certificates to sharpen the analysis to one deployment.
type CellEnv func(cell int32) (Interval, bool)

// analyzer runs the abstract interpretation as one ascending sweep.
type analyzer struct {
	p         *Program
	env       CellEnv
	states    []pcState // len n+1; index n = fall-through off the end
	steps     []int     // maxSteps's scratch, len n+1
	divProven bool
	edges     edgeSet // scratch successor buffer reused across steps
}

// analyzers recycles analyzers between analyses. The per-pc states are
// 400 bytes each and a load analyzes every program several times
// (compile's two Verify calls, Certify, the deployment checks), so a
// fresh slice per analysis made the analyzer the load gate's largest
// source of garbage.
var analyzers = sync.Pool{New: func() any { return new(analyzer) }}

// reset readies a, fresh or recycled, to analyze p under env: every
// per-pc state unreached.
func (a *analyzer) reset(p *Program, env CellEnv) {
	n := len(p.Code)
	if cap(a.states) < n+1 {
		a.states = make([]pcState, n+1)
	} else {
		a.states = a.states[:n+1]
		clear(a.states)
	}
	a.p, a.env, a.divProven = p, env, true
}

// release returns a to the pool; nothing may use it afterwards.
func (a *analyzer) release() {
	a.p, a.env = nil, nil
	analyzers.Put(a)
}

// analyze proves a structurally-checked program trap-free, or explains
// why it cannot.
func analyze(p *Program) (*Analysis, error) {
	return analyzeEnv(p, nil)
}

func analyzeEnv(p *Program, env CellEnv) (*Analysis, error) {
	a, err := runAnalyzer(p, env)
	if err != nil {
		return nil, err
	}
	out := a.facts()
	a.release()
	return out, nil
}

// runAnalyzer analyzes p with an analyzer from the pool and returns it
// with its per-pc states intact — the certificate builder
// (certificate.go) reads the fixpoint states directly; the caller
// releases it. On an error the analyzer is already back in the pool.
func runAnalyzer(p *Program, env CellEnv) (*analyzer, error) {
	a := analyzers.Get().(*analyzer)
	a.reset(p, env)
	if err := a.sweep(); err != nil {
		a.release()
		return nil, err
	}
	return a, nil
}

// sweep visits every reachable pc once, in ascending order.
// verifyStructure admits only strictly forward jumps, so every
// predecessor of a pc precedes it: by the time the sweep reaches pc, its
// entry state has absorbed every incoming edge and is final, and the one
// visit per reachable pc is the fixpoint.
func (a *analyzer) sweep() error {
	n := len(a.p.Code)
	a.states[0] = pcState{reachable: true, rs: entryState()}
	for pc := 0; pc < n; pc++ {
		if !a.states[pc].reachable {
			continue
		}
		if err := a.step(pc); err != nil {
			return err
		}
	}
	if a.states[n].reachable {
		return vErr(a.p, n-1, "execution can fall off the end of the program")
	}
	return nil
}

// facts assembles the proof object from the fixpoint states.
func (a *analyzer) facts() *Analysis {
	code := a.p.Code
	stores, exits := 0, 0
	for pc, in := range code {
		if !a.states[pc].reachable {
			continue
		}
		switch in.Op {
		case OpStore:
			stores++
		case OpExit:
			exits++
		}
	}
	out := &Analysis{
		MaxSteps:  a.maxSteps(code),
		DivProven: a.divProven,
	}
	if stores > 0 {
		out.Stores = make([]StoreFact, 0, stores)
	}
	if exits > 0 {
		out.Exits = make([]ExitFact, 0, exits)
	}
	for pc, in := range code {
		st := &a.states[pc]
		if !st.reachable {
			continue
		}
		switch in.Op {
		case OpStore:
			out.Stores = append(out.Stores, StoreFact{Cell: in.Cell, Val: st.rs.vals[in.Src].iv()})
		case OpExit:
			out.Exits = append(out.Exits, ExitFact{R0: st.rs.vals[0].iv()})
		}
	}
	return out
}

// loadVal is the abstract value an OpLoad of cell observes.
func (a *analyzer) loadVal(cell int32) absVal {
	if a.env != nil {
		if iv, ok := a.env(cell); ok {
			if v := fromInterval(iv); !v.isBottom() {
				return v
			}
		}
	}
	return topVal()
}

// flowTo merges an edge's exit state into the target's entry state.
// rs points into the analyzer's scratch edge buffer and may be mutated.
func (a *analyzer) flowTo(target int, rs *regState) {
	rs.canon()
	st := &a.states[target]
	if !st.reachable {
		st.reachable = true
		st.rs = *rs
		return
	}
	st.rs.init &= rs.init
	for i := range st.rs.vals {
		st.rs.vals[i] = join(st.rs.vals[i], rs.vals[i])
	}
	st.rs.canon()
}

// step transfers one instruction's entry state to its successors,
// rejecting any operation whose safety it cannot prove.
func (a *analyzer) step(pc int) error {
	if err := transfer(a.p, pc, &a.states[pc].rs, a.loadVal, &a.divProven, &a.edges); err != nil {
		return err
	}
	for i := 0; i < a.edges.n; i++ {
		a.flowTo(a.edges.target[i], &a.edges.state[i])
	}
	return nil
}

// edgeSet receives one instruction's live outgoing CFG edges. The ISA
// gives every instruction at most two successors (a conditional's taken
// and fall-through edges), so the buffer is fixed-size; callers keep one
// and reuse it across instructions, which keeps the hot transfer loop
// free of closure calls and heap traffic — exit states are built
// directly in the buffer's slots.
type edgeSet struct {
	n      int
	target [2]int
	state  [2]regState
}

// transfer is the per-instruction abstract transfer function shared by
// the sweeping analyzer and the certificate checker (certificate.go):
// given pc's entry state it fills edges with every live CFG edge and
// that edge's exit state, or returns an error for any operation whose
// safety it cannot prove from st. Proven-dead comparison edges (a
// refinement collapsing to bottom) emit no edge. loadVal supplies the
// abstract value OpLoad observes; divProven accumulates whether every
// divisor seen so far is provably non-zero. st must not alias edges.
func transfer(p *Program, pc int, st *regState, loadVal func(int32) absVal, divProven *bool, edges *edgeSet) error {
	in := p.Code[pc]
	edges.n = 0

	read := func(r uint8) error {
		if st.init&(1<<r) == 0 {
			return vErr(p, pc, "read of uninitialized register r%d", r)
		}
		return nil
	}
	out := &edges.state[0] // successor state, mutated below
	*out = *st

	switch in.Op {
	case OpMovI:
		out.init |= 1 << in.Dst
		out.vals[in.Dst] = constVal(in.Imm)
	case OpMov:
		if err := read(in.Src); err != nil {
			return err
		}
		out.init |= 1 << in.Dst
		out.vals[in.Dst] = st.vals[in.Src]
	case OpAdd, OpSub, OpMul, OpDiv, OpMin, OpMax:
		if err := read(in.Lhs); err != nil {
			return err
		}
		if err := read(in.Src); err != nil {
			return err
		}
		x, y := st.vals[in.Lhs], st.vals[in.Src]
		var r absVal
		switch in.Op {
		case OpAdd:
			r = absAdd(x, y)
		case OpSub:
			r = absSub(x, y)
		case OpMul:
			r = absMul(x, y)
		case OpDiv:
			if err := checkDiv(p, pc, y, divProven); err != nil {
				return err
			}
			r = absDiv(x, y)
		case OpMin:
			r = absMin(x, y)
		case OpMax:
			r = absMax(x, y)
		}
		out.init |= 1 << in.Dst
		out.vals[in.Dst] = r
	case OpAddI, OpSubI, OpMulI, OpDivI:
		if err := read(in.Lhs); err != nil {
			return err
		}
		x, y := st.vals[in.Lhs], constVal(in.Imm)
		var r absVal
		switch in.Op {
		case OpAddI:
			r = absAdd(x, y)
		case OpSubI:
			r = absSub(x, y)
		case OpMulI:
			r = absMul(x, y)
		case OpDivI:
			if err := checkDiv(p, pc, y, divProven); err != nil {
				return err
			}
			r = absDiv(x, y)
		}
		out.init |= 1 << in.Dst
		out.vals[in.Dst] = r
	case OpNeg, OpAbs, OpNot, OpBoo:
		if err := read(in.Lhs); err != nil {
			return err
		}
		x := st.vals[in.Lhs]
		switch in.Op {
		case OpNeg:
			out.vals[in.Dst] = absNeg(x)
		case OpAbs:
			out.vals[in.Dst] = absAbs(x)
		case OpNot:
			out.vals[in.Dst] = absNot(x)
		case OpBoo:
			out.vals[in.Dst] = absBoo(x)
		}
		out.init |= 1 << in.Dst
	case OpJmp:
		edges.target[0] = pc + 1 + int(in.Off)
		edges.n = 1
		return nil
	case OpJEq, OpJNe, OpJLt, OpJLe, OpJGt, OpJGe,
		OpJEqI, OpJNeI, OpJLtI, OpJLeI, OpJGtI, OpJGeI:
		if err := read(in.Dst); err != nil {
			return err
		}
		imm := in.Op >= OpJEqI
		var y absVal
		if imm {
			y = constVal(in.Imm)
		} else {
			if err := read(in.Src); err != nil {
				return err
			}
			y = st.vals[in.Src]
		}
		cmpOp, _ := cmpRegOf(in.Op)
		x := st.vals[in.Dst]

		// Taken edge first, then fall-through; a refinement collapsing
		// to bottom proves that edge dead. Slot 0 already holds the
		// shared post-state, so each live edge is patched in place.
		nxT, nyT := refineCmp(cmpOp, x, y, true)
		nxF, nyF := refineCmp(cmpOp, x, y, false)
		liveT := !nxT.isBottom() && !nyT.isBottom()
		liveF := !nxF.isBottom() && !nyF.isBottom()
		if liveT && liveF {
			edges.state[1] = *out
		}
		if liveT {
			es := &edges.state[edges.n]
			es.vals[in.Dst] = nxT
			if !imm {
				es.vals[in.Src] = nyT
			}
			edges.target[edges.n] = pc + 1 + int(in.Off)
			edges.n++
		}
		if liveF {
			es := &edges.state[edges.n]
			es.vals[in.Dst] = nxF
			if !imm {
				es.vals[in.Src] = nyF
			}
			edges.target[edges.n] = pc + 1
			edges.n++
		}
		return nil
	case OpLoad:
		out.init |= 1 << in.Dst
		// Feature-store cells are unconstrained (and may be NaN) unless
		// the caller certified an input range for the deployment.
		out.vals[in.Dst] = loadVal(in.Cell)
	case OpStore:
		if err := read(in.Src); err != nil {
			return err
		}
	case OpCall:
		h := HelperID(int(in.Imm))
		ct := contractFor(h)
		if ct.arity > 0 {
			// Helper convention: r1..r5 are arguments. Requiring them all
			// initialized would force dead stores, so only r1 (the
			// near-universal first argument) is checked; helpers ignore
			// registers beyond their arity.
			if err := read(1); err != nil {
				return err
			}
			if ct.bounded {
				v := st.vals[1]
				if v.nan || !v.num {
					return vErr(p, pc, "helper %s argument r1 may be NaN (contract requires [%g,%g])",
						h, ct.min, ct.max)
				}
				if v.lo < ct.min || v.hi > ct.max {
					return vErr(p, pc, "helper %s argument r1 not provably within [%g,%g] (proved range [%g,%g])",
						h, ct.min, ct.max, v.lo, v.hi)
				}
			}
		}
		out.init |= 1 << 0 // r0 = return value
		out.vals[0] = topVal()
		out.init &^= 0b111110 // r1-r5 are clobbered (become uninitialized)
	case OpExit:
		if err := read(0); err != nil {
			return err
		}
		return nil // no successors
	}
	edges.target[0] = pc + 1
	edges.n = 1
	return nil
}

// checkDiv rejects divisions whose divisor is provably always ordinary
// zero (the result is the constant 0 under safeDiv — a spec bug, not a
// computation) and tracks whether every divisor is provably non-zero so
// the interpreter may use raw IEEE division.
func checkDiv(p *Program, pc int, divisor absVal, divProven *bool) error {
	if z, ok := divisor.singleton(); ok && z == 0 {
		return vErr(p, pc, "division by divisor provably always zero (x/0 = 0 would make the result constant)")
	}
	// Raw division matches safeDiv unless the divisor can be ordinary 0.
	if divisor.contains(0) {
		*divProven = false
	}
	return nil
}

// maxSteps computes the certified worst-case step count of code: the
// longest path (in executed instructions, counting OpExit) from entry
// to any exit over the static CFG. The DP over descending pc is exact
// because all edges point forward. The analyzer and the certificate
// checker share it; it depends only on the static CFG, and its table
// is a's scratch.
func (a *analyzer) maxSteps(code []Instr) int {
	n := len(code)
	if cap(a.steps) < n+1 {
		a.steps = make([]int, n+1)
	}
	steps := a.steps[:n+1]
	steps[n] = 0
	for pc := n - 1; pc >= 0; pc-- {
		in := code[pc]
		switch in.Op {
		case OpExit:
			steps[pc] = 1
		case OpJmp:
			steps[pc] = 1 + steps[pc+1+int(in.Off)]
		case OpJEq, OpJNe, OpJLt, OpJLe, OpJGt, OpJGe,
			OpJEqI, OpJNeI, OpJLtI, OpJLeI, OpJGtI, OpJGeI:
			t, f := steps[pc+1+int(in.Off)], steps[pc+1]
			if f > t {
				t = f
			}
			steps[pc] = 1 + t
		default:
			steps[pc] = 1 + steps[pc+1]
		}
	}
	return steps[0]
}
