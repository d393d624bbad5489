package vm

// Proof-carrying bytecode. Verify's proofs (trap-freedom, certified
// MaxSteps, proven divisors) normally die at Encode time: Program.Meta
// is advisory and not serialized, so decoded images load unverified —
// no certified step bound for admission, no proof facts for provenance —
// until a full re-analysis. A Certificate makes the proof itself portable, in
// the style of proof-carrying code and the JVM/KVM split verifier: the
// producer ships the abstract-interpretation fixpoint state at every
// block leader (jump target), and the consumer validates the whole
// proof with ONE linear transfer pass — no per-pc states, no joins, no
// widening: where the analyzer merges every edge into its target's
// state, the checker only tests each edge into a block leader against
// the shipped invariant. A checked certificate restores the exact Meta
// claims the original Verify made.
// Those claims are certified facts, not a fast path: the interpreter
// keeps every guard for every program and reads none of them.
//
// The checker is the trust boundary: certificates arrive from untrusted
// images, so nothing in them is believed until re-derived. Soundness
// rests on the induction the linear pass performs — the entry state is
// the checker's own (a hostile certificate cannot narrow it), every
// instruction is re-transferred through the same abstract semantics the
// analyzer uses (shared transfer in analysis.go), every edge into a
// block leader must be subsumed by the shipped invariant, and the step
// bound is recomputed exactly. A certificate can at worst make the
// checker *reject* a safe program (which then loads unverified); it
// can never make it accept an unsafe one. And because the interpreter
// never drops a guard on the checker's say-so, a checker bug could
// certify a wrong step bound but not make execution memory-unsafe.

// Certificate is a serializable verification proof for one program: the
// scalar claims Verify would put in Meta plus the per-block interval
// invariants that let CheckCertificate re-establish them in one pass.
type Certificate struct {
	// MaxSteps is the claimed worst-case interpreter step count; the
	// checker recomputes the bound and rejects on any mismatch.
	MaxSteps int
	// DivProven claims every division's divisor is provably non-zero;
	// the checker re-derives divisor facts and rejects a false claim.
	DivProven bool
	// Blocks holds the abstract machine state at every block leader
	// (reachable jump target), in strictly ascending pc order.
	Blocks []BlockInvariant
}

// BlockInvariant is the analyzer's fixpoint state at one block leader:
// which registers are definitely initialized on every path into the
// block, and each register's certified value interval.
type BlockInvariant struct {
	// PC is the block leader's instruction index.
	PC int
	// Init is the definite-initialization bitset (bit r = register r).
	Init uint32
	// Regs gives each register's certified interval; registers outside
	// Init are canonicalized to top regardless of what is stored here.
	Regs [NumRegs]Interval
}

// Certify verifies p exactly as Verify does and additionally attaches
// the proof as p.Cert, so the proof survives Encode/Decode. On success
// p.Meta carries the same claims Verify would record.
func Certify(p *Program, numHelpers int) error {
	if err := verifyStructure(p, numHelpers); err != nil {
		return err
	}
	a, err := runAnalyzer(p, nil)
	if err != nil {
		return err
	}
	defer a.release()
	n := len(p.Code)
	isTarget := make([]bool, n+1)
	for pc, in := range p.Code {
		if !a.states[pc].reachable {
			continue
		}
		switch in.Op {
		case OpJmp, OpJEq, OpJNe, OpJLt, OpJLe, OpJGt, OpJGe,
			OpJEqI, OpJNeI, OpJLtI, OpJLeI, OpJGtI, OpJGeI:
			isTarget[pc+1+int(in.Off)] = true
		}
	}
	cert := &Certificate{MaxSteps: a.maxSteps(p.Code), DivProven: a.divProven}
	for t := 0; t < n; t++ {
		if !isTarget[t] || !a.states[t].reachable {
			continue
		}
		b := BlockInvariant{PC: t, Init: a.states[t].rs.init}
		for r := 0; r < NumRegs; r++ {
			b.Regs[r] = a.states[t].rs.vals[r].iv()
		}
		cert.Blocks = append(cert.Blocks, b)
	}
	p.Cert = cert
	p.Meta.MaxSteps = cert.MaxSteps
	p.Meta.TrapFree = true
	p.Meta.DivProven = cert.DivProven
	return nil
}

// CheckCertificate validates p.Cert with a single linear pass and, on
// success, restores the certificate's claims into p.Meta for
// admission, step budgets and provenance to consume. The pass re-runs the
// analyzer's transfer function over each instruction exactly once:
// flow between block leaders is propagated directly (straight-line code
// has one predecessor), and every edge into a block leader must be
// subsumed by the shipped invariant, which makes the invariant set
// inductive and the whole program trap-free. Any malformed, stale, or
// tampered certificate is rejected with a VerifyError; callers then
// load the program unverified (or run a full Verify).
func CheckCertificate(p *Program, numHelpers int) error {
	c := p.Cert
	if c == nil {
		return vErr(p, 0, "certificate: program carries no certificate")
	}
	if err := verifyStructure(p, numHelpers); err != nil {
		return err
	}
	n := len(p.Code)

	// Shape: invariants at strictly ascending in-range pcs with known
	// register bits only. Interval contents need no vetting — they pass
	// through fromInterval's normalization, and a degenerate invariant
	// can only make subsumption fail (reject), never widen a proof.
	invAt := make([]int32, n)
	for i := range invAt {
		invAt[i] = -1
	}
	last := -1
	for i := range c.Blocks {
		b := &c.Blocks[i]
		if b.PC < 0 || b.PC >= n {
			return vErr(p, 0, "certificate: block invariant pc %d outside program", b.PC)
		}
		if b.PC <= last {
			return vErr(p, b.PC, "certificate: block invariants not in strictly ascending pc order")
		}
		last = b.PC
		if b.Init >= 1<<NumRegs {
			return vErr(p, b.PC, "certificate: invariant init mask %#x names unknown registers", b.Init)
		}
		invAt[b.PC] = int32(i)
	}

	// The step bound depends only on the static CFG, so the claim is
	// checked by exact recomputation.
	sc := analyzers.Get().(*analyzer)
	maxSteps := sc.maxSteps(p.Code)
	sc.release()
	if c.MaxSteps != maxSteps {
		return vErr(p, 0, "certificate: claimed MaxSteps %d does not match the program's step bound", c.MaxSteps)
	}

	// Compile every invariant to its compact form once: the subsumption
	// checks below then touch only the registers the invariant actually
	// constrains (typically two or three of sixteen) instead of
	// materializing and comparing full machine states per edge.
	cinvs, pairs := compileInvariants(c)

	divOK := true
	openWorld := func(int32) absVal { return topVal() }
	// The pass never copies a 400-byte machine state to advance: cur
	// points at the previous instruction's fall-through slot, and two
	// edge buffers ping-pong so transfer's output never aliases its
	// input. curBuf holds adopted invariant states.
	var bufs [2]edgeSet
	var curBuf regState
	curBuf = entryState() // the checker's own entry state, never the cert's
	cur := &curBuf
	curValid := true
	for pc := 0; pc < n; pc++ {
		if i := invAt[pc]; i >= 0 {
			if curValid && !subsumedBy(cur, &cinvs[i], pairs) {
				return vErr(p, pc, "certificate: straight-line flow into block at pc %d is not covered by its invariant", pc)
			}
			materialize(&curBuf, &cinvs[i], pairs)
			cur, curValid = &curBuf, true
		}
		if !curValid {
			// No invariant and no inflow: dead under the certificate,
			// exactly the code the fixpoint analyzer never visits.
			continue
		}
		eb := &bufs[pc&1]
		if err := transfer(p, pc, cur, openWorld, &divOK, eb); err != nil {
			return err
		}
		fall := -1
		for e := 0; e < eb.n; e++ {
			target := eb.target[e]
			if target == pc+1 {
				// Jump offsets are >= 1, so target pc+1 is always the
				// fall-through edge; it continues the linear pass.
				fall = e
				continue
			}
			if target >= n {
				return vErr(p, pc, "certificate: live edge falls off the end of the program")
			}
			i := invAt[target]
			if i < 0 {
				return vErr(p, pc, "certificate: jump target %d carries no block invariant", target)
			}
			if !subsumedBy(&eb.state[e], &cinvs[i], pairs) {
				return vErr(p, pc, "certificate: edge to pc %d is not covered by its block invariant", target)
			}
		}
		if fall >= 0 {
			if pc+1 >= n {
				return vErr(p, pc, "certificate: execution can fall off the end of the program")
			}
			cur, curValid = &eb.state[fall], true
		} else {
			curValid = false
		}
	}
	if c.DivProven && !divOK {
		return vErr(p, 0, "certificate: claims proven divisors but a divisor may be zero")
	}

	p.Meta.MaxSteps = c.MaxSteps
	p.Meta.TrapFree = true
	p.Meta.DivProven = c.DivProven
	return nil
}

// compactInv is a block invariant compiled for fast subsumption: the
// init mask plus only the registers the invariant actually constrains
// (initialized with a non-top interval), as a range into a shared pairs
// array. Registers outside the range are top — canonicalization is
// applied here once (an uninitialized register's interval is discarded,
// exactly as blockState canon would), so hostile certificates decode to
// the same well-formed semantics the analyzer produces.
type compactInv struct {
	init   uint32
	lo, hi int32 // pairs[lo:hi]
}

// regPair is one constrained register of a compact invariant.
type regPair struct {
	val absVal
	reg uint8
}

// compileInvariants lowers every block invariant to compact form.
// fromInterval normalizes hostile interval encodings (inverted bounds,
// NaN endpoints); a degenerate bottom interval is kept as a pair and
// can only make subsumption fail, never widen a proof.
func compileInvariants(c *Certificate) ([]compactInv, []regPair) {
	cinvs := make([]compactInv, len(c.Blocks))
	pairs := make([]regPair, 0, 4*len(c.Blocks))
	top := TopInterval()
	for i := range c.Blocks {
		b := &c.Blocks[i]
		lo := int32(len(pairs))
		for r := 0; r < NumRegs; r++ {
			if b.Init&(1<<r) == 0 || b.Regs[r] == top {
				continue // top by canonicalization, admits everything
			}
			v := fromInterval(b.Regs[r])
			if v == topVal() {
				continue
			}
			pairs = append(pairs, regPair{val: v, reg: uint8(r)})
		}
		cinvs[i] = compactInv{init: b.Init, lo: lo, hi: int32(len(pairs))}
	}
	return cinvs, pairs
}

// materialize expands a compact invariant into a full machine state for
// adoption as the linear pass's current state.
func materialize(rs *regState, ci *compactInv, pairs []regPair) {
	*rs = topState
	rs.init = ci.init
	for _, pr := range pairs[ci.lo:ci.hi] {
		rs.vals[pr.reg] = pr.val
	}
}

// topState is the all-registers-top machine state materialize patches.
var topState = func() regState {
	var rs regState
	for r := range rs.vals {
		rs.vals[r] = topVal()
	}
	return rs
}()

// subsumedBy reports that every concrete machine state admitted by cur
// is admitted by the invariant — the edge-coverage (⊑) check making
// invariants inductive. The invariant may only claim initialization cur
// guarantees, and each constrained register's value set in cur must be
// contained in the invariant's. cur need not be canonical: a register
// holding a stale value while uninitialized in cur is either also
// unclaimed by the invariant's init mask (then the invariant is top
// there and admits anything) or triggers the init-mask rejection.
func subsumedBy(cur *regState, ci *compactInv, pairs []regPair) bool {
	if ci.init&^cur.init != 0 {
		return false
	}
	for _, pr := range pairs[ci.lo:ci.hi] {
		if !valIn(cur.vals[pr.reg], pr.val) {
			return false
		}
	}
	return true
}

// valIn reports x ⊆ y on abstract values: NaN possibility and the
// ordinary interval must both be contained.
func valIn(x, y absVal) bool {
	if x.nan && !y.nan {
		return false
	}
	if x.num && (!y.num || y.lo > x.lo || y.hi < x.hi) {
		return false
	}
	return true
}
