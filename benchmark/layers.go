package main

import (
	"bytes"
	"io"
	"runtime"
	"time"

	"guardrails/benchmark/gen"
	"guardrails/internal/compile"
	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
	"guardrails/internal/provenance"
	"guardrails/internal/telemetry"
	"guardrails/internal/vm"
)

// The layer replay measures each layer from outside, by timing calls
// into its exported functions with the workload's own input sequence.
// Every per-operation figure is the median over batches of batch wall
// time divided by the batch's operations, so a preempted batch does not
// move it.

// batchLoop runs body once per batch under one span of the given layer,
// timing each batch with one time.Now pair (prep, when non-nil, runs
// untimed before it) and sampling one batch in sampleEvery into the
// trace. It returns each batch's nanoseconds per operation.
func (c *layerCtx) batchLoop(name, layer string, batches, opsPerBatch int, prep, body func(b int)) []float64 {
	out := make([]float64, batches)
	id := c.tr.Begin(name, layer)
	for b := 0; b < batches; b++ {
		if prep != nil {
			prep(b)
		}
		t0 := time.Now()
		body(b)
		t1 := time.Now()
		out[b] = float64(t1.Sub(t0)) / float64(opsPerBatch)
		if b%sampleEvery == 0 {
			c.tr.Add(name+" batch", layer, t0, t1)
		}
	}
	c.tr.End(id, map[string]float64{"ops": float64(batches * opsPerBatch)})
	return out
}

// split separates per-batch values into holding and violating batches.
func split(vals []float64, in *gen.FireInputs) (hold, viol []float64) {
	for b, v := range vals {
		if in.IsViolating(b) {
			viol = append(viol, v)
		} else {
			hold = append(hold, v)
		}
	}
	return hold, viol
}

// arrayEnv is the harness's vm.Env: program cells in a plain slice, no
// feature store behind them, helpers that do nothing. It counts the
// loads and stores a program makes, which gives the exact feature-store
// operations per evaluation.
type arrayEnv struct {
	cells         []float64
	loads, stores uint64
}

func (e *arrayEnv) LoadCell(i int32) float64 { e.loads++; return e.cells[i] }

func (e *arrayEnv) StoreCell(i int32, v float64) { e.stores++; e.cells[i] = v }

func (e *arrayEnv) Helper(vm.HelperID, *[5]float64) (float64, error) { return 0, nil }

// fireLayers is the layer replay of the single-loop fire workloads.
func fireLayers(c *layerCtx, in *gen.FireInputs, telem, prov bool) error {
	cs, err := compile.Source(in.Source)
	if err != nil {
		return err
	}
	if err := fireCommonLayers(c, in, cs); err != nil {
		return err
	}
	if err := measureSinks(c, in, telem, prov); err != nil {
		return err
	}
	c.set("kernel.barrier_share", 0) // one loop: no barrier to wait at
	ledger(c, in, 0)
	return nil
}

// fireCommonLayers measures the layers every fire workload crosses.
func fireCommonLayers(c *layerCtx, in *gen.FireInputs, cs []*compile.Compiled) error {
	measureDispatch(c, in)
	measureVM(c, in, cs[0].Program)
	measureStore(c, in.Batches)
	if err := measureEvaluate(c, in); err != nil {
		return err
	}
	measureLoad(c, cs)
	measureEvents(c, in.Batches)
	return nil
}

// measureDispatch times k.Fire on a kernel whose only hook is a harness
// no-op: the cost of the dispatch path itself.
func measureDispatch(c *layerCtx, in *gen.FireInputs) {
	k := kernel.New()
	k.Attach(in.Site, func(*kernel.Kernel, string, []float64) {})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ns := c.batchLoop("kernel.Fire", "kernel", in.Batches, gen.FiresPerBatch, nil, func(int) {
		for f := 0; f < gen.FiresPerBatch; f++ {
			k.Fire(in.Site, float64(f))
		}
	})
	runtime.ReadMemStats(&after)
	c.set("kernel.fire_dispatch_ns", median(ns))
	// The loop's own bookkeeping allocates a fixed handful of objects;
	// over hundreds of thousands of fires it does not show.
	c.set("kernel.fire_dispatch_allocs", float64(after.Mallocs-before.Mallocs)/float64(in.Fires()))
}

// measureVM times Machine.Run on the workload's program and feature
// schedule against the array-backed Env.
func measureVM(c *layerCtx, in *gen.FireInputs, p *vm.Program) {
	env := &arrayEnv{cells: make([]float64, len(p.Symbols))}
	cellOf := make([]int, len(in.Keys))
	for i, key := range in.Keys {
		cellOf[i] = -1
		for cell, sym := range p.Symbols {
			if sym == key {
				cellOf[i] = cell
			}
		}
	}
	var mach vm.Machine
	var holdLoads, holdRuns uint64
	ns := c.batchLoop("Machine.Run", "vm", in.Batches, gen.FiresPerBatch,
		func(b int) {
			for i, v := range in.Row(b) {
				if cellOf[i] >= 0 {
					env.cells[cellOf[i]] = v
				}
			}
		},
		func(b int) {
			before := env.loads
			for f := 0; f < gen.FiresPerBatch; f++ {
				_, _ = mach.Run(p, env, float64(f)) // a trap would show as a fault in the end-to-end oracle
			}
			if !in.IsViolating(b) {
				holdLoads += env.loads - before
				holdRuns += gen.FiresPerBatch
			}
		})
	runs := float64(in.Fires())
	hold, _ := split(ns, in)
	c.holdLoads = float64(holdLoads) / float64(holdRuns)
	c.set("vm.run_ns", median(hold))
	c.set("vm.steps_per_eval", float64(mach.Steps)/runs)
	c.set("vm.ns_per_step", median(ns)*runs/float64(mach.Steps))
	c.set("featurestore.loads_per_op", float64(env.loads)/runs)
	// The subsystem's own per-batch writes count too.
	c.set("featurestore.saves_per_op", (float64(env.stores)+float64(in.Batches*len(in.Keys)))/runs)
}

// measureStore times the feature store's three hot operations.
func measureStore(c *layerCtx, batches int) {
	st := featurestore.New()
	plain, watched := st.Intern("plain"), st.Intern("watched")
	st.Watch("watched", func(string, float64) {})
	var sinkhole float64
	c.set("featurestore.load_ns", median(c.batchLoop("Store.LoadID", "featurestore", batches, gen.FiresPerBatch, nil, func(int) {
		for f := 0; f < gen.FiresPerBatch; f++ {
			sinkhole += st.LoadID(plain)
		}
	})))
	c.set("featurestore.save_ns", median(c.batchLoop("Store.SaveID", "featurestore", batches, gen.FiresPerBatch, nil, func(b int) {
		for f := 0; f < gen.FiresPerBatch; f++ {
			st.SaveID(plain, float64(b))
		}
	})))
	c.set("featurestore.save_watched_ns", median(c.batchLoop("Store.SaveID watched", "featurestore", batches, gen.FiresPerBatch, nil, func(b int) {
		for f := 0; f < gen.FiresPerBatch; f++ {
			st.SaveID(watched, float64(b))
		}
	})))
	_ = sinkhole
}

// measureEvaluate times Monitor.Evaluate called directly, no kernel
// dispatch and no planes attached, and splits violating from holding
// batches: their difference is what dispatching the actions costs.
func measureEvaluate(c *layerCtx, in *gen.FireInputs) error {
	sys, err := buildFire(in, false, false)
	if err != nil {
		return err
	}
	m := sys.mons[0]
	ns := c.batchLoop("Monitor.Evaluate", "monitor", in.Batches, gen.FiresPerBatch,
		func(b int) {
			for i, v := range in.Row(b) {
				sys.st.SaveID(sys.ids[i], v)
			}
		},
		func(int) {
			for f := 0; f < gen.FiresPerBatch; f++ {
				m.Evaluate(float64(f))
			}
		})
	hold, viol := split(ns, in)
	c.set("monitor.evaluate_ns", median(ns))
	if len(viol) > 0 {
		c.set("actions.dispatch_ns", median(viol)-median(hold))
	}
	c.set("actions.reports", float64(sys.rt.Log.Total()))
	c.set("actions.dead_letters", float64(sys.rt.DeadLetter.Total()))
	// Bookkeeping is what remains of a holding evaluation once the VM
	// run and the feature-store reads it makes are taken out.
	c.set("monitor.self_ns", median(hold)-c.out["vm.run_ns"]-c.holdLoads*c.out["featurestore.load_ns"])
	return nil
}

// measureSinks prices the telemetry and provenance planes by attaching
// them one at a time to the workload's own fire path: planes off, then
// telemetry as the workload has it, then provenance too. The three
// systems play the schedule interleaved, batch by batch, so that a slow
// spell of the machine falls on all three alike. A workload that runs
// without a plane measures the same configuration twice, so its overhead
// reads as the noise floor around zero.
func measureSinks(c *layerCtx, in *gen.FireInputs, telem, prov bool) error {
	configs := [3][2]bool{{false, false}, {telem, false}, {telem, prov}}
	var systems [3]*fireSystem
	var perOp [3][]float64
	for i, cfg := range configs {
		sys, err := buildFire(in, cfg[0], cfg[1])
		if err != nil {
			return err
		}
		systems[i], perOp[i] = sys, make([]float64, in.Batches)
	}
	id := c.tr.Begin("fire path: planes off / telemetry / telemetry+provenance", "driver")
	for b := 0; b < in.Batches; b++ {
		for i, sys := range systems {
			t0, t1 := sys.playBatch(b)
			perOp[i][b] = float64(t1.Sub(t0)) / float64(in.FiresPerBatch)
			if b%sampleEvery == 0 {
				c.tr.Add("batch", "driver", t0, t1)
			}
		}
	}
	c.tr.End(id, map[string]float64{"ops": 3 * float64(in.Fires())})
	off, tOn, pOn := median(perOp[0]), median(perOp[1]), median(perOp[2])
	base, full := systems[0], systems[2]
	c.set("telemetry.overhead_ns", tOn-off)
	c.set("provenance.overhead_ns", pOn-tOn)

	// Exact counts of the replayed schedule, from monitor.Stats.
	var evals, violations, fired, faults float64
	for _, m := range base.mons {
		st := m.Stats()
		evals += float64(st.Evals)
		violations += float64(st.Violations)
		fired += float64(st.ActionsFired)
		faults += float64(st.Traps)
	}
	c.set("monitor.evals", evals)
	c.set("monitor.violations", violations)
	c.set("monitor.actions_fired", fired)
	c.set("monitor.faults", faults)

	if full.sink != nil {
		fl := full.sink.Flight()
		c.set("telemetry.flight_overwritten", float64(fl.Total())-float64(fl.Len()))
		c.set("telemetry.snapshot_ms", c.timed("Sink.Snapshot+WritePrometheus", "telemetry", nil, func() {
			_ = full.sink.Snapshot()
			_ = full.sink.WritePrometheus(io.Discard)
		})/1e6)
	}
	if full.prov != nil {
		c.set("provenance.sampled_share", float64(full.prov.Total())/evals)
		c.set("provenance.ring_overwritten", float64(full.prov.Total())-float64(full.prov.Len()))
	}
	if telem {
		measureTelemetryRecord(c, in)
	}
	if prov {
		measureProvenanceCommit(c, in)
	}
	return nil
}

// measureTelemetryRecord times what one fire records on a bare sink.
func measureTelemetryRecord(c *layerCtx, in *gen.FireInputs) {
	sink := telemetry.New(nil, flightCap)
	name := in.Guardrails[0].Name
	c.set("telemetry.record_ns", median(c.batchLoop("Sink.HookFire+HookDispatched+Eval", "telemetry", in.Batches, gen.FiresPerBatch, nil, func(b int) {
		for f := 0; f < gen.FiresPerBatch; f++ {
			sink.HookFire(int64(b), in.Site, float64(f))
			sink.Eval(int64(b), name, 4, true)
			sink.HookDispatched(in.Site, 100)
		}
	})))
}

// measureProvenanceCommit times Recorder.Commit of a prefilled record.
func measureProvenanceCommit(c *layerCtx, in *gen.FireInputs) {
	rec := provenance.New(provCap, healthyEvery)
	r := provenance.Record{Monitor: in.Guardrails[0].Name, Site: in.Site, Held: true, Steps: 4}
	r.AddFeature(in.Keys[0], 0.5, false, false)
	c.set("provenance.commit_ns", median(c.batchLoop("Recorder.Commit", "provenance", in.Batches, gen.FiresPerBatch, nil, func(int) {
		for f := 0; f < gen.FiresPerBatch; f++ {
			rec.Commit(&r)
		}
	})))
}

// loadReps is how many fresh runtimes the load-time figures average
// over: one load is tens of microseconds.
const loadReps = 200

// measureLoad times what set-up pays per guardrail: Runtime.Load,
// LoadDeployment of the workload's set, vm.Verify, and decoding and
// checking a certificate-carrying image.
func measureLoad(c *layerCtx, cs []*compile.Compiled) {
	n := float64(loadReps * len(cs))
	c.set("monitor.load_us", c.timed("Runtime.Load", "monitor", map[string]float64{"loads": n}, func() {
		for r := 0; r < loadReps; r++ {
			rt := monitor.New(kernel.New(), featurestore.New())
			for _, comp := range cs {
				_, _ = rt.Load(comp, monitor.Options{}) // fresh runtime: cannot be a duplicate
			}
		}
	})/n/1e3)
	c.set("monitor.deploy_ms", c.timed("Runtime.LoadDeployment", "monitor", map[string]float64{"deployments": loadReps}, func() {
		for r := 0; r < loadReps; r++ {
			rt := monitor.New(kernel.New(), featurestore.New())
			_, _ = rt.LoadDeployment(cs, monitor.DeployConfig{}) // admitted by the end-to-end pass already
		}
	})/loadReps/1e6)
	measureVerify(c, cs, loadReps)
}

// measureVerify times vm.Verify and Decode+CheckCertificate per program
// and reports the share of programs admitted to the proven loop.
func measureVerify(c *layerCtx, cs []*compile.Compiled, reps int) {
	n := float64(reps * len(cs))
	proven := 0
	images := make([][]byte, len(cs))
	for i, comp := range cs {
		if comp.Program.Meta.TrapFree {
			proven++
		}
		// Certify a copy: the compiled program is shared with the loads
		// above and must keep the Meta the compiler gave it.
		p := *comp.Program
		var buf bytes.Buffer
		if err := vm.Certify(&p, vm.NumBuiltinHelpers); err == nil && p.Encode(&buf) == nil {
			images[i] = buf.Bytes()
		}
	}
	c.set("vm.proven_share", float64(proven)/float64(len(cs)))
	c.set("vm.verify_us", c.timed("vm.Verify", "vm", map[string]float64{"programs": n}, func() {
		for r := 0; r < reps; r++ {
			for _, comp := range cs {
				p := *comp.Program
				_ = vm.Verify(&p, vm.NumBuiltinHelpers) // verified at compile time
			}
		}
	})/n/1e3)
	c.set("vm.certcheck_us", c.timed("vm.Decode+CheckCertificate", "vm", map[string]float64{"programs": n}, func() {
		for r := 0; r < reps; r++ {
			for _, img := range images {
				if p, err := vm.Decode(bytes.NewReader(img)); err == nil {
					_ = vm.CheckCertificate(p, vm.NumBuiltinHelpers)
				}
			}
		}
	})/n/1e3)
}

// measureEvents times the kernel event heap: schedule a batch of no-op
// events, then run them.
func measureEvents(c *layerCtx, batches int) {
	k := kernel.New()
	noop := func() {}
	var t kernel.Time
	c.set("kernel.event_ns", median(c.batchLoop("Kernel.At+RunUntil", "kernel", batches, gen.FiresPerBatch, nil, func(int) {
		for f := 0; f < gen.FiresPerBatch; f++ {
			t++
			k.At(t, noop)
		}
		k.RunUntil(t + 1)
	})))
}

// ledger adds the layers up for one fire and compares the sum with the
// untraced pass's mean CPU nanoseconds per fire (wall time per fire times
// the cores the workload keeps busy): dispatch, monitor bookkeeping, the
// VM run, the feature-store operations, the two planes, on the share of
// fires that violate the action dispatch, and whatever extra the
// workload's own loop adds per fire.
func ledger(c *layerCtx, in *gen.FireInputs, extra float64) {
	violating := 0
	for b := 0; b < in.Batches; b++ {
		if in.IsViolating(b) {
			violating++
		}
	}
	violShare := float64(violating) / float64(in.Batches)
	o := c.out
	sum := o["kernel.fire_dispatch_ns"] + o["monitor.self_ns"] + o["vm.run_ns"] +
		c.holdLoads*o["featurestore.load_ns"] +
		float64(len(in.Keys))/gen.FiresPerBatch*o["featurestore.save_ns"] +
		violShare*o["actions.dispatch_ns"] +
		o["telemetry.overhead_ns"] + o["provenance.overhead_ns"] + extra
	mean := 1e9 / c.e2e.EndToEnd["ops_per_sec"].Value * float64(c.w.procs)
	c.set("ledger.sum_ns", sum)
	c.set("ledger.residual_share", (mean-sum)/mean)
}
