package main

import (
	"bytes"
	"fmt"
	"time"

	"guardrails/benchmark/gen"
	"guardrails/benchmark/oracle"
	"guardrails/benchmark/span"
	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/spec/modelcheck"
	"guardrails/internal/spec/vet"
	"guardrails/internal/vm"
)

// checkStage names one call of the load-time pipeline; the traced pass
// records a span per stage and sums them into the per-layer metrics.
type checkStage struct{ name, layer, metric string }

var (
	stageParse     = checkStage{"spec.Parse", "spec", "spec.parse_ms"}
	stageCheck     = checkStage{"spec.Check", "spec", "spec.check_ms"}
	stageCompile   = checkStage{"compile.File", "compile", "compile.file_ms"}
	stageCert      = checkStage{"vm.Certify+Encode+Decode+CheckCertificate", "vm", ""}
	stageVet       = checkStage{"vet.File", "vet", "vet.file_ms"}
	stageInterfere = checkStage{"interfere.Analyze", "interfere", "interfere.analyze_ms"}
	stageModel     = checkStage{"modelcheck.Check", "modelcheck", "modelcheck.check_ms"}
)

// checkRun is one pass of the manifest through the pipeline grailcheck
// -check runs: parse, check and compile every file, round-trip every
// program through its certificate-carrying image, vet every file, then
// analyze and model-check the whole deployment.
type checkRun struct {
	manifest *gen.Manifest
	// stage, when non-nil, wraps each pipeline call (the traced pass).
	stage func(s checkStage, fn func())

	monitors  int
	insnsPre  int
	insnsPost int
	findings  []gen.Finding
	proved    map[string]bool
	interfere *interfere.Report
	temporal  *modelcheck.Report
	err       error
}

func (r *checkRun) do(s checkStage, fn func()) {
	if r.stage != nil {
		r.stage(s, fn)
		return
	}
	fn()
}

func (r *checkRun) pipeline() {
	dep := &interfere.Deployment{}
	var props []*spec.PropertyDecl
	for _, sf := range r.manifest.Files {
		var f *spec.File
		var cs []*compile.Compiled
		r.do(stageParse, func() { f, r.err = spec.Parse(sf.Source) })
		if r.err != nil {
			return
		}
		r.do(stageCheck, func() { r.err = spec.Check(f) })
		if r.err != nil {
			return
		}
		r.do(stageCompile, func() { cs, r.err = compile.File(f) })
		if r.err != nil {
			return
		}
		r.do(stageCert, func() { r.err = roundTrip(cs) })
		if r.err != nil {
			return
		}
		r.do(stageVet, func() {
			for _, d := range vet.File(f) {
				if d.Severity == vet.Warn {
					r.findings = append(r.findings, gen.Finding{Code: d.Code, Guardrail: d.Guardrail})
				}
			}
		})
		for _, c := range cs {
			r.insnsPre += c.Program.Meta.PreOptInsns
			r.insnsPost += c.Program.Meta.PostOptInsns
		}
		dep.Monitors = append(dep.Monitors, cs...)
		dep.Features = append(dep.Features, f.Features...)
		props = append(props, f.Properties...)
	}
	r.monitors = len(dep.Monitors)
	r.do(stageInterfere, func() { r.interfere = interfere.Analyze(dep) })
	r.do(stageModel, func() { r.temporal = modelcheck.Check(dep, modelcheck.Config{Properties: props}) })
	for _, rep := range [][]interfere.Diagnostic{r.interfere.Diagnostics, r.temporal.Diagnostics} {
		for _, d := range rep {
			if d.Severity == interfere.Warn {
				r.findings = append(r.findings, gen.Finding{Code: d.Code, Guardrail: d.Guardrail, Others: d.Others})
			}
		}
	}
	r.proved = map[string]bool{}
	for _, p := range r.temporal.Properties {
		r.proved[p.Property] = p.Status == modelcheck.StatusProved
	}
}

// roundTrip ships every program as a certificate-carrying image and
// admits it back: Certify, Encode, Decode, CheckCertificate.
func roundTrip(cs []*compile.Compiled) error {
	for _, c := range cs {
		p := *c.Program
		if err := vm.Certify(&p, vm.NumBuiltinHelpers); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			return err
		}
		q, err := vm.Decode(&buf)
		if err != nil {
			return err
		}
		if err := vm.CheckCertificate(q, vm.NumBuiltinHelpers); err != nil {
			return err
		}
		if !q.Meta.TrapFree {
			return fmt.Errorf("%s: decoded image not admitted to the proven path", c.Name)
		}
	}
	return nil
}

// checkInstance is one round of check_manifest: one pass, one batch.
type checkInstance struct{ pass checkRun }

func (c *checkInstance) batches() int { return 1 }

func (c *checkInstance) run(rec *batchTimes, tr *span.Recorder) int64 {
	if tr != nil {
		c.pass.stage = func(s checkStage, fn func()) {
			id := tr.Begin(s.name, s.layer)
			fn()
			tr.End(id, nil)
		}
	}
	start := time.Now()
	c.pass.pipeline()
	rec.add(time.Since(start))
	return int64(c.pass.manifest.Monitors)
}

func (c *checkInstance) verify() oracle.Verdict {
	r := &c.pass
	if r.err != nil {
		var v oracle.Verdict
		v.Check("pipeline error: "+r.err.Error(), uint64(r.manifest.Monitors), 0)
		return v
	}
	v := oracle.CompareFindings(r.manifest, r.findings, r.proved)
	v.Check("monitors compiled", uint64(r.monitors), uint64(r.manifest.Monitors))
	if r.temporal.Truncated {
		v.Check("model checking truncated: "+r.temporal.TruncationReason, 1, 0)
	}
	return v
}

// manifestLadders is how many escalation ladders the manifest plants at
// a given scale: all four (162 abstract states, about half a second of
// model checking) or, for the fast self-tests, two (18 states).
func manifestLadders(scale float64) int {
	if scale < 0.5 {
		return 2
	}
	return gen.Ladders
}

var checkManifest = &workload{
	name:  "check_manifest",
	why:   "a 200-guardrail tool-governance deployment with planted ground truth through parse, compile, certificates, vet, interfere and modelcheck: the load-time half, which shares no code with the fire path",
	procs: 1,
	setup: func(seed int64, scale float64) (instance, error) {
		return &checkInstance{pass: checkRun{manifest: gen.BuildManifest(seed, manifestLadders(scale))}}, nil
	},
	layers: checkLayers,
}

// checkLayers is the layer replay of check_manifest: one traced pass of
// the full-size pipeline, a span per call, summed per stage. The harness
// is the pipeline's driver, so these are direct measurements.
func checkLayers(c *layerCtx) error {
	r := checkRun{manifest: gen.BuildManifest(c.seed, manifestLadders(c.full))}
	sums := map[string]float64{}
	r.stage = func(s checkStage, fn func()) {
		sums[s.metric] += c.timed(s.name, s.layer, nil, fn)
	}
	c.tracedNS = c.timed("pipeline", "driver", map[string]float64{"ops": float64(r.manifest.Monitors)}, r.pipeline) / float64(r.manifest.Monitors)
	if r.err != nil {
		return r.err
	}
	for metric, ns := range sums {
		if metric != "" {
			c.set(metric, ns/1e6)
		}
	}
	c.set("compile.insns_pre", float64(r.insnsPre))
	c.set("compile.insns_post", float64(r.insnsPost))
	warnings := 0
	for _, d := range r.interfere.Diagnostics {
		if d.Severity == interfere.Warn {
			warnings++
		}
	}
	c.set("interfere.diagnostics", float64(warnings))
	c.set("modelcheck.states", float64(r.temporal.States))
	if r.temporal.Truncated {
		c.set("modelcheck.truncated", 1)
	}

	// Per-program verification cost, on the manifest's own programs.
	var cs []*compile.Compiled
	for _, sf := range r.manifest.Files {
		compiled, err := compile.Source(sf.Source)
		if err != nil {
			return err
		}
		cs = append(cs, compiled...)
	}
	measureVerify(c, cs, 5)
	c.set("kernel.barrier_share", 0) // no kernel runs at load time
	return nil
}
