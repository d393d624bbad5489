package gen

import "fmt"

// FiresPerBatch is the timed batch size of every fire workload, and on
// the single-loop ones also the closed-loop step: the subsystem side
// writes its features once, then fires the hook this many times.
const FiresPerBatch = 64

// Feature-store keys the fire workloads use.
const (
	KeyLatMA    = "lat_ma"
	KeyAlert    = "alert"
	KeyThrottle = "throttle"
	KeyMode     = "mode"
	SiteIODone  = "io_done"
)

// FireInputs is one fire workload's generated input: the guardrails
// (source text for the program, structs for the oracle) and the feature
// schedule the subsystem side plays, one row of Keys per batch.
type FireInputs struct {
	Site string
	// Source is the spec text of Guardrails, loaded on Site.
	Source     string
	Guardrails []*Guardrail
	// Watcher, when non-nil, is loaded with a dependency trigger: it is
	// evaluated on every write of WatchKey, not on a hook.
	Watcher       *Guardrail
	WatcherSource string
	WatchKey      string

	Keys []string
	// Batches is how many times the subsystem writes its features and
	// then fires the hook FiresPerBatch times.
	Batches       int
	FiresPerBatch int
	// Values holds rows of len(Keys) feature values; batch b plays row
	// b modulo the row count, so a short schedule can drive a long run.
	Values []float64
	// Violating marks the rows the generator made violate; the oracle
	// does not read it (it evaluates the rules), the layer replay uses
	// it to split violating from holding batches.
	Violating []bool
}

// Row returns batch b's feature values, in Keys order.
func (in *FireInputs) Row(b int) []float64 {
	n := len(in.Keys)
	r := b % (len(in.Values) / n)
	return in.Values[r*n : (r+1)*n]
}

// IsViolating reports whether the generator made batch b violate.
func (in *FireInputs) IsViolating(b int) bool { return in.Violating[b%len(in.Violating)] }

// Fires returns the total hook fires of the schedule.
func (in *FireInputs) Fires() int64 { return int64(in.Batches) * int64(in.FiresPerBatch) }

// Bare generates the fire_bare / fire_observed / fire_sharded input: one
// Listing-2-shaped guardrail (one LOAD, one compare) whose rule always
// holds, over a per-batch latency moving average drawn from the seed.
func Bare(seed int64, stream string, batches int) *FireInputs {
	g := &Guardrail{
		Name:  "bare-lat",
		Site:  SiteIODone,
		Rules: []Rule{{Left: Load(KeyLatMA), Cmp: "<=", Bound: Const(0.95)}},
		Saves: []Save{{Key: KeyAlert, Value: Const(1)}},
	}
	in := &FireInputs{
		Site:          SiteIODone,
		Source:        g.Text(),
		Guardrails:    []*Guardrail{g},
		Keys:          []string{KeyLatMA},
		Batches:       batches,
		FiresPerBatch: FiresPerBatch,
		Values:        make([]float64, batches),
		Violating:     make([]bool, batches),
	}
	rng := NewRNG(seed, stream)
	for b := range in.Values {
		in.Values[b] = rng.Range(0.10, 0.90)
	}
	return in
}

// WideFeatures is how many features the wide guardrail reads, and how
// many rule groups it has (group g is dominated by feature g).
const WideFeatures = 6

// wideKey names wide feature i.
func wideKey(i int) string { return fmt.Sprintf("wf%d", i) }

// wideGroup builds rule group g: a dominant term 6·f_g plus cross terms
// over the other features using *, / and -. With every feature in
// [1, 2) the cross terms stay inside (-1.125, 0.875), and inside
// (-0.63, 0.31) when only f_g is above 1.5. So under its bound of 10.25
// the group holds while f_g < 1.5 (at most 9.875) and violates once
// f_g >= 1.9 (at least 10.77) — margins far wider than any
// reassociation the optimizer may apply.
func wideGroup(g int, rng *RNG) Rule {
	f := func(k int) *Expr { return Load(wideKey((g + k) % WideFeatures)) }
	c := func(lo, hi float64) *Expr { return Const(rng.Grid(lo, hi, 1.0/64)) }
	dominant := Bin('*', f(0), Const(6))
	// (f1*f2 - f3/f4) * c  in (-1, 3.5)*c, c in [0.0625, 0.125)
	cross1 := Bin('*', Bin('-', Bin('*', f(1), f(2)), Bin('/', f(3), f(4))), c(0.0625, 0.125))
	// f5 / (f1 * c)  in (0.5, 2)/c', c' in [4, 8)
	cross2 := Bin('/', f(5), Bin('*', f(1), c(4, 8)))
	// (f2 - f4) * (f3 / c)  in (-1, 1)*(0.125, 0.5)
	cross3 := Bin('*', Bin('-', f(2), f(4)), Bin('/', f(3), c(4, 8)))
	left := Bin('-', Bin('+', Bin('+', dominant, cross1), cross3), cross2)
	return Rule{Left: left, Cmp: "<=", Bound: Const(10.25)}
}

// Wide generates the fire_wide input: a six-group guardrail whose
// actions are SAVE(throttle, expr) + REPORT(...), a dependency-triggered
// watcher on throttle, and a schedule in which violShare of the batches
// violate one seeded group.
func Wide(seed int64, batches int, violShare float64) *FireInputs {
	shape := NewRNG(seed, "wide/shape")
	g := &Guardrail{Name: "wide-pressure", Site: SiteIODone}
	for i := 0; i < WideFeatures; i++ {
		g.Rules = append(g.Rules, wideGroup(i, shape))
	}
	// throttle = f0 / f1 lies in (0.5, 2): the watcher's bound of 1
	// splits violating batches between waking it for nothing and
	// making it act.
	g.Saves = []Save{{Key: KeyThrottle, Value: Bin('/', Load(wideKey(0)), Load(wideKey(1)))}}
	g.HasReport = true
	g.Report = []*Expr{Load(wideKey(0)), Bin('*', Load(wideKey(1)), Const(0.5))}

	w := &Guardrail{
		Name: "wide-watch",
		// Never fired: the watcher runs on its dependency trigger only.
		Site:  "wide_watch_idle",
		Rules: []Rule{{Left: Load(KeyThrottle), Cmp: "<=", Bound: Const(1)}},
		Saves: []Save{{Key: KeyMode, Value: Bin('*', Load(KeyThrottle), Const(2))}},
	}

	in := &FireInputs{
		Site:          SiteIODone,
		Source:        g.Text(),
		Guardrails:    []*Guardrail{g},
		Watcher:       w,
		WatcherSource: w.Text(),
		WatchKey:      KeyThrottle,
		Batches:       batches,
		FiresPerBatch: FiresPerBatch,
		Values:        make([]float64, batches*WideFeatures),
		Violating:     make([]bool, batches),
	}
	for i := 0; i < WideFeatures; i++ {
		in.Keys = append(in.Keys, wideKey(i))
	}
	rng := NewRNG(seed, "wide/schedule")
	for b := 0; b < batches; b++ {
		row := in.Row(b)
		for i := range row {
			row[i] = rng.Range(1.0, 1.5)
		}
		if rng.Float() < violShare {
			in.Violating[b] = true
			row[rng.Intn(WideFeatures)] = rng.Range(1.9, 2.0)
		}
	}
	return in
}
