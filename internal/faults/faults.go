// Package faults is the deterministic fault-injection layer for chaos
// experiments against the guardrail runtime. A Plan is a declarative
// schedule of faults — VM traps, helper-call failures, feature-store
// read corruption, action-backend errors, replica loss — that arms
// against a simulated kernel and plugs into the monitor runtime through
// the monitor.FaultInjector seam.
//
// Everything is scheduled by simulated time ([From, Until) windows, At
// instants): the same Plan against the same system replays the same
// faults, so a chaos run is as reproducible as any other experiment in
// this repository.
package faults

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"guardrails/internal/kernel"
	"guardrails/internal/monitor"
	"guardrails/internal/vm"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// EvalTrap aborts a monitor evaluation before the program runs, as
	// if the VM had crashed.
	EvalTrap Kind = iota
	// HelperFail fails a VM helper call, surfacing as a TrapHelper.
	HelperFail
	// LoadNaN corrupts a feature-store read to NaN.
	LoadNaN
	// LoadStale replaces a feature-store read with the last value the
	// injector observed for that key before the fault window opened.
	LoadStale
	// ActionFail fails an action dispatch before its backend runs.
	ActionFail
	// ReplicaFail takes a storage replica out of service at time At.
	ReplicaFail
	// ReplicaHeal returns a storage replica to service at time At.
	ReplicaHeal
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case EvalTrap:
		return "eval-trap"
	case HelperFail:
		return "helper-fail"
	case LoadNaN:
		return "load-nan"
	case LoadStale:
		return "load-stale"
	case ActionFail:
		return "action-fail"
	case ReplicaFail:
		return "replica-fail"
	case ReplicaHeal:
		return "replica-heal"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Rule schedules one fault class. Zero-valued gates are permissive: a
// rule with only a Kind fires on every matching call, forever.
type Rule struct {
	// Kind selects the fault class.
	Kind Kind
	// Guardrail restricts the rule to one monitor ("" = all).
	Guardrail string
	// Key is the feature-store key (LoadNaN/LoadStale) or a substring
	// of the rendered action name, e.g. "RETRAIN" (ActionFail).
	// "" matches everything.
	Key string
	// From and Until bound the rule to [From, Until) in simulated time.
	// Until 0 means forever.
	From, Until kernel.Time
	// Replica and At place ReplicaFail/ReplicaHeal events.
	Replica int
	At      kernel.Time
}

// Injector delivers a Plan's faults. It implements
// monitor.FaultInjector and is safe for concurrent use.
type Injector struct {
	mu       sync.Mutex
	rules    []Rule
	clock    func() kernel.Time
	counts   map[Kind]int
	lastSeen map[string]float64
}

var _ monitor.FaultInjector = (*Injector)(nil)

// fires decides whether a rule delivers a fault at time now for a call
// matching (guardrail, key).
func fires(r Rule, now kernel.Time, guardrail, key string) bool {
	if r.Guardrail != "" && r.Guardrail != guardrail {
		return false
	}
	if now < r.From || (r.Until > 0 && now >= r.Until) {
		return false
	}
	return r.Key == "" || strings.Contains(key, r.Key)
}

// EvalFault implements monitor.FaultInjector.
func (inj *Injector) EvalFault(guardrail string) error {
	now := inj.clock()
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, r := range inj.rules {
		if r.Kind == EvalTrap && fires(r, now, guardrail, "") {
			inj.counts[EvalTrap]++
			return fmt.Errorf("faults: injected evaluation trap")
		}
	}
	return nil
}

// LoadFault implements monitor.FaultInjector. Non-firing calls feed the
// stale-value cache so LoadStale has a past to replay.
func (inj *Injector) LoadFault(guardrail, key string, value float64) (float64, bool) {
	now := inj.clock()
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, r := range inj.rules {
		switch r.Kind {
		case LoadNaN:
			if fires(r, now, guardrail, key) {
				inj.counts[LoadNaN]++
				return math.NaN(), true
			}
		case LoadStale:
			if fires(r, now, guardrail, key) {
				inj.counts[LoadStale]++
				return inj.lastSeen[key], true
			}
		}
	}
	inj.lastSeen[key] = value
	return 0, false
}

// HelperFault implements monitor.FaultInjector.
func (inj *Injector) HelperFault(guardrail string, h vm.HelperID) error {
	now := inj.clock()
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, r := range inj.rules {
		if r.Kind == HelperFail && fires(r, now, guardrail, "") {
			inj.counts[HelperFail]++
			return fmt.Errorf("faults: injected helper %d failure", h)
		}
	}
	return nil
}

// ActionFault implements monitor.FaultInjector.
func (inj *Injector) ActionFault(guardrail, action string) error {
	now := inj.clock()
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, r := range inj.rules {
		if r.Kind == ActionFail && fires(r, now, guardrail, action) {
			inj.counts[ActionFail]++
			return fmt.Errorf("faults: injected %s backend failure", action)
		}
	}
	return nil
}

// Count returns how many faults of the given kind were delivered.
func (inj *Injector) Count(k Kind) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.counts[k]
}

// Plan is a fault schedule.
type Plan struct {
	// Rules are the faults to arm.
	Rules []Rule
}

// Target is anything whose replicas the plan can fail and heal —
// storage.Array satisfies it. Fail and Heal report whether the
// transition actually happened (e.g. Fail refuses the last survivor).
type Target interface {
	Fail(replica int) bool
	Heal(replica int) bool
}

// Arm builds the plan's injector against a kernel clock and schedules
// its replica events against the supplied targets (each ReplicaFail/
// ReplicaHeal rule applies to every target). The returned injector
// still has to be installed with Runtime.SetFaultInjector; replica
// events run regardless.
func (p *Plan) Arm(k *kernel.Kernel, arrays ...Target) *Injector {
	inj := &Injector{clock: k.Now, counts: make(map[Kind]int), lastSeen: make(map[string]float64)}
	for _, r := range p.Rules {
		switch r.Kind {
		case ReplicaFail, ReplicaHeal:
			rule := r
			for _, arr := range arrays {
				arr := arr
				k.At(rule.At, func() {
					var done bool
					if rule.Kind == ReplicaFail {
						done = arr.Fail(rule.Replica)
					} else {
						done = arr.Heal(rule.Replica)
					}
					if done {
						inj.mu.Lock()
						inj.counts[rule.Kind]++
						inj.mu.Unlock()
					}
				})
			}
		default:
			inj.rules = append(inj.rules, r)
		}
	}
	return inj
}

// StandardChaos is the canonical chaos schedule the bench's -chaos flag
// runs against the Fig. 2 system: a burst of evaluation traps early in
// the calm phase (tripping the breaker), a NaN window on the guarded
// feature, a retrain-backend outage right as the workload shifts, and a
// replica lost and healed late in the run.
func StandardChaos() *Plan {
	return &Plan{
		Rules: []Rule{
			{Kind: EvalTrap, Guardrail: "low-false-submit",
				From: 5 * kernel.Second, Until: 9 * kernel.Second},
			{Kind: LoadNaN, Key: "false_submit_rate",
				From: 10 * kernel.Second, Until: 12 * kernel.Second},
			{Kind: ActionFail, Key: "RETRAIN",
				From: 20 * kernel.Second, Until: 23 * kernel.Second},
			{Kind: ReplicaFail, Replica: 1, At: 35 * kernel.Second},
			{Kind: ReplicaHeal, Replica: 1, At: 45 * kernel.Second},
		},
	}
}
