package memtier

import (
	"math"
	"testing"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
	"guardrails/internal/trace"
)

func newMgr(t *testing.T, capacity int, p Policy) (*Manager, *featurestore.Store, *kernel.Kernel) {
	t.Helper()
	k := kernel.New()
	st := featurestore.New()
	m, err := NewManager(k, st, capacity, p)
	if err != nil {
		t.Fatal(err)
	}
	return m, st, k
}

func TestManagerValidation(t *testing.T) {
	k := kernel.New()
	st := featurestore.New()
	if _, err := NewManager(k, st, 0, &FrequencyPolicy{}); err == nil {
		t.Error("zero capacity should error")
	}
	if _, err := NewManager(k, st, 4, nil); err == nil {
		t.Error("nil policy should error")
	}
}

func TestFrequencyPolicyPromotesHotPages(t *testing.T) {
	m, _, _ := newMgr(t, 8, &FrequencyPolicy{HotThreshold: 4})
	// Touch page 1 five times: it crosses the hot threshold.
	for i := 0; i < 5; i++ {
		m.Access(1)
	}
	if m.pages[1].Tier != TierDRAM {
		t.Error("hot page not promoted")
	}
	// Cold page stays in NVM.
	m.Access(2)
	if m.pages[2].Tier != TierNVM {
		t.Error("cold page promoted")
	}
	used, capacity := m.dramCount, m.dramCapacity
	if used != 1 || capacity != 8 {
		t.Errorf("usage = %d/%d", used, capacity)
	}
}

func TestDRAMCapacityDemotesColdest(t *testing.T) {
	m, _, _ := newMgr(t, 2, &FrequencyPolicy{HotThreshold: 1})
	// Three pages all hot (hot enough to clear the full-pressure
	// threshold): capacity 2 forces a demotion.
	for page := uint64(1); page <= 3; page++ {
		for i := 0; i < 5; i++ {
			m.Access(page)
		}
	}
	used := m.dramCount
	if used != 2 {
		t.Errorf("DRAM used = %d, want 2", used)
	}
	// Page 1 is the coldest (accessed earliest); it was demoted.
	if m.pages[1].Tier != TierNVM {
		t.Error("coldest page not demoted")
	}
}

func TestTierLatencies(t *testing.T) {
	m, _, _ := newMgr(t, 4, &FrequencyPolicy{HotThreshold: 2})
	lat := m.Access(1) // cold, NVM
	if lat != LatencyNVM {
		t.Errorf("NVM latency = %v", lat)
	}
	m.Access(1)
	lat = m.Access(1) // now hot, DRAM
	if lat != LatencyDRAM {
		t.Errorf("DRAM latency = %v", lat)
	}
}

// illegalPolicy always returns an out-of-range tier.
type illegalPolicy struct{ tier int }

func (p *illegalPolicy) Name() string                      { return "illegal" }
func (p *illegalPolicy) Place(PageStats, float64) Decision { return Decision{Tier: p.tier} }

func TestIllegalDecisionsRecoveredAndCounted(t *testing.T) {
	m, st, k := newMgr(t, 4, &illegalPolicy{tier: 7})
	var hookTiers []float64
	k.Attach(HookPlacement, func(_ *kernel.Kernel, _ string, args []float64) {
		hookTiers = append(hookTiers, args[0])
	})
	lat := m.Access(1)
	if lat < FaultPenalty {
		t.Errorf("illegal decision latency = %v, want >= fault penalty", lat)
	}
	if m.Stats().IllegalDecisions != 1 {
		t.Errorf("illegal = %d", m.Stats().IllegalDecisions)
	}
	// Page keeps its current (NVM) placement.
	if m.pages[1].Tier != TierNVM {
		t.Error("illegal decision moved the page")
	}
	if st.Load(KeyIllegalRate) != 1.0 {
		t.Errorf("illegal rate = %v", st.Load(KeyIllegalRate))
	}
	if len(hookTiers) != 1 || hookTiers[0] != 7 {
		t.Errorf("hook args = %v", hookTiers)
	}
	// Negative tiers too.
	m.policy = &illegalPolicy{tier: -1}
	m.Access(2)
	if m.Stats().IllegalDecisions != 2 {
		t.Error("negative tier not flagged")
	}
}

func TestIllegalRateWindowDecays(t *testing.T) {
	m, st, _ := newMgr(t, 4, &illegalPolicy{tier: 9})
	m.Access(1)
	if st.Load(KeyIllegalRate) != 1 {
		t.Fatal("rate should be 1 after one illegal decision")
	}
	m.policy = &FrequencyPolicy{}
	for i := uint64(0); i < 255; i++ {
		m.Access(i + 10)
	}
	rate := st.Load(KeyIllegalRate)
	if math.Abs(rate-1.0/256.0) > 1e-9 {
		t.Errorf("rate = %v, want 1/256", rate)
	}
}

func TestLearnedPolicyImitatesTeacher(t *testing.T) {
	teacher := &FrequencyPolicy{HotThreshold: 4}
	rng := trace.NewRand(31)
	var pages []PageStats
	var pressures []float64
	var labels []int
	for i := 0; i < 3000; i++ {
		s := PageStats{
			Accesses:   uint64(rng.Intn(32)) + 1,
			LastAccess: uint64(i),
		}
		pr := rng.Float64() * 0.5
		pages = append(pages, s)
		pressures = append(pressures, pr)
		labels = append(labels, teacher.Place(s, pr).Tier)
	}
	lp := NewLearnedPolicy(32)
	if _, err := lp.Train(pages, pressures, labels); err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range pages {
		d := lp.Place(pages[i], pressures[i])
		if d.Tier == labels[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(pages)); frac < 0.85 {
		t.Errorf("imitation accuracy = %v", frac)
	}
}

func TestLearnedPolicyEmitsIllegalOutOfDistribution(t *testing.T) {
	// Train only on modest access counts and low pressure, then feed
	// extreme inputs: the unclamped regression head must eventually
	// leave the legal range.
	teacher := &FrequencyPolicy{HotThreshold: 4}
	rng := trace.NewRand(33)
	var pages []PageStats
	var pressures []float64
	var labels []int
	for i := 0; i < 2000; i++ {
		s := PageStats{Accesses: uint64(rng.Intn(8)) + 1, LastAccess: uint64(i)}
		pages = append(pages, s)
		pressures = append(pressures, rng.Float64()*0.2)
		labels = append(labels, teacher.Place(s, 0.1).Tier)
	}
	lp := NewLearnedPolicy(34)
	if _, err := lp.Train(pages, pressures, labels); err != nil {
		t.Fatal(err)
	}
	illegal := 0
	for i := 0; i < 500; i++ {
		s := PageStats{Accesses: uint64(1 << (20 + i%10)), LastAccess: 1}
		d := lp.Place(s, 5.0+float64(i)) // absurd pressure: far OOD
		if d.Tier < 0 || d.Tier >= NumTiers {
			illegal++
		}
	}
	if illegal == 0 {
		t.Error("no illegal outputs under extreme OOD inputs (P3 failure mode absent)")
	}
}

func TestLearnedTrainValidation(t *testing.T) {
	lp := NewLearnedPolicy(1)
	if _, err := lp.Train(nil, nil, nil); err == nil {
		t.Error("empty training set should error")
	}
	if _, err := lp.Train([]PageStats{{}}, []float64{0.1}, nil); err == nil {
		t.Error("mismatched sizes should error")
	}
}

func TestPolicyNames(t *testing.T) {
	if (&FrequencyPolicy{}).Name() != "frequency" || NewLearnedPolicy(1).Name() != "learned" {
		t.Error("policy names wrong")
	}
}
