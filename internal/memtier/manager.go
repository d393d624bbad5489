package memtier

import (
	"fmt"

	"guardrails/internal/featurestore"
	"guardrails/internal/kernel"
)

// Feature-store keys and hook sites the manager publishes.
const (
	// KeyIllegalRate is the windowed fraction of placement decisions
	// outside the legal tier range — the P3 signal.
	KeyIllegalRate = "mem_illegal_rate"
	// KeyFaultLatencyMA is the moving average page access latency in ns.
	KeyFaultLatencyMA = "mem_access_latency_ns"
	// HookPlacement fires on every placement decision with the decided
	// tier as its argument (possibly illegal).
	HookPlacement = "mem_place"
)

// ManagerStats aggregates manager activity.
type ManagerStats struct {
	Accesses         uint64
	IllegalDecisions uint64
	TotalLatency     kernel.Time
}

// Manager is the tiered-memory manager: it tracks page residency,
// consults the placement policy on every access, validates and applies
// its decisions, and publishes monitoring signals. Illegal decisions
// (tier out of range) are recovered by the fallback rule (keep current
// placement) at FaultPenalty cost.
type Manager struct {
	k     *kernel.Kernel
	store *featurestore.Store

	dramCapacity int
	pages        map[uint64]*PageStats
	dramCount    int
	policy       Policy
	seq          uint64

	illegalWindow []bool
	illegalHead   int
	illegalFill   int

	illegalID featurestore.ID
	latencyID featurestore.ID

	stats ManagerStats
}

// NewManager returns a manager with the given DRAM page capacity (NVM is
// unbounded) and placement policy.
func NewManager(k *kernel.Kernel, store *featurestore.Store, dramCapacity int, policy Policy) (*Manager, error) {
	if dramCapacity <= 0 {
		return nil, fmt.Errorf("memtier: DRAM capacity must be positive")
	}
	if policy == nil {
		return nil, fmt.Errorf("memtier: nil policy")
	}
	return &Manager{
		k: k, store: store,
		dramCapacity:  dramCapacity,
		pages:         make(map[uint64]*PageStats),
		policy:        policy,
		illegalWindow: make([]bool, 256),
		illegalID:     store.Intern(KeyIllegalRate),
		latencyID:     store.Intern(KeyFaultLatencyMA),
	}, nil
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() ManagerStats { return m.stats }

func (m *Manager) pressure() float64 {
	return float64(m.dramCount) / float64(m.dramCapacity)
}

func (m *Manager) recordIllegal(illegal bool) {
	m.illegalWindow[m.illegalHead] = illegal
	m.illegalHead = (m.illegalHead + 1) % len(m.illegalWindow)
	if m.illegalFill < len(m.illegalWindow) {
		m.illegalFill++
	}
	count := 0
	for i := 0; i < m.illegalFill; i++ {
		if m.illegalWindow[i] {
			count++
		}
	}
	m.store.SaveID(m.illegalID, float64(count)/float64(m.illegalFill))
}

// Access touches a page: consults the policy, validates its decision,
// migrates the page if needed, and returns the access latency.
func (m *Manager) Access(page uint64) kernel.Time {
	m.seq++
	m.stats.Accesses++
	s, ok := m.pages[page]
	if !ok {
		// Cold page: starts in NVM.
		s = &PageStats{Tier: TierNVM}
		m.pages[page] = s
	}
	s.Accesses++
	s.LastAccess = m.seq

	dec := m.policy.Place(*s, m.pressure())
	m.k.Fire(HookPlacement, float64(dec.Tier))

	var lat kernel.Time
	illegal := dec.Tier < 0 || dec.Tier >= NumTiers
	m.recordIllegal(illegal)
	if illegal {
		// Fallback rule: keep current placement, pay the recovery cost.
		m.stats.IllegalDecisions++
		lat = FaultPenalty + m.tierLatency(s.Tier)
	} else {
		m.applyPlacement(s, dec.Tier)
		lat = m.tierLatency(s.Tier)
	}

	m.stats.TotalLatency += lat
	if s.Tier == TierDRAM {
	} else {
	}
	// EWMA-style published latency (ns).
	const alpha = 0.02
	prev := m.store.LoadID(m.latencyID)
	if prev == 0 {
		prev = float64(lat)
	}
	m.store.SaveID(m.latencyID, prev+alpha*(float64(lat)-prev))
	return lat
}

func (m *Manager) applyPlacement(s *PageStats, want int) {
	if want == s.Tier {
		return
	}
	if want == TierDRAM {
		if m.dramCount >= m.dramCapacity {
			// DRAM full: demote the coldest DRAM page first.
			if victim := m.coldestDRAM(); victim != nil {
				victim.Tier = TierNVM
				m.dramCount--
			} else {
				return // nothing to demote; keep page where it is
			}
		}
		s.Tier = TierDRAM
		m.dramCount++
		return
	}
	// Demotion to NVM.
	s.Tier = TierNVM
	m.dramCount--
}

func (m *Manager) coldestDRAM() *PageStats {
	var coldest *PageStats
	for _, s := range m.pages {
		if s.Tier != TierDRAM {
			continue
		}
		if coldest == nil || s.LastAccess < coldest.LastAccess {
			coldest = s
		}
	}
	return coldest
}

func (m *Manager) tierLatency(tier int) kernel.Time {
	if tier == TierDRAM {
		return LatencyDRAM
	}
	return LatencyNVM
}
