// Package cache simulates cache replacement with pluggable eviction
// policies: LRU, random, and a learned evictor that scores
// candidates with a small neural network. It backs the decision-quality
// property experiments (P4 in the paper's Figure 1: "decisions of the
// model must yield better hit rates than randomly selecting elements"),
// including the shadow-baseline comparison guardrails use to measure
// regret at run time.
package cache

import (
	"container/list"
	"fmt"
	"math/rand"

	"guardrails/internal/trace"
)

// Policy decides evictions. Implementations receive access notifications
// to maintain their metadata.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// OnInsert notes that key entered the cache.
	OnInsert(key uint64)
	// OnHit notes that key was accessed while cached.
	OnHit(key uint64)
	// OnEvict notes that key left the cache.
	OnEvict(key uint64)
	// Victim picks the key to evict; it is called only when the cache
	// is full and must return a currently cached key.
	Victim() uint64
}

// Cache is a fixed-capacity key cache driven by a Policy.
type Cache struct {
	capacity int
	entries  map[uint64]bool
	policy   Policy
}

// New returns a cache of the given capacity using policy.
func New(capacity int, policy Policy) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive")
	}
	if policy == nil {
		return nil, fmt.Errorf("cache: nil policy")
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[uint64]bool, capacity),
		policy:   policy,
	}, nil
}

// SwapPolicy replaces the eviction policy in place (the REPLACE action
// path): resident keys are re-registered with the new policy via
// OnInsert so it can immediately pick victims.
func (c *Cache) SwapPolicy(p Policy) error {
	if p == nil {
		return fmt.Errorf("cache: nil policy")
	}
	for key := range c.entries {
		p.OnInsert(key)
	}
	c.policy = p
	return nil
}

// Len returns the number of cached keys.
func (c *Cache) Len() int { return len(c.entries) }

// Access performs one access, returning true on a hit. Misses insert
// the key, evicting a victim when full.
func (c *Cache) Access(key uint64) bool {
	if c.entries[key] {
		c.policy.OnHit(key)
		return true
	}
	if len(c.entries) >= c.capacity {
		victim := c.policy.Victim()
		if !c.entries[victim] {
			panic(fmt.Sprintf("cache: policy %q evicted non-resident key %d", c.policy.Name(), victim))
		}
		delete(c.entries, victim)
		c.policy.OnEvict(victim)
	}
	c.entries[key] = true
	c.policy.OnInsert(key)
	return false
}

// --- LRU ---------------------------------------------------------------

// LRU evicts the least recently used key.
type LRU struct {
	order *list.List // front = most recent
	where map[uint64]*list.Element
}

// NewLRU returns an LRU policy.
func NewLRU() *LRU {
	return &LRU{order: list.New(), where: make(map[uint64]*list.Element)}
}

// Name identifies the policy.
func (p *LRU) Name() string { return "lru" }

// OnInsert notes an insertion.
func (p *LRU) OnInsert(key uint64) { p.where[key] = p.order.PushFront(key) }

// OnHit refreshes recency.
func (p *LRU) OnHit(key uint64) { p.order.MoveToFront(p.where[key]) }

// OnEvict drops metadata.
func (p *LRU) OnEvict(key uint64) {
	if e, ok := p.where[key]; ok {
		p.order.Remove(e)
		delete(p.where, key)
	}
}

// Victim returns the least recently used key.
func (p *LRU) Victim() uint64 { return p.order.Back().Value.(uint64) }

// --- Random ------------------------------------------------------------

// Random evicts a uniformly random resident key — the paper's P4
// baseline ("better hit rates than randomly selecting elements").
type Random struct {
	rng   *rand.Rand
	keys  []uint64
	index map[uint64]int
}

// NewRandom returns a random-eviction policy.
func NewRandom(seed int64) *Random {
	return &Random{rng: trace.NewRand(seed), index: make(map[uint64]int)}
}

// Name identifies the policy.
func (p *Random) Name() string { return "random" }

// OnInsert notes an insertion.
func (p *Random) OnInsert(key uint64) {
	p.index[key] = len(p.keys)
	p.keys = append(p.keys, key)
}

// OnHit is a no-op for random eviction.
func (p *Random) OnHit(uint64) {}

// OnEvict drops metadata with swap-remove.
func (p *Random) OnEvict(key uint64) {
	i, ok := p.index[key]
	if !ok {
		return
	}
	last := len(p.keys) - 1
	p.keys[i] = p.keys[last]
	p.index[p.keys[i]] = i
	p.keys = p.keys[:last]
	delete(p.index, key)
}

// Victim returns a uniformly random resident key.
func (p *Random) Victim() uint64 { return p.keys[p.rng.Intn(len(p.keys))] }
