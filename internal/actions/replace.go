package actions

import (
	"fmt"
	"sync"

	"guardrails/internal/kernel"
)

// Swap records one policy replacement for audit.
type Swap struct {
	Time kernel.Time
	From string
	To   string
}

// slot is a policy binding point: a subsystem decision it dispatches
// through whichever policy is current.
type slot struct {
	current  string
	policies map[string]any
	history  []Swap
}

// Registry implements REPLACE (A2): named policy slots whose current
// implementation can be atomically swapped for a registered fallback.
// Subsystems read their slot's current policy on each decision; most OS
// fallback policies need little or no state, so they can take over
// immediately (§3.2). Safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	slots map[string]*slot
}

// NewRegistry returns an empty policy registry.
func NewRegistry() *Registry {
	return &Registry{slots: make(map[string]*slot)}
}

// DefineSlot creates a binding point with its candidate policies and the
// initially active one. Policy values are opaque to the registry
// (typically a policy interface of the owning subsystem).
func (r *Registry) DefineSlot(name string, policies map[string]any, initial string) error {
	if len(policies) == 0 {
		return fmt.Errorf("actions: slot %q has no policies", name)
	}
	if _, ok := policies[initial]; !ok {
		return fmt.Errorf("actions: initial policy %q not among slot %q policies", initial, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.slots[name]; dup {
		return fmt.Errorf("actions: slot %q already defined", name)
	}
	cp := make(map[string]any, len(policies))
	for k, v := range policies {
		cp[k] = v
	}
	r.slots[name] = &slot{current: initial, policies: cp}
	return nil
}

// Current returns the active policy name and value for a slot.
func (r *Registry) Current(slotName string) (string, any, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.slots[slotName]
	if !ok {
		return "", nil, fmt.Errorf("actions: no slot %q", slotName)
	}
	return s.current, s.policies[s.current], nil
}

// Replace swaps every slot currently running policy old to policy new
// (where new is registered for that slot), returning the number of slots
// swapped. Zero swaps is not an error: REPLACE is idempotent, matching
// guardrails that keep firing while a property stays violated.
func (r *Registry) Replace(old, new string, now kernel.Time) (int, error) {
	if old == new {
		return 0, fmt.Errorf("actions: REPLACE with identical policies %q", old)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	swapped := 0
	for _, s := range r.slots {
		if s.current != old {
			continue
		}
		if _, ok := s.policies[new]; !ok {
			continue
		}
		s.history = append(s.history, Swap{Time: now, From: old, To: new})
		s.current = new
		swapped++
	}
	return swapped, nil
}

// History returns the swap audit trail for a slot.
func (r *Registry) History(slotName string) []Swap {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.slots[slotName]
	if !ok {
		return nil
	}
	return append([]Swap(nil), s.history...)
}
