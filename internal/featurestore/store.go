// Package featurestore implements the paper's lightweight global feature
// store (§4.3): a shared key/value surface accessed via SAVE(key, value)
// and LOAD(key) through which guardrail monitors, learned policies, and
// kernel subsystems exchange metrics without ad-hoc kernel data
// structures.
//
// Keys are interned to dense integer IDs so that compiled monitors can
// address cells with a single bounds-checked array access — the same
// trick eBPF array maps use. The read and write paths on interned IDs
// are lock-free (single atomic load/store); interning and watcher
// registration take a mutex and are expected at load time, not on the
// hot path.
package featurestore

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"guardrails/internal/telemetry"
)

// ID is a dense handle for an interned key.
type ID int32

// NoID is returned by Lookup for unknown keys.
const NoID ID = -1

// WatchFunc observes writes to a cell. Watchers run synchronously on the
// writer's goroutine; they must be fast and must not write back to the
// same key (which would recurse).
type WatchFunc func(name string, value float64)

// cell is one key's slot. name is set before Intern publishes the cell
// and never changes, so a watched SaveID hands its watchers the key
// without taking mu.
type cell struct {
	bits atomic.Uint64 // float64 bits
	name string
}

// Store is a concurrent feature store. The zero value is not usable; use
// New.
type Store struct {
	mu       sync.Mutex
	ids      map[string]ID
	cells    atomic.Pointer[[]*cell] // copy-on-write slice, grown under mu
	watchers atomic.Pointer[map[ID][]WatchFunc]
	tsink    atomic.Pointer[telemetry.Sink]

	// watchRegs names each watcher by registration number, parallel to
	// the watchers lists, so a cancel finds its own entry. Under mu;
	// writers never read it, and it sits after the fields they do read.
	watchRegs map[ID][]uint64
	watchSeq  uint64
}

// New returns an empty feature store.
func New() *Store {
	s := &Store{
		ids:       make(map[string]ID),
		watchRegs: make(map[ID][]uint64),
	}
	empty := make([]*cell, 0)
	s.cells.Store(&empty)
	w := make(map[ID][]WatchFunc)
	s.watchers.Store(&w)
	return s
}

// SetTelemetry attaches (or with nil, detaches) a telemetry sink that
// counts cell reads and writes — the feature-store traffic guardrail
// monitors generate. Safe to call concurrently with readers. With a
// sink attached, every Save and Load counts into it, so they belong to
// the goroutine that owns the sink.
func (s *Store) SetTelemetry(t *telemetry.Sink) { s.tsink.Store(t) }

// Intern returns the ID for name, creating the cell if needed.
//
// Growth ordering contract: the grown cells slice is published (with
// the new cell already in place) via cells.Store BEFORE Intern returns
// the new ID, and mu serializes every path that can hand out an ID
// (Intern, Lookup). A reader can therefore only hold an ID whose cell
// is reachable through the current (or a newer) published slice, and a
// lock-free LoadID/SaveID during concurrent registration either sees
// the pre-growth slice (for old IDs — the *cell pointers are shared
// between generations, so values are never lost) or the grown one;
// it can never observe an ID beyond the slice it loaded.
func (s *Store) Intern(name string) ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[name]; ok {
		return id
	}
	old := *s.cells.Load()
	id := ID(len(old))
	grown := make([]*cell, len(old)+1)
	copy(grown, old)
	grown[len(old)] = &cell{name: name}
	// Publish the cell before the name→ID mapping becomes visible: a
	// concurrent Lookup serializes on mu, but the store's own Save/Load
	// fast paths trust that any ID they were handed has a cell.
	s.cells.Store(&grown)
	s.ids[name] = id
	return id
}

// Lookup returns the ID for name without creating it.
func (s *Store) Lookup(name string) (ID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.ids[name]
	if !ok {
		return NoID, false
	}
	return id, true
}

// Len returns the number of interned keys.
func (s *Store) Len() int { return len(*s.cells.Load()) }

func (s *Store) cellAt(id ID) *cell {
	cells := *s.cells.Load()
	if id < 0 || int(id) >= len(cells) {
		return nil
	}
	return cells[id]
}

// Save stores value under name, interning it if necessary. This is the
// paper's SAVE(key, value).
func (s *Store) Save(name string, value float64) {
	s.SaveID(s.Intern(name), value)
}

// Load returns the value stored under name, or 0 if the key is unknown
// or never written. This is the paper's LOAD(key).
func (s *Store) Load(name string) float64 {
	id, ok := s.Lookup(name)
	if !ok {
		return 0
	}
	return s.LoadID(id)
}

// SaveID stores value in the cell for id. Out-of-range IDs are ignored.
// It takes no lock: the watchers get the key's name from its cell.
//
//guardrails:hotpath
func (s *Store) SaveID(id ID, value float64) {
	c := s.cellAt(id)
	if c == nil {
		return
	}
	s.tsink.Load().StoreSave()
	c.bits.Store(math.Float64bits(value))
	ws := *s.watchers.Load()
	if fns, ok := ws[id]; ok {
		for _, fn := range fns {
			fn(c.name, value)
		}
	}
}

// PublishID stores value in the cell for id without firing watchers or
// counting feature-store telemetry — the epoch aggregator's broadcast
// path. Watchers run synchronously on the writer's goroutine, which for
// a barrier-time broadcast would be the pool driver, not the shard that
// owns the monitors; and an epoch broadcast is plane maintenance, not
// guardrail traffic, so it must not inflate the SAVE counters the
// monitors' own writes are audited against.
func (s *Store) PublishID(id ID, value float64) {
	c := s.cellAt(id)
	if c == nil {
		return
	}
	c.bits.Store(math.Float64bits(value))
}

// LoadID returns the value in the cell for id, or 0 if out of range.
//
//guardrails:hotpath
func (s *Store) LoadID(id ID) float64 {
	c := s.cellAt(id)
	if c == nil {
		return 0
	}
	s.tsink.Load().StoreLoad()
	return math.Float64frombits(c.bits.Load())
}

// Watch registers fn to run on every write to name and returns its
// cancel function. The key is interned if needed. Cancelling removes
// exactly this registration (the others on the key keep their order),
// drops the closure so whatever it captured can be collected, and may
// be repeated; a write already past its watcher-table load may still
// call fn once more.
func (s *Store) Watch(name string, fn WatchFunc) (cancel func()) {
	id := s.Intern(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watchSeq++
	reg := s.watchSeq
	s.setWatchers(id, append(slices.Clone((*s.watchers.Load())[id]), fn))
	s.watchRegs[id] = append(s.watchRegs[id], reg)
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		i := slices.Index(s.watchRegs[id], reg)
		if i < 0 {
			return
		}
		s.setWatchers(id, slices.Delete(slices.Clone((*s.watchers.Load())[id]), i, i+1))
		s.watchRegs[id] = slices.Delete(s.watchRegs[id], i, i+1)
	}
}

// setWatchers publishes a copy of the watcher table with id's list
// replaced (an empty list removes the key, so writers skip it). The
// caller holds mu; writers load the table without it.
func (s *Store) setWatchers(id ID, fns []WatchFunc) {
	old := *s.watchers.Load()
	next := make(map[ID][]WatchFunc, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	if len(fns) == 0 {
		delete(next, id)
	} else {
		next[id] = fns
	}
	s.watchers.Store(&next)
}

// Snapshot returns a point-in-time copy of all scalar cells.
func (s *Store) Snapshot() map[string]float64 {
	cells := *s.cells.Load()
	out := make(map[string]float64, len(cells))
	for i, c := range cells {
		out[c.name] = s.LoadID(ID(i))
	}
	return out
}

// Dump renders the scalar contents for debugging, one "key=value" per
// line in key order.
func (s *Store) Dump() string {
	snap := s.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s=%g\n", k, snap[k])
	}
	return out
}
