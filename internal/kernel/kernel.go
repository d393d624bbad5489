// Package kernel provides the simulated operating-system kernel the
// guardrail monitors run inside: a deterministic discrete-event clock,
// kprobe-style hook points (the paper's FUNCTION trigger sites) and
// periodic timers (the TIMER trigger).
//
// Real deployments would compile guardrails to eBPF programs attached to
// kernel functions; here subsystem simulators call Fire at their
// instrumentation points and monitors attach to those sites. Determinism
// is a feature: every experiment in the repository replays exactly given
// the same seeds.
//
// Each event loop is single-threaded (one goroutine steps a kernel at a
// time, as a real kernel hook path runs under its own synchronization),
// but the bookkeeping — scheduling, hook attach/detach, the clock — is
// safe to call from other goroutines: monitor runtimes schedule retry
// and cool-down events from action paths, and fault-injection stress
// tests load and unload monitors while the clock advances.
//
// For multi-core execution a Pool runs N Kernel shards — each with its
// own clock, event heap, and hook table — concurrently
// between deterministic barrier points (see pool.go), the simulated
// analogue of per-CPU eBPF program instances and per-CPU maps.
package kernel

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"guardrails/internal/telemetry"
)

// Time is simulated time in nanoseconds since boot.
type Time int64

// Common durations in simulated nanoseconds.
const (
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time with adaptive units.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// HookFn observes a hook-point firing. args are site-specific positional
// values (e.g. latency, size); hooks must not retain the slice.
type HookFn func(k *Kernel, site string, args []float64)

// PanicHandler observes a panic recovered from a hook callback; see
// SetHookPanicHandler.
type PanicHandler func(site string, recovered any)

type hookSlot struct {
	id uint64
	fn HookFn
}

// hookSite is one hook point's dispatch state. The slot list is
// copy-on-write behind an atomic pointer so Fire — the per-event hot
// path every shard runs concurrently — reads it with a single atomic
// load: no lock, no allocation, no cache line shared with other sites'
// fire counters.
type hookSite struct {
	slots atomic.Pointer[[]hookSlot]
	fires atomic.Uint64
	// telem is the site's resolved telemetry handle; see dispatchHist.
	telem atomic.Pointer[siteTelemetry]
}

// siteTelemetry pairs a sink with that sink's dispatch-latency
// histogram for one site. Immutable once published.
type siteTelemetry struct {
	sink *telemetry.Sink
	hist *telemetry.Hist
}

// dispatchHist returns sink's dispatch-latency histogram for the site,
// looking it up by name only the first time a sink is seen: a handle
// resolved against another sink (SetTelemetry swapped it) is replaced,
// so an observation never lands in a sink that has been detached.
func (hs *hookSite) dispatchHist(sink *telemetry.Sink, site string) *telemetry.Hist {
	t := hs.telem.Load()
	if t == nil || t.sink != sink {
		t = &siteTelemetry{sink: sink, hist: sink.HookHist(site)}
		hs.telem.Store(t)
	}
	return t.hist
}

// dispatchSamplePeriod is how many fires of a site share one wall-clock
// measurement: the time.Now pair costs about as much as a bare fire, and
// hook_dispatch_ns is a distribution of a host-dependent quantity, so
// it is sampled; every count stays exact. Power of two.
const dispatchSamplePeriod = 64

// Kernel is a deterministic discrete-event simulated kernel — in a
// sharded Pool, one shard. One goroutine at a time may step the event
// loop; scheduling, hook registration, and clock reads are safe from
// any goroutine.
type Kernel struct {
	now atomic.Int64 // Time

	qmu   sync.Mutex // guards seq + queue
	seq   uint64
	queue eventQueue

	// sites is the copy-on-write hook table: the map value is replaced
	// wholesale (under hmu) when a new site appears, and the *hookSite
	// entries themselves are stable, so Fire dispatches entirely from
	// atomic loads. hmu serializes mutations only.
	hmu        sync.Mutex
	sites      atomic.Pointer[map[string]*hookSite]
	hookID     uint64
	panicGuard atomic.Value // PanicHandler
	hookPanics atomic.Uint64

	tsink atomic.Pointer[telemetry.Sink]

	// generation is the active deployment generation number, advanced by
	// the rollout control plane on fleet-wide promotion. Generation 1 is
	// the boot deployment.
	generation atomic.Uint64
}

// New returns a kernel at time zero, on deployment generation 1.
func New() *Kernel {
	k := &Kernel{}
	empty := make(map[string]*hookSite)
	k.sites.Store(&empty)
	k.generation.Store(1)
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return Time(k.now.Load()) }

// Generation returns the active deployment generation (1 at boot).
func (k *Kernel) Generation() uint64 { return k.generation.Load() }

// SetGeneration records a fleet-wide promotion to generation g. The
// rollout control plane calls this when a canary goes fleet-wide;
// rollback never rewinds it (the last-good generation simply stays
// current). Safe from any goroutine.
func (k *Kernel) SetGeneration(g uint64) { k.generation.Store(g) }

// At schedules fn to run at absolute time t. Times in the past run at
// the current time (immediately on the next Step).
func (k *Kernel) At(t Time, fn func()) {
	if now := k.Now(); t < now {
		t = now
	}
	k.qmu.Lock()
	k.seq++
	heap.Push(&k.queue, &event{at: t, seq: k.seq, fn: fn})
	k.qmu.Unlock()
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.Now()+d, fn) }

// Timer is a periodic schedule created by Every. Safe to stop from any
// goroutine.
type Timer struct {
	stopped atomic.Bool
}

// Stop cancels future firings. Safe to call multiple times.
func (t *Timer) Stop() { t.stopped.Store(true) }

// Every schedules fn at start, start+interval, ... until stop (exclusive;
// stop <= 0 means forever). It mirrors the paper's
// TIMER(start_time, interval, stop_time) trigger.
func (k *Kernel) Every(start, interval, stop Time, fn func(now Time)) *Timer {
	if interval <= 0 {
		panic("kernel: timer interval must be positive")
	}
	t := &Timer{}
	var tick func()
	next := start
	tick = func() {
		if t.stopped.Load() || (stop > 0 && k.Now() >= stop) {
			return
		}
		fn(k.Now())
		next += interval
		if stop > 0 && next >= stop {
			return
		}
		k.At(next, tick)
	}
	k.At(start, tick)
	return t
}

// pop removes and returns the next event, or nil when the queue is
// empty, advancing the clock to the event's time.
func (k *Kernel) pop() *event {
	k.qmu.Lock()
	defer k.qmu.Unlock()
	if k.queue.Len() == 0 {
		return nil
	}
	e := heap.Pop(&k.queue).(*event)
	k.now.Store(int64(e.at))
	return e
}

// Step executes the next pending event, advancing the clock. It returns
// false when the queue is empty.
func (k *Kernel) Step() bool {
	e := k.pop()
	if e == nil {
		return false
	}
	e.fn()
	return true
}

// nextAt returns the time of the earliest pending event, or ok=false.
func (k *Kernel) nextAt() (Time, bool) {
	k.qmu.Lock()
	defer k.qmu.Unlock()
	if k.queue.Len() == 0 {
		return 0, false
	}
	return k.queue[0].at, true
}

// RunUntil executes events until the queue is empty or the next event is
// at or after deadline; the clock finishes at min(deadline, last event).
// It returns the number of events executed.
func (k *Kernel) RunUntil(deadline Time) int {
	n := 0
	for {
		at, ok := k.nextAt()
		if !ok || at >= deadline {
			break
		}
		k.Step()
		n++
	}
	if k.Now() < deadline {
		k.now.Store(int64(deadline))
	}
	return n
}

// Run executes events until the queue is empty and returns the count.
// Callers using unbounded timers must use RunUntil instead.
func (k *Kernel) Run() int {
	n := 0
	for k.Step() {
		n++
	}
	return n
}

// siteFor returns the dispatch state for site, creating it (under hmu,
// with a copy-on-write map swap) on first use. The returned *hookSite
// is stable for the kernel's lifetime.
func (k *Kernel) siteFor(site string) *hookSite {
	if hs := (*k.sites.Load())[site]; hs != nil {
		return hs
	}
	k.hmu.Lock()
	defer k.hmu.Unlock()
	old := *k.sites.Load()
	if hs := old[site]; hs != nil {
		return hs
	}
	hs := &hookSite{}
	empty := make([]hookSlot, 0)
	hs.slots.Store(&empty)
	next := make(map[string]*hookSite, len(old)+1)
	for s, v := range old {
		next[s] = v
	}
	next[site] = hs
	k.sites.Store(&next)
	return hs
}

// Attach registers fn on a hook site and returns a detach function.
// Sites are created on first use; attaching before any Fire is valid.
func (k *Kernel) Attach(site string, fn HookFn) (detach func()) {
	hs := k.siteFor(site)
	k.hmu.Lock()
	k.hookID++
	id := k.hookID
	old := *hs.slots.Load()
	grown := make([]hookSlot, len(old)+1)
	copy(grown, old)
	grown[len(old)] = hookSlot{id: id, fn: fn}
	hs.slots.Store(&grown)
	k.hmu.Unlock()
	return func() {
		k.hmu.Lock()
		defer k.hmu.Unlock()
		slots := *hs.slots.Load()
		for i, s := range slots {
			if s.id == id {
				next := make([]hookSlot, 0, len(slots)-1)
				next = append(next, slots[:i]...)
				next = append(next, slots[i+1:]...)
				hs.slots.Store(&next)
				return
			}
		}
	}
}

// SetHookPanicHandler installs h as the recovery point for panics raised
// by hook callbacks: with a handler set, a panicking monitor or
// instrumentation hook is contained (recovered, counted, reported to h)
// instead of tearing down the whole simulated kernel. With no handler
// (the default) panics propagate as before.
func (k *Kernel) SetHookPanicHandler(h PanicHandler) {
	k.panicGuard.Store(h)
}

// HookPanics returns how many hook panics the panic handler absorbed.
func (k *Kernel) HookPanics() uint64 { return k.hookPanics.Load() }

// SetTelemetry attaches (or with nil, detaches) a telemetry sink.
// Every subsequent Fire records a hook-fire event, and one fire in
// dispatchSamplePeriod per site — chosen by the site's own fire count,
// so the choice replays exactly — charges the wall-clock cost of
// dispatching the site's callbacks, the real overhead the attached
// monitors add, to the site's latency histogram. Safe to call while the
// kernel runs.
func (k *Kernel) SetTelemetry(s *telemetry.Sink) { k.tsink.Store(s) }

// Telemetry returns the attached sink, or nil.
func (k *Kernel) Telemetry() *telemetry.Sink { return k.tsink.Load() }

// Fire invokes all hooks attached to site, in attach order. Subsystem
// simulators call this at their instrumentation points — the analogue of
// a kprobe firing. The dispatch path is lock-free: the site entry and
// its slot list are read with two atomic loads, so concurrent shards
// firing different (or the same) sites never serialize on a mutex.
//
//guardrails:hotpath
func (k *Kernel) Fire(site string, args ...float64) {
	hs := (*k.sites.Load())[site]
	if hs == nil {
		hs = k.siteFor(site)
	}
	n := hs.fires.Add(1)
	slots := *hs.slots.Load()
	var guard PanicHandler
	if h, ok := k.panicGuard.Load().(PanicHandler); ok && h != nil {
		guard = h
	}
	sink := k.tsink.Load()
	// The site's 1st, 65th, 129th, ... fire is timed.
	timed := sink != nil && (n-1)%dispatchSamplePeriod == 0
	var wallStart time.Time
	if sink != nil {
		arg := 0.0
		if len(args) > 0 {
			arg = args[0]
		}
		sink.HookFire(int64(k.Now()), site, arg)
		if timed {
			wallStart = time.Now() //guardrails:coldpath sampled 1-in-64
		}
	}
	for _, s := range slots {
		if guard == nil {
			s.fn(k, site, args)
			continue
		}
		k.fireGuarded(s.fn, site, args, guard)
	}
	if timed {
		hs.dispatchHist(sink, site).Observe(float64(time.Since(wallStart)))
	}
}

// fireGuarded runs one hook under the panic guard.
func (k *Kernel) fireGuarded(fn HookFn, site string, args []float64, guard PanicHandler) {
	defer func() {
		if r := recover(); r != nil {
			k.hookPanics.Add(1)
			guard(site, r)
		}
	}()
	fn(k, site, args)
}

// FireCount returns how many times site has fired.
func (k *Kernel) FireCount(site string) uint64 {
	hs := (*k.sites.Load())[site]
	if hs == nil {
		return 0
	}
	return hs.fires.Load()
}
