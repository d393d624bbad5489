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
// Each kernel has one owner at a time: the goroutine that steps its
// event loop or fires its hooks (between barriers, the goroutine running
// a Pool shard — for shard 0, the caller of Pool.RunUntil; at a barrier
// and whenever nothing runs, the caller of Pool.RunUntil). The fire path
// writes owned state — site fire counts, the argument frames, the site
// it fired last, the panic count — with plain stores, and firing one
// kernel from two goroutines at once is not supported. The bookkeeping
// is safe from any goroutine: scheduling (At, After, Every), hook
// attach/detach (published copy-on-write), the clock, and the operator
// toggles SetTelemetry and SetHookPanicHandler (one atomic store each,
// read by the next fire).
// FireCount and HookPanics read owned counters: call them on the owner —
// from an event, or a barrier callback — or after it has stopped.
//
// The event queue is a binary min-heap of value events behind one lock:
// scheduling allocates only when the heap grows, the owner takes the
// lock once per event it runs, and the clock never runs backwards — an
// event scheduled in the past, from any goroutine, runs at the current
// time.
//
// For multi-core execution a Pool runs N Kernel shards — each with its
// own clock, event heap, and hook table — concurrently
// between deterministic barrier points (see pool.go), the simulated
// analogue of per-CPU eBPF program instances and per-CPU maps.
package kernel

import (
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

// before orders events by time, then by schedule order.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventQueue is a binary min-heap of events by (at, seq). Events are
// values, so a push allocates only when the backing array grows.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest event; the queue must not be
// empty. The vacated slot is cleared so the heap keeps no closure alive.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	*q = h
	return top
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
// copy-on-write behind an atomic pointer, so Attach may run on any
// goroutine while Fire reads it with one load; name never changes after
// siteFor publishes the site, and the rest belongs to the kernel's owner
// and is plain.
type hookSite struct {
	name  string
	slots atomic.Pointer[[]hookSlot]
	fires uint64
	// telSink is the sink telHist, this site's dispatch-latency
	// histogram, was resolved against; see dispatchHist.
	telSink *telemetry.Sink
	telHist *telemetry.Hist
}

// cacheLine is the coherence granule the kernel's owned state is padded
// against: 64 bytes on amd64 and arm64.
const cacheLine = 64

// dispatchHist returns sink's dispatch-latency histogram for the site,
// looking it up by name only the first time a sink is seen: a handle
// resolved against another sink (SetTelemetry swapped it) is replaced,
// so an observation never lands in a sink that has been detached.
func (hs *hookSite) dispatchHist(sink *telemetry.Sink, site string) *telemetry.Hist {
	if hs.telSink != sink || hs.telHist == nil {
		hs.telSink, hs.telHist = sink, sink.HookHist(site)
	}
	return hs.telHist
}

// dispatchSamplePeriod is how many fires of a site share one wall-clock
// measurement: the time.Now pair costs about as much as a bare fire, and
// hook_dispatch_ns is a distribution of a host-dependent quantity, so
// it is sampled; every count stays exact. Power of two.
const dispatchSamplePeriod = 64

// Kernel is a deterministic discrete-event simulated kernel — in a
// sharded Pool, one shard. See the package comment for which methods
// belong to the kernel's owner and which are safe from any goroutine.
type Kernel struct {
	// The leading and trailing pads keep the event loop's and the fire
	// path's writes off any line another object — another shard's
	// kernel, say — lives on.
	_ [cacheLine]byte

	now atomic.Int64 // Time

	qmu   sync.Mutex // guards seq + queue, and every advance of now
	seq   uint64
	queue eventQueue

	// args is the owner's argument stack: Fire copies its arguments into
	// the frame args[argTop:argTop+len] and hands the hooks that frame, so
	// the caller's variadic slice never escapes and a nested Fire stacks
	// its frame above the outer one. lastSite is the site the owner fired
	// last, so a fire of the same site again finds it by comparing names
	// instead of hashing one. hookPanics is owned too.
	args       []float64
	argTop     int
	lastSite   *hookSite
	hookPanics uint64

	// sites is the copy-on-write hook table: the map value is replaced
	// wholesale (under hmu) when a new site appears, and the *hookSite
	// entries themselves are stable, so lastSite never goes stale and a
	// Fire that misses it finds the site with one atomic load and one
	// hash. hmu serializes mutations only.
	hmu        sync.Mutex
	sites      atomic.Pointer[map[string]*hookSite]
	hookID     uint64
	panicGuard atomic.Pointer[PanicHandler]

	tsink atomic.Pointer[telemetry.Sink]

	// generation is the active deployment generation number, advanced by
	// the rollout control plane on fleet-wide promotion. Generation 1 is
	// the boot deployment.
	generation atomic.Uint64

	_ [cacheLine]byte
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
// the current time (immediately on the next Step). The clamp reads the
// clock under the queue lock, which every clock advance also holds, so
// no queued event is ever behind the clock and the clock never runs
// backwards, whichever goroutine schedules.
func (k *Kernel) At(t Time, fn func()) {
	k.qmu.Lock()
	if now := k.Now(); t < now {
		t = now
	}
	k.seq++
	k.queue.push(event{at: t, seq: k.seq, fn: fn})
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

// popLocked removes the earliest event and advances the clock to it.
// The caller holds qmu and has checked that the queue is not empty.
func (k *Kernel) popLocked() func() {
	e := k.queue.pop()
	k.now.Store(int64(e.at))
	return e.fn
}

// Step executes the next pending event, advancing the clock. It returns
// false when the queue is empty.
func (k *Kernel) Step() bool {
	k.qmu.Lock()
	if len(k.queue) == 0 {
		k.qmu.Unlock()
		return false
	}
	fn := k.popLocked()
	k.qmu.Unlock()
	fn()
	return true
}

// RunUntil executes events until the queue is empty or the next event is
// at or after deadline; the clock finishes at min(deadline, last event).
// It returns the number of events executed. Each event costs one lock
// acquisition: the peek, the pop and the clock advance share it, and so
// does the final advance to deadline.
func (k *Kernel) RunUntil(deadline Time) int {
	n := 0
	for {
		k.qmu.Lock()
		if len(k.queue) == 0 || k.queue[0].at >= deadline {
			if k.Now() < deadline {
				k.now.Store(int64(deadline))
			}
			k.qmu.Unlock()
			return n
		}
		fn := k.popLocked()
		k.qmu.Unlock()
		fn()
		n++
	}
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
	hs := &hookSite{name: site}
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
// (the default) panics propagate as before. Safe from any goroutine;
// the next fire uses the new handler.
func (k *Kernel) SetHookPanicHandler(h PanicHandler) {
	if h == nil {
		k.panicGuard.Store(nil)
		return
	}
	k.panicGuard.Store(&h)
}

// HookPanics returns how many hook panics the panic handler absorbed.
// The count is owned: read it on the owner or after it has stopped.
func (k *Kernel) HookPanics() uint64 { return k.hookPanics }

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
// a kprobe firing. Fire runs on the kernel's owner: it finds the site
// by comparing its name with the last site the owner fired (hashing it
// only when they differ), loads the slot list atomically (Attach may run
// anywhere), counts the fire with a plain increment, and hands the hooks
// a frame on the kernel's own argument stack, so it takes no lock, no
// locked instruction and no allocation. The hooks see the frame only for
// the duration of their call; a hook that fires again gets a frame above
// it.
//
//guardrails:hotpath
func (k *Kernel) Fire(site string, args ...float64) {
	hs := k.lastSite
	if hs == nil || hs.name != site {
		hs = (*k.sites.Load())[site] //guardrails:coldpath a site other than the last one fired
		if hs == nil {
			hs = k.siteFor(site)
		}
		k.lastSite = hs
	}
	hs.fires++
	n := hs.fires
	slots := *hs.slots.Load()
	guard := k.panicGuard.Load()
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
	// Push the frame. A panic that propagates out of a hook (no handler
	// installed) leaves it pushed; the stack only grows by it.
	top := k.argTop
	end := top + len(args)
	if end > len(k.args) {
		k.growArgs(end)
	}
	frame := k.args[top:end:end]
	copy(frame, args)
	k.argTop = end
	for _, s := range slots {
		if guard == nil {
			s.fn(k, site, frame)
			continue
		}
		k.fireGuarded(s.fn, site, frame, *guard)
	}
	k.argTop = top
	if timed {
		hs.dispatchHist(sink, site).Observe(float64(time.Since(wallStart)))
	}
}

// growArgs replaces the argument stack with one of at least need slots:
// 16 at the first fire with arguments, doubling after that. Frames
// already handed out keep pointing into the old array, which nothing
// writes any more, so nothing is copied.
func (k *Kernel) growArgs(need int) {
	n := max(2*len(k.args), 16)
	for n < need {
		n *= 2
	}
	k.args = make([]float64, n)
}

// fireGuarded runs one hook under the panic guard.
func (k *Kernel) fireGuarded(fn HookFn, site string, args []float64, guard PanicHandler) {
	defer func() {
		if r := recover(); r != nil {
			k.hookPanics++
			guard(site, r)
		}
	}()
	fn(k, site, args)
}

// FireCount returns how many times site has fired. The count is owned:
// read it on the owner or after it has stopped.
func (k *Kernel) FireCount(site string) uint64 {
	hs := (*k.sites.Load())[site]
	if hs == nil {
		return 0
	}
	return hs.fires
}
