// Package storage simulates flash SSDs with the latency bimodality that
// motivates LinnOS (Hao et al., OSDI '20): most accesses are fast, but
// internal activity — garbage collection triggered by write pressure or
// background maintenance — makes a chip intermittently slow, queueing
// I/Os behind multi-millisecond pauses. A RAID-1 style Array groups
// replica devices for failover experiments.
//
// The simulator is analytical: Submit computes an I/O's completion time
// directly from per-chip queue and GC state rather than scheduling
// discrete events, which keeps million-I/O experiments fast while
// preserving the queueing behaviour the learned predictor sees.
package storage

import (
	"fmt"
	"math/rand"

	"guardrails/internal/kernel"
	"guardrails/internal/telemetry"
	"guardrails/internal/trace"
)

// DeviceConfig parameterizes a simulated SSD.
type DeviceConfig struct {
	// Name identifies the device in stats and logs.
	Name string
	// Chips is the number of independent flash chips (parallel queues).
	Chips int
	// ReadBase is the media read service time.
	ReadBase kernel.Time
	// ReadJitter is the uniform jitter added to reads.
	ReadJitter kernel.Time
	// WriteBase is the media program (write) service time.
	WriteBase kernel.Time
	// WriteJitter is the uniform jitter added to writes.
	WriteJitter kernel.Time
	// GCDuration is how long one garbage-collection pause blocks a chip.
	GCDuration kernel.Time
	// GCWritePages triggers GC on a chip after this many page writes.
	GCWritePages int
	// BackgroundGCRate is the per-chip rate (events per simulated
	// second) of background maintenance pauses, independent of writes.
	BackgroundGCRate float64
	// ChipSalt perturbs the LBA→chip mapping. Zero keeps the identity
	// layout (lba mod chips); a non-zero salt hashes the LBA first, so
	// replicas with different salts place the same LBA on different
	// chips — as real devices with independent FTL layouts do. Without
	// this, mirrored writes congest the same chip index on every
	// replica simultaneously and failover cannot escape.
	ChipSalt uint64
	// Seed drives the device's jitter and background GC draws.
	Seed int64
}

// DefaultDeviceConfig returns a consumer-flash-like configuration: 16
// chips, ~90µs reads, ~500µs writes, 8ms GC pauses every 64 page writes
// per chip plus rare background GC.
func DefaultDeviceConfig(name string, seed int64) DeviceConfig {
	return DeviceConfig{
		Name:             name,
		Chips:            16,
		ReadBase:         80 * kernel.Microsecond,
		ReadJitter:       20 * kernel.Microsecond,
		WriteBase:        400 * kernel.Microsecond,
		WriteJitter:      100 * kernel.Microsecond,
		GCDuration:       8 * kernel.Millisecond,
		GCWritePages:     64,
		BackgroundGCRate: 0.2,
		Seed:             seed,
	}
}

type chip struct {
	busyUntil     kernel.Time
	gcUntil       kernel.Time
	writesSinceGC int
	nextBgGC      kernel.Time
}

// Device is one simulated SSD. Not safe for concurrent use (the
// simulated kernel is single-threaded).
type Device struct {
	cfg   DeviceConfig
	chips []chip
	rng   *rand.Rand
	tsink *telemetry.Sink

	// completion ring for queue-depth estimation
	completions [64]kernel.Time
	compHead    int

	// recent latencies for the LinnOS feature vector
	recent [4]kernel.Time
}

// NewDevice constructs a device.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	if cfg.Chips <= 0 {
		return nil, fmt.Errorf("storage: device %q needs at least one chip", cfg.Name)
	}
	if cfg.ReadBase <= 0 || cfg.WriteBase <= 0 || cfg.GCDuration <= 0 {
		return nil, fmt.Errorf("storage: device %q has non-positive timings", cfg.Name)
	}
	if cfg.GCWritePages <= 0 {
		return nil, fmt.Errorf("storage: device %q needs positive GC write threshold", cfg.Name)
	}
	d := &Device{
		cfg:   cfg,
		chips: make([]chip, cfg.Chips),
		rng:   trace.NewRand(trace.Split(cfg.Seed, "device/"+cfg.Name)),
	}
	for i := range d.chips {
		d.chips[i].nextBgGC = d.nextBackgroundGC(0)
	}
	return d, nil
}

// Name returns the device name.
func (d *Device) Name() string { return d.cfg.Name }

// SetTelemetry attaches (or with nil, detaches) a telemetry sink: every
// GC pause becomes a flight-recorder span and every I/O completion
// feeds the device's latency histogram.
func (d *Device) SetTelemetry(s *telemetry.Sink) { d.tsink = s }

func (d *Device) nextBackgroundGC(now kernel.Time) kernel.Time {
	if d.cfg.BackgroundGCRate <= 0 {
		return 1<<62 - 1 // effectively never
	}
	gap := trace.Exponential(d.rng, float64(kernel.Second)/d.cfg.BackgroundGCRate)
	return now + kernel.Time(gap)
}

func (d *Device) chipFor(lba uint64) *chip {
	if d.cfg.ChipSalt != 0 {
		h := (lba ^ d.cfg.ChipSalt) * 0x9E3779B97F4A7C15
		return &d.chips[(h>>32)%uint64(len(d.chips))]
	}
	return &d.chips[lba%uint64(len(d.chips))]
}

// Submit issues an I/O at simulated time now and returns its total
// latency (queue wait + GC wait + media service). Device state advances.
func (d *Device) Submit(now kernel.Time, lba uint64, write bool) kernel.Time {
	c := d.chipFor(lba)

	// Fire any due background GC.
	if now >= c.nextBgGC {
		start := max(c.busyUntil, c.nextBgGC)
		if start+d.cfg.GCDuration > c.gcUntil {
			c.gcUntil = start + d.cfg.GCDuration
		}
		d.tsink.GCPause(int64(start), int64(d.cfg.GCDuration), d.cfg.Name)
		c.nextBgGC = d.nextBackgroundGC(now)
	}

	start := now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	if c.gcUntil > start {
		start = c.gcUntil
	}

	var service kernel.Time
	if write {
		service = d.cfg.WriteBase + kernel.Time(d.rng.Int63n(int64(d.cfg.WriteJitter)+1))
		c.writesSinceGC++
		if c.writesSinceGC >= d.cfg.GCWritePages {
			// Write-pressure GC: the chip pauses after this write.
			c.gcUntil = start + service + d.cfg.GCDuration
			c.writesSinceGC = 0
			d.tsink.GCPause(int64(start+service), int64(d.cfg.GCDuration), d.cfg.Name)
		}
	} else {
		service = d.cfg.ReadBase + kernel.Time(d.rng.Int63n(int64(d.cfg.ReadJitter)+1))
	}

	complete := start + service
	c.busyUntil = complete

	lat := complete - now

	d.completions[d.compHead] = complete
	d.compHead = (d.compHead + 1) % len(d.completions)
	copy(d.recent[1:], d.recent[:3])
	d.recent[0] = lat
	d.tsink.IO(d.cfg.Name, int64(lat), write)
	return lat
}

// QueueDepth estimates the number of in-flight I/Os at time now: recent
// submissions whose completion lies in the future. This is the
// queue-length feature LinnOS reads at submission time.
func (d *Device) QueueDepth(now kernel.Time) int {
	depth := 0
	for _, c := range d.completions {
		if c > now {
			depth++
		}
	}
	return depth
}

// RecentLatencies returns the device's last four I/O latencies, newest
// first — the latency history half of the LinnOS feature vector.
func (d *Device) RecentLatencies() [4]kernel.Time { return d.recent }

func max(a, b kernel.Time) kernel.Time {
	if a > b {
		return a
	}
	return b
}

// Array is a RAID-1 style replica group: every write is mirrored to all
// live replicas; reads may be served by any live replica. Replicas can
// be failed and healed at runtime (the chaos-experiment seam for
// mid-run replica loss); the array refuses to fail its last survivor.
type Array struct {
	replicas []*Device
	down     []bool
	notify   func(i int, alive bool)
	tsink    *telemetry.Sink
}

// NewArray groups devices into a replica set. At least two devices are
// required for failover semantics.
func NewArray(devices ...*Device) (*Array, error) {
	if len(devices) < 2 {
		return nil, fmt.Errorf("storage: array needs at least two replicas, got %d", len(devices))
	}
	return &Array{replicas: devices, down: make([]bool, len(devices))}, nil
}

// Replica returns the i'th device.
func (a *Array) Replica(i int) *Device { return a.replicas[i] }

// SetNotify registers an observer for replica up/down transitions
// (e.g. to publish replicas_alive to a feature store). The callback
// runs synchronously from Fail and Heal.
func (a *Array) SetNotify(fn func(i int, alive bool)) { a.notify = fn }

// SetTelemetry attaches a telemetry sink to the array and all its
// replicas: replica fail/heal transitions become failover events, and
// each replica's GC pauses and I/O latencies flow to the sink.
func (a *Array) SetTelemetry(s *telemetry.Sink) {
	a.tsink = s
	for _, d := range a.replicas {
		d.SetTelemetry(s)
	}
}

// Fail takes replica i out of service. It reports whether the replica
// was failed: failing an already-down replica is a no-op, and the last
// live replica cannot be failed (a full-array loss has no failover
// story to simulate).
func (a *Array) Fail(i int) bool {
	if i < 0 || i >= len(a.replicas) || a.down[i] || a.AliveCount() <= 1 {
		return false
	}
	a.down[i] = true
	a.tsink.Failover(a.tsink.Now(), a.replicas[i].Name(), false)
	if a.notify != nil {
		a.notify(i, false)
	}
	return true
}

// Heal returns replica i to service, reporting whether it was down.
func (a *Array) Heal(i int) bool {
	if i < 0 || i >= len(a.replicas) || !a.down[i] {
		return false
	}
	a.down[i] = false
	a.tsink.Failover(a.tsink.Now(), a.replicas[i].Name(), true)
	if a.notify != nil {
		a.notify(i, true)
	}
	return true
}

// AliveCount returns the number of live replicas.
func (a *Array) AliveCount() int {
	n := 0
	for _, d := range a.down {
		if !d {
			n++
		}
	}
	return n
}

// Primary returns the lowest-indexed live replica — the default read
// target.
func (a *Array) Primary() *Device {
	for i, d := range a.replicas {
		if !a.down[i] {
			return d
		}
	}
	return a.replicas[0] // unreachable: the last replica cannot fail
}

// Secondary returns the next live replica after the primary, or the
// primary itself when it is the sole survivor.
func (a *Array) Secondary() *Device {
	primary := -1
	for i := range a.replicas {
		if !a.down[i] {
			if primary >= 0 {
				return a.replicas[i]
			}
			primary = i
		}
	}
	return a.replicas[primary]
}

// Write mirrors a write to every live replica and returns the slowest
// latency (the write completes when all live replicas have it).
func (a *Array) Write(now kernel.Time, lba uint64) kernel.Time {
	var worst kernel.Time
	for i, d := range a.replicas {
		if a.down[i] {
			continue
		}
		if lat := d.Submit(now, lba, true); lat > worst {
			worst = lat
		}
	}
	return worst
}
