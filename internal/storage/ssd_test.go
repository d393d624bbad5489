package storage

import (
	"testing"

	"guardrails/internal/kernel"
)

func quietConfig(name string, seed int64) DeviceConfig {
	cfg := DefaultDeviceConfig(name, seed)
	cfg.BackgroundGCRate = 0 // deterministic tests control GC via writes
	return cfg
}

func TestDeviceValidation(t *testing.T) {
	bad := []DeviceConfig{
		{Name: "x", Chips: 0, ReadBase: 1, WriteBase: 1, GCDuration: 1, GCWritePages: 1},
		{Name: "x", Chips: 1, ReadBase: 0, WriteBase: 1, GCDuration: 1, GCWritePages: 1},
		{Name: "x", Chips: 1, ReadBase: 1, WriteBase: 1, GCDuration: 0, GCWritePages: 1},
		{Name: "x", Chips: 1, ReadBase: 1, WriteBase: 1, GCDuration: 1, GCWritePages: 0},
	}
	for i, cfg := range bad {
		if _, err := NewDevice(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	d, err := NewDevice(quietConfig("ok", 1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "ok" || d.cfg.Chips != 16 {
		t.Error("accessors wrong")
	}
}

func TestReadLatencyIsFastWhenIdle(t *testing.T) {
	d, _ := NewDevice(quietConfig("a", 1))
	for i := 0; i < 100; i++ {
		lat := d.Submit(kernel.Time(i)*kernel.Millisecond, uint64(i), false)
		if lat < 80*kernel.Microsecond || lat > 100*kernel.Microsecond {
			t.Fatalf("idle read latency = %v, want 80-100us", lat)
		}
	}
}

func TestQueueingDelaysBackToBackIOs(t *testing.T) {
	d, _ := NewDevice(quietConfig("a", 2))
	// Two reads to the same chip at the same instant: the second waits.
	first := d.Submit(0, 0, false)
	second := d.Submit(0, 16, false) // same chip (16 chips, lba%16==0)
	if second <= first {
		t.Errorf("queued read (%v) should exceed first (%v)", second, first)
	}
	// A read to a different chip at the same time does not queue.
	other := d.Submit(0, 1, false)
	if other > 100*kernel.Microsecond {
		t.Errorf("different chip queued: %v", other)
	}
}

func TestWritePressureTriggersGC(t *testing.T) {
	cfg := quietConfig("a", 3)
	cfg.GCWritePages = 4
	d, _ := NewDevice(cfg)
	now := kernel.Time(0)
	// Four writes to chip 0 trigger GC; spread them out so queueing
	// doesn't interfere.
	for i := 0; i < 4; i++ {
		if d.chipFor(0).gcUntil != 0 {
			t.Fatalf("GC after %d writes, want it after the 4th", i)
		}
		d.Submit(now, 0, true)
		now += 10 * kernel.Millisecond
	}
	// GC started right after the 4th write at ~now-10ms+service,
	// duration 8ms; at now it may have ended.
	if d.chipFor(0).gcUntil <= now-10*kernel.Millisecond {
		t.Fatal("4th write did not start a GC pause")
	}
	// A read right after the triggering write eats the GC pause.
	lat := d.Submit(now-10*kernel.Millisecond+kernel.Microsecond, 0, false)
	if lat < 5*kernel.Millisecond {
		t.Errorf("read during GC = %v, want multi-ms", lat)
	}
	// Reads on other chips are unaffected.
	lat = d.Submit(now, 1, false)
	if lat > kernel.Millisecond {
		t.Errorf("other chip read = %v", lat)
	}
}

func TestBackgroundGCHappens(t *testing.T) {
	cfg := DefaultDeviceConfig("bg", 4)
	cfg.BackgroundGCRate = 50 // very frequent for the test
	d, _ := NewDevice(cfg)
	slow := 0
	for i := 0; i < 2000; i++ {
		lat := d.Submit(kernel.Time(i)*kernel.Millisecond, uint64(i), false)
		if lat > kernel.Millisecond {
			slow++
		}
	}
	paused := 0
	for i := range d.chips {
		if d.chips[i].gcUntil > 0 {
			paused++
		}
	}
	if paused == 0 {
		t.Fatal("no background GCs fired")
	}
	if slow == 0 {
		t.Error("background GC never delayed a read")
	}
	// Bimodality: most reads are still fast.
	if slow > 1000 {
		t.Errorf("too many slow reads: %d/2000", slow)
	}
}

func TestLatencyBimodality(t *testing.T) {
	// Mixed read/write workload must produce a clearly bimodal latency
	// distribution: p50 fast, p99 slow.
	cfg := quietConfig("bimodal", 5)
	cfg.GCWritePages = 16
	d, _ := NewDevice(cfg)
	var lats []kernel.Time
	now := kernel.Time(0)
	for i := 0; i < 20000; i++ {
		lba := uint64(i * 7)
		write := i%5 == 0
		lat := d.Submit(now, lba, write)
		if !write {
			lats = append(lats, lat)
		}
		now += 200 * kernel.Microsecond
	}
	// Rough percentiles.
	fast, slow := 0, 0
	for _, l := range lats {
		if l < 500*kernel.Microsecond {
			fast++
		}
		if l > 2*kernel.Millisecond {
			slow++
		}
	}
	total := len(lats)
	if float64(fast)/float64(total) < 0.80 {
		t.Errorf("fast fraction = %v, want > 0.80", float64(fast)/float64(total))
	}
	if slow == 0 {
		t.Error("no slow tail present")
	}
}

func TestQueueDepthAndRecentLatencies(t *testing.T) {
	d, _ := NewDevice(quietConfig("q", 6))
	if d.QueueDepth(0) != 0 {
		t.Error("fresh device depth should be 0")
	}
	d.Submit(0, 0, false)
	d.Submit(0, 1, false)
	if got := d.QueueDepth(10 * kernel.Microsecond); got != 2 {
		t.Errorf("depth = %d, want 2", got)
	}
	if got := d.QueueDepth(10 * kernel.Millisecond); got != 0 {
		t.Errorf("depth after drain = %d", got)
	}
	r := d.RecentLatencies()
	if r[0] == 0 || r[1] == 0 {
		t.Error("recent latencies not recorded")
	}
	if r[2] != 0 || r[3] != 0 {
		t.Error("unwritten history should be zero")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []kernel.Time {
		d, _ := NewDevice(DefaultDeviceConfig("det", 42))
		var out []kernel.Time
		for i := 0; i < 500; i++ {
			out = append(out, d.Submit(kernel.Time(i)*100*kernel.Microsecond, uint64(i*3), i%4 == 0))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestArrayMirrorsWrites(t *testing.T) {
	d1, _ := NewDevice(quietConfig("r0", 7))
	d2, _ := NewDevice(quietConfig("r1", 8))
	arr, err := NewArray(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	if arr.Len() != 2 || arr.Replica(0) != d1 {
		t.Error("array accessors wrong")
	}
	lat := arr.Write(0, 5)
	if d1.chipFor(5).writesSinceGC != 1 || d2.chipFor(5).writesSinceGC != 1 {
		t.Error("write not mirrored")
	}
	if lat < 400*kernel.Microsecond {
		t.Errorf("mirrored write latency = %v", lat)
	}
	if _, err := NewArray(d1); err == nil {
		t.Error("single-device array should error")
	}
}
