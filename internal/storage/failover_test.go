package storage

import (
	"testing"

	"guardrails/internal/kernel"
)

func failoverArray(t *testing.T) *Array {
	t.Helper()
	cfg := DeviceConfig{
		Chips:        1, // every LBA on the same chip: GC is easy to force
		ReadBase:     80 * kernel.Microsecond,
		ReadJitter:   0,
		WriteBase:    400 * kernel.Microsecond,
		WriteJitter:  0,
		GCDuration:   8 * kernel.Millisecond,
		GCWritePages: 4,
		// No background GC: the survivor's latencies stay deterministic.
		BackgroundGCRate: 0,
	}
	cfg.Name, cfg.Seed = "primary", 1
	d0, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Name, cfg.Seed = "replica", 2
	d1, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := NewArray(d0, d1)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// Regression: a replica dying in the middle of a GC pause must not take
// its pause with it — reads route to the survivor immediately, with
// real (non-zero, non-GC-inflated) latencies.
func TestArrayFailoverDuringGCPause(t *testing.T) {
	arr := failoverArray(t)
	primary := arr.Replica(0)

	// Drive the primary (only it — not the array, which would drag the
	// survivor into GC too) into a GC pause with write pressure.
	now := kernel.Time(0)
	for i := 0; i < 4; i++ {
		primary.Submit(now, 0, true)
		now += kernel.Millisecond
	}
	if primary.chipFor(0).gcUntil <= now {
		t.Fatal("write pressure did not trigger a GC pause")
	}
	gcRead := arr.Primary().Submit(now, 0, false)
	if gcRead < kernel.Millisecond {
		t.Fatalf("pre-failure read %v should be stuck behind the GC pause", gcRead)
	}

	// The replica dies mid-pause.
	if !arr.Fail(0) {
		t.Fatal("Fail(0) refused with a live survivor present")
	}
	if arr.AliveCount() != 1 || !arr.down[0] {
		t.Fatalf("alive = %d, down[0] = %v after failure", arr.AliveCount(), arr.down[0])
	}
	if arr.Primary() != arr.Replica(1) || arr.Secondary() != arr.Replica(1) {
		t.Fatal("reads not routed to the survivor")
	}
	for i := 0; i < 8; i++ {
		lat := arr.Primary().Submit(now, uint64(i), false)
		if lat <= 0 {
			t.Fatalf("read %d returned a zero/stale latency %v from a dead replica", i, lat)
		}
		if lat >= 8*kernel.Millisecond {
			t.Fatalf("read %d latency %v still behind the dead replica's GC pause", i, lat)
		}
		now += 200 * kernel.Microsecond
	}

	// The last survivor must be unkillable.
	if arr.Fail(1) {
		t.Fatal("Fail(1) killed the last live replica")
	}

	// Writes skip the corpse.
	arr.Write(now, 42)
	if primary.chipFor(42).writesSinceGC != 0 {
		t.Error("write mirrored to a failed replica")
	}
	if arr.Replica(1).chipFor(42).writesSinceGC != 1 {
		t.Error("write skipped the survivor")
	}

	// Healing restores the original read preference.
	if !arr.Heal(0) {
		t.Fatal("Heal(0) refused")
	}
	if arr.Primary() != arr.Replica(0) || arr.Secondary() != arr.Replica(1) {
		t.Fatal("healed replica did not resume as primary")
	}
	if arr.Heal(0) {
		t.Error("double Heal reported a transition")
	}
}

// Up/down transitions must reach the notify observer (the seam that
// publishes replicas_alive to the feature store).
func TestArrayNotifyOnFailHeal(t *testing.T) {
	arr := failoverArray(t)
	type ev struct {
		i     int
		alive bool
	}
	var got []ev
	arr.SetNotify(func(i int, alive bool) { got = append(got, ev{i, alive}) })
	arr.Fail(1)
	arr.Fail(1) // no-op: already down
	arr.Fail(0) // refused: last survivor
	arr.Heal(1)
	want := []ev{{1, false}, {1, true}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("notifications = %v, want %v", got, want)
	}
}
