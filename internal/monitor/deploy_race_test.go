package monitor

import (
	"testing"
)

// fireUntil runs fire on a goroutine of its own — the kernel's owner
// while it runs — until release is closed, then another rounds times.
// It returns once the first fire has run, so what the caller does next
// overlaps the firing, and the returned channel closes when the
// goroutine has stopped.
func fireUntil(release <-chan struct{}, rounds int, fire func(n int)) (stopped <-chan struct{}) {
	done, started := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		fire(0)
		close(started)
		for n := 1; ; n++ {
			select {
			case <-release:
				for i := 0; i < rounds; i++ {
					fire(i)
				}
				return
			default:
			}
			fire(n)
		}
	}()
	<-started
	return done
}

// TestLoadDeploymentUnderConcurrentFire loads a deployment on one
// goroutine while another fires its hook sites: the admission test and
// the arm transitions must be safe against in-flight dispatches (run
// under go test -race), and every monitor ends armed and acting.
func TestLoadDeploymentUnderConcurrentFire(t *testing.T) {
	rt, k, st := newRT()
	st.Save("ml_enabled", 1)
	st.Save("err_rate", 0.5) // violates both guardrails

	cs := compileAll(t, `
guardrail ml-off {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { SAVE(ml_enabled, 0) }
}
guardrail busy-watch {
    trigger: { FUNCTION(busy_site) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { REPORT(LOAD(err_rate)) }
}`)
	loaded := make(chan struct{})
	stopped := fireUntil(loaded, 1000, func(n int) {
		k.Fire("io_submit", float64(n))
		k.Fire("busy_site", float64(n))
	})
	res, err := rt.LoadDeployment(cs, DeployConfig{})
	// The firer hammers the freshly armed deployment, then stops.
	close(loaded)
	<-stopped
	if err != nil {
		t.Fatalf("clean deployment refused: %v", err)
	}
	for _, m := range res.Monitors {
		if s := m.Stats(); s.Evals < 1000 || s.ActionsFired < 1000 {
			t.Errorf("%s: stats %+v; want it evaluated and acting on every fire after the load", m.Name(), s)
		}
	}
	if got := st.Load("ml_enabled"); got != 0 {
		t.Errorf("ml_enabled = %v; ml-off never acted", got)
	}
}

// TestQuarantineTogglesUnderConcurrentFire flips a live monitor through
// the quarantine transitions (enabled→disabled→enabled,
// live→forced-shadow→released) on one goroutine while another fires its
// hook. Under go test -race this pins the toggles as safe against
// in-flight evaluations; functionally, the monitor must end live.
func TestQuarantineTogglesUnderConcurrentFire(t *testing.T) {
	rt, k, st := newRT()
	st.Save("ml_enabled", 1)
	st.Save("err_rate", 0.5)
	res, err := rt.LoadDeployment(compileAll(t, `
guardrail flip {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { SAVE(ml_enabled, 0) }
}`), DeployConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Monitors[0]

	toggled := make(chan struct{})
	stopped := fireUntil(toggled, 0, func(n int) { k.Fire("io_submit", float64(n)) })
	for i := 0; i < 500; i++ {
		m.SetEnabled(false)
		m.ForceShadow(true)
		m.ForceShadow(false)
		m.SetEnabled(true)
	}
	close(toggled)
	<-stopped

	st.Save("ml_enabled", 1)
	k.Fire("io_submit", 0)
	if got := st.Load("ml_enabled"); got != 0 {
		t.Errorf("monitor did not act after the quarantine toggles settled (ml_enabled = %v)", got)
	}
	if m.Stats().Evals == 0 {
		t.Error("monitor never evaluated under concurrent fire")
	}
}
