package monitor

import (
	"sync"
	"testing"
)

// TestLoadDeploymentUnderConcurrentFire loads a deployment while its
// hook sites fire from concurrent goroutines: the admission test and
// the arm transitions must be safe against in-flight dispatches (run
// under go test -race), and every monitor ends armed and acting.
func TestLoadDeploymentUnderConcurrentFire(t *testing.T) {
	rt, k, st := newRT()
	st.Save("ml_enabled", 1)
	st.Save("err_rate", 0.5) // violates both guardrails

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k.Fire("io_submit", float64(n))
				k.Fire("busy_site", float64(n))
			}
		}(i)
	}

	res, err := rt.LoadDeployment(compileAll(t, `
guardrail ml-off {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { SAVE(ml_enabled, 0) }
}
guardrail busy-watch {
    trigger: { FUNCTION(busy_site) },
    rule: { LOAD(err_rate) <= 0.01 },
    action: { REPORT(LOAD(err_rate)) }
}`), DeployConfig{})
	if err != nil {
		t.Fatalf("clean deployment refused: %v", err)
	}
	// Let the firers hammer the freshly armed deployment, then stop.
	for i := 0; i < 1000; i++ {
		k.Fire("io_submit", float64(i))
	}
	close(stop)
	wg.Wait()

	// One more uncontended round so every monitor has a completed
	// evaluation on the books (concurrent rounds can bounce off the
	// single-evaluation CAS).
	k.Fire("io_submit", 0)
	k.Fire("busy_site", 0)
	for _, m := range res.Monitors {
		if s := m.Stats(); s.Evals == 0 || s.ActionsFired == 0 {
			t.Errorf("%s: stats %+v; want it evaluated and acting", m.Name(), s)
		}
	}
	if got := st.Load("ml_enabled"); got != 0 {
		t.Errorf("ml_enabled = %v; ml-off never acted", got)
	}
}

// TestQuarantineTogglesUnderConcurrentFire flips a live monitor through
// the quarantine transitions (enabled→disabled→enabled,
// live→forced-shadow→released) while hooks fire from other goroutines.
// Under go test -race this pins the transition paths as safe against
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

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k.Fire("io_submit", float64(n))
			}
		}(i)
	}
	for i := 0; i < 500; i++ {
		m.SetEnabled(false)
		m.ForceShadow(true)
		m.ForceShadow(false)
		m.SetEnabled(true)
	}
	close(stop)
	wg.Wait()

	st.Save("ml_enabled", 1)
	k.Fire("io_submit", 0)
	if got := st.Load("ml_enabled"); got != 0 {
		t.Errorf("monitor did not act after the quarantine toggles settled (ml_enabled = %v)", got)
	}
	if m.Stats().Evals == 0 {
		t.Error("monitor never evaluated under concurrent fire")
	}
}
