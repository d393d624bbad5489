package kernel

import (
	"strings"
	"testing"
)

// TestFireInterleavedSitesCountExactly: fires that alternate between
// sites, repeat one, and come back to the first reach only their own
// site's hooks, under their own name, and every site's count is exact.
func TestFireInterleavedSitesCountExactly(t *testing.T) {
	k := New()
	hooks := map[string]int{}
	for _, site := range []string{"io_submit", "io_done"} {
		k.Attach(site, func(_ *Kernel, got string, args []float64) {
			if got != site || len(args) != 1 || args[0] != float64(len(site)) {
				t.Errorf("hook on %q saw site %q args %v", site, got, args)
			}
			hooks[site]++
		})
	}
	pattern := "ssdsddsssdsdds"
	want := map[string]uint64{}
	for _, c := range pattern {
		site := "io_submit"
		if c == 'd' {
			site = "io_done"
		}
		k.Fire(site, float64(len(site)))
		want[site]++
	}
	for site, n := range want {
		if got := k.FireCount(site); got != n || uint64(hooks[site]) != n {
			t.Errorf("%s: FireCount %d, hooks ran %d times, want %d", site, got, hooks[site], n)
		}
	}
}

// TestAttachToTheLastFiredSite: Fire creates a site and remembers it;
// a hook another goroutine attaches to it meanwhile receives the first
// fire after Attach returns (run under -race).
func TestAttachToTheLastFiredSite(t *testing.T) {
	k := New()
	k.Fire("io_done")
	hits := 0
	attached := make(chan struct{})
	go func() {
		k.Attach("io_done", func(_ *Kernel, _ string, args []float64) {
			if len(args) == 1 && args[0] == 1 {
				hits++
			}
		})
		close(attached)
	}()
	fires := uint64(1)
	for done := false; !done; fires++ {
		select {
		case <-attached:
			k.Fire("io_done", 1)
			done = true
		default:
			k.Fire("io_done")
		}
	}
	if hits != 1 {
		t.Errorf("the hook saw %d fires after Attach returned, want 1", hits)
	}
	if got := k.FireCount("io_done"); got != fires {
		t.Errorf("FireCount = %d, want %d", got, fires)
	}
}

// TestFireEmptySiteName: "" is a site like any other — the first fire
// a kernel sees, and one a fire of another site stands between.
func TestFireEmptySiteName(t *testing.T) {
	k := New()
	ran := 0
	k.Attach("", func(_ *Kernel, site string, _ []float64) {
		if site != "" {
			t.Errorf("hook on the empty site saw %q", site)
		}
		ran++
	})
	k.Fire("")
	k.Fire("")
	k.Fire("x")
	k.Fire("")
	if got := k.FireCount(""); got != 3 || ran != 3 {
		t.Errorf("empty site: FireCount %d, hook ran %d times, want 3", got, ran)
	}
	if got := k.FireCount("x"); got != 1 {
		t.Errorf("FireCount(x) = %d, want 1", got)
	}
}

// BenchmarkFire times one fire of a site with one no-op hook: one-site
// fires the same site every time, as each subsystem does;
// two-sites-alternating switches site on every fire, so every fire
// misses the remembered site and looks its name up. The names are
// built at run time, as a parsed guardrail's are, so the fire's name
// and the attached one do not share storage.
func BenchmarkFire(b *testing.B) {
	sites := []string{"io_complete", "io_dispatch"}
	for _, bc := range []struct {
		name  string
		sites []string
	}{{"one-site", sites[:1]}, {"two-sites-alternating", sites}} {
		b.Run(bc.name, func(b *testing.B) {
			k := New()
			for _, s := range bc.sites {
				k.Attach(strings.Clone(s), func(*Kernel, string, []float64) {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Fire(bc.sites[i%len(bc.sites)], float64(i))
			}
		})
	}
}
