package model

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestGoldenSimCountersWithDropHook: the client cache's drop hook (the
// live client recycles page buffers through it) is an observer. With one
// installed on every simulated client, a golden cell still reproduces its
// counters exactly, and the hook hears of every eviction.
func TestGoldenSimCountersWithDropHook(t *testing.T) {
	for _, proto := range core.AllProtocols {
		cfg := shortConfig(proto, workload.HotColdSpec(workload.LowLocality, 0.1))
		cfg.Seed = 20240914
		cfg.Warmup, cfg.Measure = 10, 50
		cfg.ClientBufPages = cfg.Workload.DBPages / 25
		sys := build(cfg)
		drops, evictions := int64(0), int64(0)
		for _, cl := range sys.client {
			cl.cs.Cache.OnDrop = func(any, bool) { drops++ }
		}
		sys.eng.Run(cfg.Warmup) // Run's own steps, around the hook
		sys.startMeasurement()
		sys.eng.Run(cfg.Warmup + cfg.Measure)
		sys.finish()
		r := sys.res
		for _, cl := range sys.client {
			evictions += cl.cs.Cache.Evictions
		}
		got := simCounters{r.Commits, r.Aborts, r.Messages, r.Callbacks, r.Deescalations, r.ClientEvictions}
		if want := goldenCells["hotcold"][proto]; got != want {
			t.Errorf("%v: counters %+v with the hook set, want %+v", proto, got, want)
		}
		if drops < evictions || evictions == 0 {
			t.Errorf("%v: hook heard %d drops for %d evictions", proto, drops, evictions)
		}
	}
}
