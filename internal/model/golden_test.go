package model

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// simCounters is what a fixed-seed cell must reproduce exactly.
type simCounters struct {
	Commits, Aborts, Messages, Callbacks, Deescalations, Evictions int64
}

// goldenCells pins one fixed-seed HOTCOLD and one Interleaved-PRIVATE cell
// per protocol. The values were recorded at commit d0565ce, before the
// client cache moved from per-transaction maps to slot bitsets and
// intrusive lists: eviction order, drop-notice order and every sorted
// output the protocol sees must survive that rewrite bit for bit.
var goldenCells = map[string]map[core.Protocol]simCounters{
	"hotcold": {
		core.PS:   {Commits: 437, Aborts: 60, Messages: 24950, Callbacks: 869, Deescalations: 0, Evictions: 7066},
		core.OS:   {Commits: 427, Aborts: 3, Messages: 60772, Callbacks: 944, Deescalations: 0, Evictions: 20834},
		core.PSOO: {Commits: 458, Aborts: 3, Messages: 27534, Callbacks: 1115, Deescalations: 0, Evictions: 8256},
		core.PSOA: {Commits: 466, Aborts: 2, Messages: 27720, Callbacks: 1045, Deescalations: 0, Evictions: 7673},
		core.PSAA: {Commits: 469, Aborts: 10, Messages: 26288, Callbacks: 990, Deescalations: 183, Evictions: 7750},
		core.PSWT: {Commits: 466, Aborts: 4, Messages: 27932, Callbacks: 1122, Deescalations: 0, Evictions: 8345},
	},
	"interleaved": {
		core.PS:   {Commits: 710, Aborts: 728, Messages: 52976, Callbacks: 7040, Deescalations: 0, Evictions: 1798},
		core.OS:   {Commits: 617, Aborts: 0, Messages: 70749, Callbacks: 0, Deescalations: 0, Evictions: 13795},
		core.PSOO: {Commits: 640, Aborts: 0, Messages: 62828, Callbacks: 11506, Deescalations: 0, Evictions: 4261},
		core.PSOA: {Commits: 642, Aborts: 0, Messages: 63717, Callbacks: 10025, Deescalations: 0, Evictions: 1669},
		core.PSAA: {Commits: 749, Aborts: 27, Messages: 62053, Callbacks: 11561, Deescalations: 1705, Evictions: 1985},
		core.PSWT: {Commits: 548, Aborts: 209, Messages: 59510, Callbacks: 10247, Deescalations: 0, Evictions: 3561},
	},
}

func TestGoldenSimCounters(t *testing.T) {
	specs := map[string]workload.Spec{
		"hotcold":     workload.HotColdSpec(workload.LowLocality, 0.1),
		"interleaved": workload.InterleavedPrivateSpec(0.3),
	}
	for name, spec := range specs {
		for _, proto := range core.AllProtocols {
			cfg := shortConfig(proto, spec)
			cfg.Seed = 20240914
			cfg.Warmup, cfg.Measure = 10, 50
			cfg.ClientBufPages = spec.DBPages / 25 // small enough that every protocol evicts
			r := Run(cfg)
			got := simCounters{r.Commits, r.Aborts, r.Messages, r.Callbacks, r.Deescalations, r.ClientEvictions}
			if want := goldenCells[name][proto]; got != want {
				t.Errorf("%s/%v: counters %+v, want %+v", name, proto, got, want)
			}
		}
	}
}
