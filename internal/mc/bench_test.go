package mc

import (
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// benchConfig is the fixed configuration behind BenchmarkMCRun: the Small
// topology at degraded parameters with a short horizon, so 10^4
// replications fit in a benchmark iteration while still exercising every
// event class (process, VM, host, rack, supervisor semantics).
func benchConfig(b *testing.B) Config {
	b.Helper()
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(topology.Small, prof.ClusterRoles, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := analytic.Params{AC: 0.995, AV: 0.9995, AH: 0.999, AR: 0.998, A: 0.999, AS: 0.995}
	cfg := NewConfig(prof, topo, analytic.SupervisorRequired, p)
	cfg.Horizon = 2e4
	cfg.ComputeHosts = 2
	cfg.Seed = 1
	return cfg
}

// BenchmarkMCRun measures the full multi-replication entry point at 10^4
// replications — the regime availability sweeps live in. The before/after
// numbers are recorded in BENCH_mc.json.
func BenchmarkMCRun(b *testing.B) {
	cfg := benchConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := Run(cfg, 10_000, 0.99)
		if err != nil {
			b.Fatal(err)
		}
		if est.CP.Mean <= 0 {
			b.Fatal("no availability measured")
		}
	}
}

// BenchmarkReplication measures a single replication including simulator
// construction — the unit of work the pool amortizes.
func BenchmarkReplication(b *testing.B) {
	cfg := benchConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(cfg, i)
		if err != nil {
			b.Fatal(err)
		}
		if res := s.Run(); res.Events == 0 {
			b.Fatal("no events")
		}
	}
}

// BenchmarkRareReplication measures one rare-mode replication of the
// 2-of-3 manual-restart reduction behind BENCH_rare.json (MTBF 5000 h,
// restart 1 h, horizon 50 h, forcing ×30, split [2]×3) on a pooled
// simulator, so the number is the event loop with its splitting branches
// rather than construction.
func BenchmarkRareReplication(b *testing.B) {
	cfg := kofnConfig(profile.Majority, 3, 1, 50)
	cfg.Rare = RareEventConfig{ProcessBias: 30, SplitLevels: []int{2}, SplitFactor: 3}
	ss, err := NewSession(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := ss.Replicate(i); res.RarePaths == 0 {
			b.Fatal("no path reached the horizon")
		}
	}
}
