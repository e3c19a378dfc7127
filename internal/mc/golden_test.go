package mc

import (
	"math"
	"reflect"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// goldenConfig is the fixed configuration behind the recorded goldens:
// OpenContrail 3x on the Small topology under scenario 2, short horizon,
// seed 1.
func goldenConfig(t *testing.T) Config {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(topology.Small, prof.ClusterRoles, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := analytic.Params{AC: 0.995, AV: 0.9995, AH: 0.999, AR: 0.998, A: 0.999, AS: 0.995}
	cfg := NewConfig(prof, topo, analytic.SupervisorRequired, p)
	cfg.Horizon = 2e4
	cfg.ComputeHosts = 2
	cfg.Seed = 1
	return cfg
}

// TestGoldenEstimates pins the engine's output at a fixed seed to recorded
// values. Any change to the event queue, the RNG stream, the seed
// derivation, the worker pool, or the reduction order that alters results
// in the slightest fails here — the estimates must stay bit-identical, not
// merely statistically close.
func TestGoldenEstimates(t *testing.T) {
	est, err := Run(goldenConfig(t), 500, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		name      string
		got, want float64
	}{
		{"CP mean", est.CP.Mean, 0.99670142948398999},
		{"CP half-width", est.CP.HalfWide, 0.00038831827290936852},
		{"SharedDP mean", est.SharedDP.Mean, 0.99788027791670886},
		{"SharedDP half-width", est.SharedDP.HalfWide, 0.00036689845845968688},
		{"HostDP mean", est.HostDP.Mean, 0.99076957943118515},
		{"HostDP half-width", est.HostDP.HalfWide, 0.00046684066517500996},
	}
	for _, g := range golden {
		if g.got != g.want {
			t.Errorf("%s = %.17g, golden %.17g (diff %g)", g.name, g.got, g.want, math.Abs(g.got-g.want))
		}
	}
	if len(est.CPDowntimeByMode) != 23 {
		t.Errorf("CP attribution has %d modes, golden 23", len(est.CPDowntimeByMode))
	}
	if len(est.DPDowntimeByMode) != 14 {
		t.Errorf("DP attribution has %d modes, golden 14", len(est.DPDowntimeByMode))
	}
	if len(est.Results) != 500 {
		t.Errorf("Results has %d entries, want 500 (NewConfig sets KeepResults)", len(est.Results))
	}
}

// TestWorkerCountIndependence requires the full Estimate — interval means
// and half-widths, both attribution maps, and every retained Result — to
// be identical whatever the pool size. Replication seeds are derived
// per-index and the reducer folds in replication order, so FP summation
// order never depends on scheduling.
func TestWorkerCountIndependence(t *testing.T) {
	cfg := goldenConfig(t)
	base, err := runWorkers(cfg, 200, 0.99, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 32} {
		est, err := runWorkers(cfg, 200, 0.99, workers)
		if err != nil {
			t.Fatal(err)
		}
		if est.CP != base.CP || est.SharedDP != base.SharedDP || est.HostDP != base.HostDP {
			t.Errorf("workers=%d: intervals differ from workers=1: CP %+v vs %+v", workers, est.CP, base.CP)
		}
		if !reflect.DeepEqual(est.CPDowntimeByMode, base.CPDowntimeByMode) {
			t.Errorf("workers=%d: CP attribution differs from workers=1", workers)
		}
		if !reflect.DeepEqual(est.DPDowntimeByMode, base.DPDowntimeByMode) {
			t.Errorf("workers=%d: DP attribution differs from workers=1", workers)
		}
		if !reflect.DeepEqual(est.Results, base.Results) {
			t.Errorf("workers=%d: per-replication results differ from workers=1", workers)
		}
	}
}

// TestSessionMatchesNew pins the pooled path to the one-shot path: a
// reused, reset simulator must replay exactly what a freshly built one
// produces for the same replication index.
func TestSessionMatchesNew(t *testing.T) {
	cfg := goldenConfig(t)
	ss, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []int{0, 1, 7, 3, 0} { // revisit 0: reset must fully rewind
		s, err := New(cfg, rep)
		if err != nil {
			t.Fatal(err)
		}
		want := s.Run()
		got := ss.Replicate(rep)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replication %d: pooled result differs from New().Run()", rep)
		}
	}
}

// TestKeepResultsOptOut checks the sweep mode: identical estimates, no
// retained per-replication results.
func TestKeepResultsOptOut(t *testing.T) {
	cfg := goldenConfig(t)
	kept, err := Run(cfg, 100, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	cfg.KeepResults = false
	dropped, err := Run(cfg, 100, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Results != nil {
		t.Errorf("KeepResults=false retained %d results", len(dropped.Results))
	}
	if dropped.CP != kept.CP || dropped.SharedDP != kept.SharedDP || dropped.HostDP != kept.HostDP {
		t.Errorf("KeepResults=false changed estimates: CP %+v vs %+v", dropped.CP, kept.CP)
	}
	if !reflect.DeepEqual(dropped.CPDowntimeByMode, kept.CPDowntimeByMode) {
		t.Errorf("KeepResults=false changed CP attribution")
	}
}

// rareGolden is the pinned output of one rare-mode estimate.
type rareGolden struct {
	cpU, cpUHalf         float64
	ess, hitProb         float64
	paths, splits, kills int
	sharedDP, hostDP     float64
	cpModes, dpModes     map[string]float64
}

// rareGoldenCase is one configuration behind TestRareGoldenEstimates.
type rareGoldenCase struct {
	name string
	cfg  Config
	reps int
	want rareGolden
}

// rareGoldenCases are three configurations that together reach every
// branch of the rare-mode event loop: forcing with splitting on a k-of-n
// quorum; forcing of processes and hardware with one repair crew and a
// headless hold, so crew-queue and headless-timer events run under
// biasing; and a fallible fabric with link forcing and splitting, so
// resumed branches rebuild connectivity from cut links.
func rareGoldenCases(t *testing.T) []rareGoldenCase {
	t.Helper()
	kofn := kofnConfig(profile.Majority, 3, 2, 120)
	kofn.Rare = RareEventConfig{ProcessBias: 20, SplitLevels: []int{2}, SplitFactor: 3}

	crews := goldenConfig(t)
	crews.Horizon = 200
	crews.RepairCrews = 1
	crews.HeadlessHold = 0.5
	crews.Rare = RareEventConfig{ProcessBias: 1.5, HardwareBias: 4}

	links := linkedConfig(t, topology.Small, analytic.SupervisorRequired)
	links.Horizon = 200
	links.Seed = 3
	links.Rare = RareEventConfig{LinkBias: 5, SplitLevels: []int{2, 3}, SplitFactor: 2, MaxPaths: 3}

	return []rareGoldenCase{
		{name: "kofn-forcing-splitting", cfg: kofn, reps: 4000,
			want: rareGolden{
				cpU: 5.6174053374835946e-07, cpUHalf: 3.0842772148405361e-07,
				ess: 1071.5314935025494, hitProb: 5.8045832331876623e-05,
				paths: 4004, splits: 94, kills: 184,
				sharedDP: 1, hostDP: 0,
				cpModes: map[string]float64{
					"process:svc": 6.7408864049803199e-05,
				},
				dpModes: map[string]float64{},
			},
		},
		{name: "crews-headless-hardware", cfg: crews, reps: 2000,
			want: rareGolden{
				cpU: 0.0025441560619083557, cpUHalf: 0.00097165044448187601,
				ess: 464.37422512412508, hitProb: 0.039640144139514479,
				paths: 2000, splits: 0, kills: 0,
				sharedDP: 0.99846667193222449, hostDP: 0.99202514677591924,
				cpModes: map[string]float64{
					"host:H1":                          0.0047426143353472613,
					"host:H2":                          0.0050419836961382624,
					"host:H3":                          0.0042628779830740397,
					"process:cassandra-db (Analytics)": 0.034020904187970831,
					"process:cassandra-db (Config)":    0.013678984541755448,
					"process:kafka":                    0.020853164376345518,
					"process:supervisor-config":        7.7348463080894898e-05,
					"process:supervisor-database":      0.073881473289507074,
					"process:svc-monitor":              6.8677818026890956e-05,
					"process:zookeeper":                0.038258512736057931,
					"rack:R1":                          0.30666672132200495,
					"vm:GCAD1":                         0.0027952959801519493,
					"vm:GCAD2":                         0.0016515269015953077,
					"vm:GCAD3":                         0.0028311267506136613,
				},
				dpModes: map[string]float64{
					"host:H1":                    1.1807560526207293e-05,
					"host:H2":                    5.6073718539328789e-05,
					"process:dns":                4.4266158013121494e-05,
					"process:named":              4.4266158013121494e-05,
					"process:supervisor-config":  1.1807560526207293e-05,
					"process:supervisor-vrouter": 1.6755378809749735,
					"process:vrouter-agent":      0.39707984537085417,
					"process:vrouter-dpdk":       0.51707221071553511,
					"rack:R1":                    0.60008313141533265,
				},
			},
		},
		{name: "links-splitting", cfg: links, reps: 1000,
			want: rareGolden{
				cpU: 0.0046691647544123919, cpUHalf: 0.001921368436529251,
				ess: 449.63362657498448, hitProb: 0.13884108063521489,
				paths: 1016, splits: 688, kills: 672,
				sharedDP: 0.99655843151327694, hostDP: 0.99167797281963987,
				cpModes: map[string]float64{
					"host:H1":                          0.014784613096707535,
					"host:H2":                          0.015797911483579063,
					"host:H3":                          0.0055012090869980719,
					"link:adj:edge":                    0.16141334370089019,
					"link:fab:R1":                      0.21886715151589767,
					"link:up:H1":                       0.0051898182018692441,
					"link:up:H2":                       0.0038173546172866738,
					"link:up:H3":                       0.0024332184909518096,
					"process:cassandra-db (Analytics)": 0.028997949940380997,
					"process:cassandra-db (Config)":    0.016449884763353392,
					"process:kafka":                    0.0098323323155803388,
					"process:supervisor-config":        5.683687777442229e-05,
					"process:supervisor-database":      0.070775388486414792,
					"process:zookeeper":                0.066473098276009113,
					"rack:R1":                          0.3023863024477203,
					"vm:GCAD1":                         0.0058278362874259306,
					"vm:GCAD2":                         0.0023774518632568797,
					"vm:GCAD3":                         0.0028512494303818852,
				},
				dpModes: map[string]float64{
					"host:H1":                    0.0018058752207318581,
					"host:H3":                    0.0013446370014212148,
					"link:adj:edge":              0.32187824399432913,
					"link:fab:R1":                0.43640633329643091,
					"link:up:H1":                 0.0019767667550587764,
					"link:up:H2":                 0.00031952556663174096,
					"link:up:H3":                 0.00036758224576662784,
					"process:supervisor-config":  0.00011367375554884455,
					"process:supervisor-vrouter": 1.1972772793103743,
					"process:vrouter-agent":      0.42208947024874749,
					"process:vrouter-dpdk":       0.33511217915553698,
					"rack:R1":                    0.60477260489544071,
					"vm:GCAD3":                   0.0053467006985168739,
				},
			},
		},
	}
}

// TestRareGoldenEstimates pins the rare-mode engine's output at fixed
// seeds, as TestGoldenEstimates pins the unbiased engine's: the
// likelihood-ratio-weighted estimate, its interval, the effective sample
// size, the hit probability, the splitting counters, the data-plane
// estimates and both attribution maps must stay bit-identical.
func TestRareGoldenEstimates(t *testing.T) {
	for _, c := range rareGoldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			est, err := Run(c.cfg, c.reps, 0.99)
			if err != nil {
				t.Fatal(err)
			}
			floats := []struct {
				name      string
				got, want float64
			}{
				{"CPUnavailability mean", est.CPUnavailability.Mean, c.want.cpU},
				{"CPUnavailability half-width", est.CPUnavailability.HalfWide, c.want.cpUHalf},
				{"RareESS", est.RareESS, c.want.ess},
				{"RareHitProb", est.RareHitProb, c.want.hitProb},
				{"SharedDP mean", est.SharedDP.Mean, c.want.sharedDP},
				{"HostDP mean", est.HostDP.Mean, c.want.hostDP},
			}
			for _, g := range floats {
				if g.got != g.want {
					t.Errorf("%s = %.17g, golden %.17g (diff %g)", g.name, g.got, g.want, math.Abs(g.got-g.want))
				}
			}
			if est.RarePaths != c.want.paths || est.RareSplits != c.want.splits || est.RareKills != c.want.kills {
				t.Errorf("paths/splits/kills = %d/%d/%d, golden %d/%d/%d",
					est.RarePaths, est.RareSplits, est.RareKills, c.want.paths, c.want.splits, c.want.kills)
			}
			compareModes(t, "CP", est.CPDowntimeByMode, c.want.cpModes)
			compareModes(t, "DP", est.DPDowntimeByMode, c.want.dpModes)
		})
	}
}

// compareModes reports every attribution key whose value differs from
// the golden map, or that only one side has.
func compareModes(t *testing.T, plane string, got, want map[string]float64) {
	t.Helper()
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Errorf("%s attribution %q = %.17g, golden %.17g", plane, k, g, w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s attribution has unexpected mode %q = %.17g", plane, k, g)
		}
	}
}
