package main

import (
	"fmt"

	"sdnavail/internal/analytic"
	"sdnavail/internal/markov"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/sweep"
	"sdnavail/internal/topology"
)

// Benchmark-side mirrors of what the server computes for a query, so a
// response can be checked against, and its handler time split from, a
// direct call into the layer below. TestMirrorMatchesServer pins them to
// the server's answers.

// serverParams are the server's defaults for parameters a query omits.
func serverParams() analytic.Params {
	return analytic.Params{AC: 0.995, AV: 0.9995, AH: 0.999, AR: 0.998, A: 0.999, AS: 0.995}
}

func scenarioOf(n int) analytic.Scenario {
	if n == 2 {
		return analytic.SupervisorRequired
	}
	return analytic.SupervisorNotRequired
}

func kindOf(name string) (topology.Kind, error) {
	switch name {
	case "small":
		return topology.Small, nil
	case "medium":
		return topology.Medium, nil
	case "large":
		return topology.Large, nil
	}
	return 0, fmt.Errorf("unknown topology %q", name)
}

// mcPlan mirrors the server's plan for a plain fixed-count what-if: the
// simulator configuration and the sweep options it hands sweep.RunContext.
func mcPlan(q mcQuery) (mc.Config, sweep.Options, error) {
	kind, err := kindOf(q.Topology)
	if err != nil {
		return mc.Config{}, sweep.Options{}, err
	}
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(kind, prof.ClusterRoles, q.Cluster)
	if err != nil {
		return mc.Config{}, sweep.Options{}, err
	}
	cfg := mc.NewConfig(prof, topo, scenarioOf(q.Scenario), serverParams())
	cfg.Horizon = q.Horizon
	cfg.Seed = q.Seed
	cfg.ComputeHosts = 4
	cfg.KeepResults = false
	return cfg, sweep.Options{MinReps: min(8, q.Reps), MaxReps: q.Reps}, nil
}

// analyticResp is the /api/v1/analytic response body.
type analyticResp struct {
	Profile           string  `json:"profile"`
	Topology          string  `json:"topology"`
	Scenario          int     `json:"scenario"`
	CP                float64 `json:"cp_availability"`
	SharedDP          float64 `json:"shared_dp_availability"`
	HostDP            float64 `json:"host_dp_availability"`
	CPDowntimeMinYear float64 `json:"cp_downtime_min_per_year"`
	CPNines           float64 `json:"cp_nines"`
	Cached            bool    `json:"cached"`
}

// analyticModel builds the closed-form model the server evaluates for q.
func analyticModel(q analyticQuery) (*analytic.Model, error) {
	kind, err := kindOf(q.Topology)
	if err != nil {
		return nil, err
	}
	p := serverParams()
	p.A, p.AS, p.AH = q.A, q.AS, q.AH
	m := analytic.NewModel(profile.OpenContrail3x(), analytic.Option{Kind: kind, Scenario: scenarioOf(q.Scenario)})
	m.Params = p
	m.ClusterSize = q.Cluster
	return m, m.Validate()
}

// expectAnalytic is the response the server must give for q (Cached
// aside).
func expectAnalytic(q analyticQuery) (analyticResp, error) {
	m, err := analyticModel(q)
	if err != nil {
		return analyticResp{}, err
	}
	cp, dp := m.Evaluate()
	return analyticResp{
		Profile:           "opencontrail",
		Topology:          q.Topology,
		Scenario:          q.Scenario,
		CP:                cp,
		SharedDP:          m.SharedDP(),
		HostDP:            dp,
		CPDowntimeMinYear: relmath.DowntimeMinutesPerYear(cp),
		CPNines:           relmath.Nines(cp),
	}, nil
}

// The rare-event pass's model: a 2-of-3 quorum of manually restarted
// processes (MTBF 5000 h, restart 1 h) over a 50 h horizon, whose
// unavailability (~1.2e-7) the exact birth-death solver gives, with the
// forcing ×30 and split [2]×3 schedule.
const (
	tailMTBF    = 5000.0
	tailRestart = 1.0
	tailHorizon = 50.0
)

func tailConfig(seed int64) mc.Config {
	prof := &profile.Profile{
		Name:         "kofn-bench",
		Description:  "2-of-3 manual-restart reduction",
		ClusterRoles: []profile.Role{profile.Control},
		Processes: []profile.Process{{
			Name:    "svc",
			Role:    profile.Control,
			Restart: profile.ManualRestart,
			CP:      profile.Majority,
			DP:      profile.NotRequired,
		}},
	}
	rack := topology.Rack{Name: "R"}
	for i := 0; i < 3; i++ {
		rack.Hosts = append(rack.Hosts, topology.Host{
			Name: fmt.Sprintf("H%d", i),
			VMs: []topology.VM{{
				Name:       fmt.Sprintf("V%d", i),
				Placements: []topology.Placement{{Role: profile.Control, Node: i}},
			}},
		})
	}
	return mc.Config{
		Profile: prof,
		Topology: &topology.Topology{
			Name:        "kofn-bench",
			Kind:        topology.Custom,
			ClusterSize: 3,
			Roles:       []profile.Role{profile.Control},
			Racks:       []topology.Rack{rack},
		},
		Scenario:          analytic.SupervisorNotRequired,
		ProcessMTBF:       tailMTBF,
		AutoRestart:       0.1,
		ManualRestart:     tailRestart,
		MaintenanceWindow: 10,
		VMMTBF:            1e15, VMRepair: 1,
		HostMTBF: 1e15, HostRepair: 1,
		RackMTBF: 1e15, RackRepair: 1,
		Horizon: tailHorizon,
		Seed:    seed,
		Rare:    mc.RareEventConfig{ProcessBias: 30, SplitLevels: []int{2}, SplitFactor: 3},
	}
}

// tailOptions stop at 10% relative error at 99% confidence.
func tailOptions() sweep.Options {
	return sweep.Options{Confidence: 0.99, RelTarget: 0.10, MinReps: 64, MaxReps: 1 << 19, Batch: 4096}
}

// tailExact is the exact CP unavailability of the tail model.
func tailExact() (float64, error) {
	down, err := markov.KofNExpectedDownTime(2, 3, 1/tailMTBF, 1/tailRestart, tailHorizon)
	if err != nil {
		return 0, err
	}
	return down / tailHorizon, nil
}
