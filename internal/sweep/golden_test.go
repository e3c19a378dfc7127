package sweep

import (
	"math"
	"reflect"
	"testing"

	"sdnavail/internal/stats"
)

// sweepGolden is one point's recorded output in TestSweepGoldenEstimates.
type sweepGolden struct {
	reps                 int
	converged            bool
	cp, sdp, hdp, cpU    stats.Interval
	ess, hitProb         float64
	paths, splits, kills int
	cpModes, dpModes     map[string]float64
}

// TestSweepGoldenEstimates pins the sweep's own output — the fixed-count
// rule, the CI-target rule and the relative-error rule on a rare-event
// point — to recorded values. Unlike TestFixedCountMatchesMCRun it pins
// the sweep's per-mode arithmetic (summed hours divided by the folded
// count once, at the end) bit for bit, so any change to the fold order or
// to that arithmetic fails here.
func TestSweepGoldenEstimates(t *testing.T) {
	rare := quorumConfig(2, 120)
	rare.Rare = AutoRare(rare)
	cases := []struct {
		name  string
		point Point
		opt   Options
		want  sweepGolden
	}{
		{
			name:  "fixed",
			point: Point{ID: "fixed", Config: testConfig(t, 1)},
			opt:   Options{MaxReps: 48},
			want: sweepGolden{
				reps: 48, converged: true,
				cp:  stats.Interval{Mean: 0.99675915329702591, HalfWide: 0.0012201317605564288, Level: 0.99, N: 48},
				sdp: stats.Interval{Mean: 0.99779125950075875, HalfWide: 0.0011742435997331077, Level: 0.99, N: 48},
				hdp: stats.Interval{Mean: 0.99128226531572949, HalfWide: 0.0016018668148978729, Level: 0.99, N: 48},
				cpU: stats.Interval{Mean: 0.0032408467029738327, HalfWide: 0.0012201317605564288, Level: 0.99, N: 48},
				ess: 48, hitProb: 1,
				paths: 0, splits: 0, kills: 0,
				cpModes: map[string]float64{
					"host:H1":                          0.49025048361153861,
					"host:H2":                          0.38115360539223886,
					"host:H3":                          0.50736801429711298,
					"process:cassandra-db (Analytics)": 3.5057430276760537,
					"process:cassandra-db (Config)":    2.3942880024587354,
					"process:kafka":                    2.2022018232340379,
					"process:supervisor-database":      6.218898681265105,
					"process:zookeeper":                4.3143500265823178,
					"rack:R1":                          44.174809984826652,
					"vm:GCAD1":                         0.22787350754949878,
					"vm:GCAD2":                         0.21214917782353501,
					"vm:GCAD3":                         0.18784772475921288,
				},
				dpModes: map[string]float64{
					"process:supervisor-vrouter": 186.34613476018782,
					"process:vrouter-agent":      40.534218137356625,
					"process:vrouter-dpdk":       33.479414503624909,
					"rack:R1":                    88.349619969653304,
				},
			},
		},
		{
			name:  "adaptive",
			point: Point{ID: "adaptive", Config: testConfig(t, 2)},
			opt:   Options{CITarget: 1e-3, MinReps: 8, MaxReps: 200, Batch: 16},
			want: sweepGolden{
				reps: 72, converged: true,
				cp:  stats.Interval{Mean: 0.99629655000887662, HalfWide: 0.00094506255196254011, Level: 0.99, N: 72},
				sdp: stats.Interval{Mean: 0.99766012739558341, HalfWide: 0.00091674510718204596, Level: 0.99, N: 72},
				hdp: stats.Interval{Mean: 0.99077334871416944, HalfWide: 0.001224312618813693, Level: 0.99, N: 72},
				cpU: stats.Interval{Mean: 0.0037034499911230926, HalfWide: 0.00094506255196253675, Level: 0.99, N: 72},
				ess: 72, hitProb: 1,
				paths: 0, splits: 0, kills: 0,
				cpModes: map[string]float64{
					"host:H1":                          0.45387239467581098,
					"host:H2":                          0.74200812652618631,
					"host:H3":                          0.91071635597294176,
					"process:cassandra-db (Analytics)": 4.213367961554634,
					"process:cassandra-db (Config)":    3.3275674368806865,
					"process:kafka":                    4.9849776775128465,
					"process:supervisor-database":      8.6681311072333767,
					"process:zookeeper":                3.1693332221911836,
					"rack:R1":                          46.770319039933348,
					"vm:GCAD1":                         0.27965832923578343,
					"vm:GCAD2":                         0.23904014964991088,
					"vm:GCAD3":                         0.31000802109515746,
				},
				dpModes: map[string]float64{
					"host:H2":                    0.018088698931562789,
					"host:H3":                    0.018088698931562789,
					"process:supervisor-config":  0.018088698931562789,
					"process:supervisor-vrouter": 196.87088924282801,
					"process:vrouter-agent":      40.05220840487253,
					"process:vrouter-dpdk":       38.40048757159051,
					"rack:R1":                    93.688200117123273,
				},
			},
		},
		{
			name:  "rare",
			point: Point{ID: "rare", Config: rare},
			opt:   Options{Confidence: 0.95, RelTarget: 0.5, MinReps: 64, MaxReps: 4096, Batch: 256},
			want: sweepGolden{
				reps: 3136, converged: true,
				cp:  stats.Interval{Mean: 0.99999944143976904, HalfWide: 2.7822628413536946e-07, Level: 0.95, N: 3136},
				sdp: stats.Interval{Mean: 1, HalfWide: 0, Level: 0.95, N: 3136},
				hdp: stats.Interval{Mean: 0, HalfWide: 0, Level: 0.95, N: 3136},
				cpU: stats.Interval{Mean: 5.5856022903357202e-07, HalfWide: 2.7822628413503552e-07, Level: 0.95, N: 3136},
				ess: 821.87510201800512, hitProb: 5.107006359761571e-05,
				paths: 3138, splits: 74, kills: 146,
				cpModes: map[string]float64{
					"process:svc": 6.7027227484028692e-05,
				},
				dpModes: map[string]float64{},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run([]Point{c.point}, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			r, e := res[0], res[0].Estimate
			if r.Replications != c.want.reps || r.Converged != c.want.converged {
				t.Errorf("ran %d reps, converged %v; golden %d, %v", r.Replications, r.Converged, c.want.reps, c.want.converged)
			}
			for _, iv := range []struct {
				name      string
				got, want stats.Interval
			}{
				{"CP", e.CP, c.want.cp},
				{"SharedDP", e.SharedDP, c.want.sdp},
				{"HostDP", e.HostDP, c.want.hdp},
				{"CPUnavailability", e.CPUnavailability, c.want.cpU},
			} {
				if iv.got != iv.want {
					t.Errorf("%s = %+v, golden %+v", iv.name, iv.got, iv.want)
				}
			}
			if e.RareESS != c.want.ess || e.RareHitProb != c.want.hitProb {
				t.Errorf("ESS %.17g, hit prob %.17g; golden %.17g, %.17g (diff %g, %g)",
					e.RareESS, e.RareHitProb, c.want.ess, c.want.hitProb,
					math.Abs(e.RareESS-c.want.ess), math.Abs(e.RareHitProb-c.want.hitProb))
			}
			if e.RarePaths != c.want.paths || e.RareSplits != c.want.splits || e.RareKills != c.want.kills {
				t.Errorf("paths/splits/kills %d/%d/%d, golden %d/%d/%d",
					e.RarePaths, e.RareSplits, e.RareKills, c.want.paths, c.want.splits, c.want.kills)
			}
			if !reflect.DeepEqual(e.CPDowntimeByMode, c.want.cpModes) {
				t.Errorf("CP modes %v, golden %v", e.CPDowntimeByMode, c.want.cpModes)
			}
			if !reflect.DeepEqual(e.DPDowntimeByMode, c.want.dpModes) {
				t.Errorf("DP modes %v, golden %v", e.DPDowntimeByMode, c.want.dpModes)
			}
		})
	}
}
