package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"sdnavail/internal/server"
)

func TestRequestListsFollowTheSeed(t *testing.T) {
	const n = 120
	list := func(seed int64) ([]mcQuery, []analyticQuery, []int64) {
		var m []mcQuery
		var a []analyticQuery
		var tail []int64
		for i := 0; i < n; i++ {
			m = append(m, mcRequest(seed, i))
			q, _ := analyticRequest(seed, i)
			a = append(a, q)
			tail = append(tail, seedAt(seed, saltTail, i))
		}
		return m, a, tail
	}
	m1, a1, t1 := list(7)
	m2, a2, t2 := list(7)
	if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(t1, t2) {
		t.Fatal("the same seed gave different request lists")
	}
	m3, a3, t3 := list(8)
	if reflect.DeepEqual(m1, m3) || reflect.DeepEqual(a1, a3) || reflect.DeepEqual(t1, t3) {
		t.Fatal("different seeds gave the same request list")
	}

	// Every block of 12 MC requests covers each combo once, and every
	// request has its own simulation seed.
	seeds := map[int64]bool{}
	for b := 0; b < n/12; b++ {
		seen := map[combo]bool{}
		for _, q := range m1[b*12 : (b+1)*12] {
			seen[q.combo] = true
		}
		if len(seen) != 12 {
			t.Fatalf("block %d covers %d of 12 combos", b, len(seen))
		}
	}
	for i, q := range m1 {
		if seeds[q.Seed] {
			t.Fatalf("simulation seed %d repeats", q.Seed)
		}
		seeds[q.Seed] = true
		if j := indexOfSeed(7, saltMC, q.Seed); j != i {
			t.Fatalf("request %d's seed maps back to %d", i, j)
		}
	}

	hot := 0
	for i := 0; i < 10000; i++ {
		if _, h := analyticRequest(7, i); h {
			hot++
		}
	}
	if hot < 8800 || hot > 9200 {
		t.Fatalf("%d of 10000 analytic requests hit the hot set, want about 9000", hot)
	}
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2, 4}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90, 9.1},
		{[]float64{5}, 90, 5},
		{[]float64{2, 1}, 0, 1},
		{[]float64{2, 1}, 100, 2},
	} {
		if got := percentile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Error("percentile reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	// client [0,100] ⊃ handler [10,90] ⊃ two overlapping workers [20,50]
	// and [30,70], and a worker of another request that must not count.
	spans := []span{
		{Name: "client", Req: 1, Start: 0, End: 100},
		{Name: "server.handler", Req: 1, Start: 10, End: 90},
		{Name: "shard.worker", Req: 1, Start: 20, End: 50},
		{Name: "shard.worker", Req: 1, Start: 30, End: 70},
		{Name: "shard.worker", Req: 2, Start: 20, End: 80},
		{Name: "server.handler", Req: 2, Start: 15, End: 85},
	}
	link(spans, map[string]string{"server.handler": "client", "shard.worker": "server.handler"})
	wantParent := []int{-1, 0, 1, 1, 5, -1}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d parent %d, want %d", i, s.Parent, wantParent[i])
		}
	}
	got := selfTimes(spans)
	want := []int64{20, 30, 30, 40, 60, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// TestMirrorMatchesServer pins the benchmark's mirrors of the server's
// plan to the server's answers: one MC query and one analytic query per
// topology.
func TestMirrorMatchesServer(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := ts.Client()

	for i, topo := range topologies {
		q := mcQuery{combo: combo{topo, 1 + i%2, 3 + 2*(i%2)}, Horizon: 2000, Reps: 8, Seed: seedAt(3, saltWarm, i)}
		status, body, err := get(hc, ts.URL+"/api/v1/mc?"+q.encode(), i, nil)
		if bad := checkMC(status, body, err, q); bad != "" {
			t.Fatalf("%s: %s", topo, bad)
		}
		if bad := replaySweep(q, &sample{idx: i, body: body}, newRecorder()); bad != "" {
			t.Errorf("%s: %s", topo, bad)
		}

		aq := analyticQuery{combo: q.combo, A: 0.99991, AS: 0.9992, AH: 0.9993}
		status, body, err = get(hc, ts.URL+"/api/v1/analytic?"+aq.encode(), i, nil)
		if err != nil || status != 200 {
			t.Fatalf("%s analytic: status %d err %v", topo, status, err)
		}
		var got analyticResp
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		want, err := expectAnalytic(aq)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s analytic: server %+v, mirror %+v", topo, got, want)
		}
	}
}

// TestTailEstimateIsChecked runs one tail estimate and its checks.
func TestTailEstimateIsChecked(t *testing.T) {
	exact, err := tailExact()
	if err != nil {
		t.Fatal(err)
	}
	e := estimateTail(context.Background(), 1, 0, exact)
	if e.bad != "" {
		t.Fatal(e.bad)
	}
	if e.res.Replications < tailOptions().MinReps || e.res.Estimate.RareESS <= 0 {
		t.Fatalf("implausible estimate: %d replications, ESS %g", e.res.Replications, e.res.Estimate.RareESS)
	}
	if bad := estimateTail(context.Background(), 1, 0, 2*exact).bad; bad == "" {
		t.Fatal("an estimate checked against twice the exact answer passed")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists in step with the
// benchmark's declaration at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: code %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, decl.EndToEnd)
	check("per_layer", perLayer, decl.PerLayer)
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
	}
}
