package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sdnavail/internal/mc"
	"sdnavail/internal/server"
	"sdnavail/internal/sweep"
)

// The whatif_mc workload: /api/v1/mc what-ifs against one availd. Its
// traced run also sends the same requests to a coordinator in front of
// two workers, to measure the shard layer, and runs the rare-event pass
// (tail.go).

// mcResp is the part of the /api/v1/mc response the checks read.
type mcResp struct {
	CP             interval `json:"cp_availability"`
	SharedDP       interval `json:"shared_dp_availability"`
	HostDP         interval `json:"host_dp_availability"`
	Replications   int      `json:"replications"`
	Converged      bool     `json:"converged"`
	Truncated      bool     `json:"truncated"`
	Shards         int      `json:"shards"`
	ShardReassigns int      `json:"shard_reassigns"`
}

type interval struct {
	Mean      float64 `json:"mean"`
	HalfWidth float64 `json:"half_width"`
	Level     float64 `json:"level"`
}

// mcRig is the set of servers one MC pass talks to.
type mcRig struct {
	front   *node   // the node clients send requests to
	workers []*node // shard workers (sharded only)
	hc      *http.Client
}

// newMCRig starts the servers: one availd, or a coordinator (tapped as
// "shard.coord") in front of two workers. Handlers are tapped so the
// traced run can record their spans into rec.
func newMCRig(sharded bool, rec *recorder, seed int64) (*mcRig, error) {
	r := &mcRig{hc: newHTTPClient()}
	if !sharded {
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		if r.front, err = startNode(server.Config{}, ln, "server.handler", rec, headerReq); err != nil {
			return nil, err
		}
		return r, nil
	}
	// Workers see the coordinator's request, not the client's header: map
	// the simulation seed in their query back to the request index.
	workerReq := func(hr *http.Request) int {
		s, err := strconv.ParseInt(hr.URL.Query().Get("seed"), 10, 64)
		if err != nil {
			return -1
		}
		return indexOfSeed(seed, saltMC, s)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := listen()
		if err != nil {
			r.close()
			return nil, err
		}
		w, err := startNode(server.Config{}, ln, "shard.worker", rec, workerReq)
		if err != nil {
			r.close()
			return nil, err
		}
		r.workers = append(r.workers, w)
		urls = append(urls, w.base)
	}
	ln, err := listen()
	if err != nil {
		r.close()
		return nil, err
	}
	if r.front, err = startNode(server.Config{ShardWorkers: urls}, ln, "shard.coord", rec, headerReq); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *mcRig) close() {
	r.hc.CloseIdleConnections()
	for _, n := range append([]*node{r.front}, r.workers...) {
		if n != nil {
			_ = n.close() // an unclean shutdown of an idle loopback server loses nothing
		}
	}
}

func (r *mcRig) setTracing(on bool) {
	for _, n := range append([]*node{r.front}, r.workers...) {
		n.tap.tracing.Store(on)
	}
}

// warm opens both client connections and runs every combo once at a
// small budget. Its seeds do not depend on the workload seed, so every
// run sets up with the same work.
func (r *mcRig) warm() error {
	all := combos()
	errs, _ := closedLoop(clients, time.Time{}, len(all), func(i int) error {
		q := mcQuery{combo: all[i], Horizon: mcHorizon, Reps: 16, Seed: seedAt(0, saltWarm, i)}
		status, _, err := get(r.hc, r.front.base+"/api/v1/mc?"+q.encode(), -1, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm-up status %d", status)
		}
		return err
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serve runs the request list against the front node: until the
// deadline, or exactly limit requests when limit > 0. then, when non-nil,
// runs on the same client after each response.
func (r *mcRig) serve(seed int64, deadline time.Time, limit int, rec *recorder, then func(q mcQuery, s *sample)) ([]sample, time.Duration) {
	return closedLoop(clients, deadline, limit, func(i int) sample {
		q := mcRequest(seed, i)
		start := time.Now()
		status, body, err := get(r.hc, r.front.base+"/api/v1/mc?"+q.encode(), i, rec)
		s := sample{idx: i, lat: time.Since(start), body: body}
		s.bad = checkMC(status, body, err, q)
		if then != nil && s.bad == "" {
			then(q, &s)
		}
		return s
	})
}

// checkMC makes the checks every MC response gets: 200, not truncated,
// and exactly the requested replications.
func checkMC(status int, body []byte, err error, q mcQuery) string {
	if err != nil {
		return "transport: " + err.Error()
	}
	if status != http.StatusOK {
		return fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var m mcResp
	if err := json.Unmarshal(body, &m); err != nil {
		return "decode: " + err.Error()
	}
	if m.Truncated || m.Replications != q.Reps {
		return fmt.Sprintf("truncated=%v replications=%d want %d", m.Truncated, m.Replications, q.Reps)
	}
	return ""
}

// stripShardFields removes the lines a coordinator's answer may
// legitimately differ from a single node's in: timing and fan-out.
func stripShardFields(body []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.SplitAfter(body, []byte("\n")) {
		t := bytes.TrimSpace(line)
		if bytes.HasPrefix(t, []byte(`"elapsed_ms":`)) || bytes.HasPrefix(t, []byte(`"shards":`)) ||
			bytes.HasPrefix(t, []byte(`"shard_reassigns":`)) {
			continue
		}
		out.Write(line)
	}
	return out.Bytes()
}

// compareSharded fails each sharded response whose bytes differ from the
// single-node answer to the same query, apart from the lines the two may
// legitimately differ in.
func compareSharded(single, sharded []sample, o *outcome) {
	o.attempted += len(sharded)
	for k, s := range sharded {
		switch {
		case s.bad != "":
			o.fail("sharded request %d: %s", s.idx, s.bad)
		case single[k].bad != "":
			o.fail("sharded request %d: no single-node answer to compare with", s.idx)
		case !bytes.Equal(stripShardFields(s.body), stripShardFields(single[k].body)):
			o.fail("sharded request %d: response differs from single-node:\n%s\nvs\n%s", s.idx, s.body, single[k].body)
		}
	}
}

func countFailures(ss []sample, o *outcome) {
	o.attempted += len(ss)
	for _, s := range ss {
		if s.bad != "" {
			o.fail("request %d: %s", s.idx, s.bad)
		}
	}
}

// runMC runs whatif_mc.
func runMC(cfg runCfg) (*outcome, error) {
	rec := newRecorder()
	rig, setupS, err := timeSetup(func() (*mcRig, error) {
		r, err := newMCRig(false, rec, cfg.seed)
		if err != nil {
			return nil, err
		}
		if err := r.warm(); err != nil {
			r.close()
			return nil, err
		}
		return r, nil
	}, (*mcRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	o := &outcome{}
	if !cfg.trace {
		served, wall := rig.serve(cfg.seed, time.Now().Add(seconds(cfg.seconds)), 0, nil, nil)
		countFailures(served, o)
		lat := latenciesMS(served)
		endToEndMetrics(o, setupS, median(lat), percentile(lat, 90), float64(len(lat))/wall.Seconds())
		return o, nil
	}
	return tracedMC(cfg, rig, rec, o)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tracedMC is the traced run. It serves the list for half the run
// untraced, measuring the runtime and process CPU, then serves the same
// requests traced. After each traced response the same client replays
// the request twice, so replays meet the same contention as serving:
// through sweep.RunContext on the mirrored plan (span "sweep.run"), whose
// estimate must be bit-equal to the HTTP answer, and through an explicit
// mc.Session loop (spans "mc.session" ⊃ "mc.session_build",
// "mc.replicate") that counts events. Last, tracedShard sends the same
// requests through a coordinator and two workers, and tracedRare makes
// rare-event estimates.
func tracedMC(cfg runCfg, rig *mcRig, rec *recorder, o *outcome) (*outcome, error) {
	probe := startProbe()
	plain, plainWall := rig.serve(cfg.seed, time.Now().Add(seconds(cfg.seconds/2)), 0, nil, nil)
	rt := probe.end()
	n := len(plain)
	countFailures(plain, o)

	before, err := scrape(rig.hc, rig.front.base)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var reps, events, loopNS float64
	byTopo, repsByTopo := map[string]float64{}, map[string]float64{}
	rig.setTracing(true)
	traced, _ := rig.serve(cfg.seed, time.Time{}, n, rec, func(q mcQuery, s *sample) {
		if s.bad = replaySweep(q, s, rec); s.bad != "" {
			return
		}
		ev, loop, err := replaySession(q, s.idx, rec)
		if err != nil {
			s.bad = err.Error()
			return
		}
		mu.Lock()
		defer mu.Unlock()
		reps += float64(q.Reps)
		events += float64(ev)
		loopNS += float64(loop.Nanoseconds())
		byTopo[q.Topology] += float64(loop.Nanoseconds())
		repsByTopo[q.Topology] += float64(q.Reps)
	})
	rig.setTracing(false)
	after, err := scrape(rig.hc, rig.front.base)
	if err != nil {
		return nil, err
	}
	countFailures(traced, o)
	allocs, bytes, err := allocsPerRep(cfg.seed)
	if err != nil {
		return nil, err
	}

	spans, err := saveSpans(cfg, "whatif_mc", rec, map[string]string{"server.handler": "client"})
	if err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	type reqSpans struct{ client, handler, sweepRun, session, build, replicate float64 }
	per := make(map[int]*reqSpans, n)
	at := func(i int) *reqSpans {
		if per[i] == nil {
			per[i] = &reqSpans{}
		}
		return per[i]
	}
	var transport, handler []float64
	for i, sp := range spans {
		d := float64(sp.dur()) / 1e6
		r := at(sp.Req)
		switch sp.Name {
		case "client":
			r.client = d
			transport = append(transport, float64(self[i])/1e6)
		case "server.handler":
			r.handler = d
			handler = append(handler, d)
		case "sweep.run":
			r.sweepRun = d
		case "mc.session":
			r.session = d
		case "mc.session_build":
			r.build = d
		case "mc.replicate":
			r.replicate = d
		}
	}
	var serverSelf, sweepRun, sweepSelf, build, closure, roundTrip []float64
	for _, s := range traced {
		r := at(s.idx)
		serverSelf = append(serverSelf, r.handler-r.sweepRun)
		sweepRun = append(sweepRun, r.sweepRun)
		sweepSelf = append(sweepSelf, r.sweepRun-r.session)
		build = append(build, r.build*1e3)
		roundTrip = append(roundTrip, r.client)
		// net.transport + server.self + sweep.self + Σ mc.rep
		closure = append(closure, (r.client-r.handler)+(r.handler-r.sweepRun)+(r.sweepRun-r.session)+r.replicate)
	}

	m := map[string]float64{
		"net.transport_ms":     median(transport),
		"net.resp_bytes":       meanBodyBytes(traced),
		"server.handler_ms":    median(handler),
		"server.self_ms":       median(serverSelf),
		"server.shed_frac":     (after["mc_shed_total"] - before["mc_shed_total"]) / float64(n),
		"sweep.run_ms":         median(sweepRun),
		"sweep.self_ms":        median(sweepSelf),
		"mc.session_build_us":  median(build),
		"mc.events_per_rep":    events / reps,
		"mc.ns_per_event":      loopNS / events,
		"mc.allocs_per_rep":    allocs,
		"mc.bytes_per_rep":     bytes,
		"runtime.gc_cpu_frac":  rt.gcCPUFrac,
		"runtime.heap_peak_mb": rt.heapPeakMB,
		"proc.cpu_ms_per_req":  ms(rt.cpu) / float64(n),
		"trace.overhead_frac":  median(latenciesMS(traced))/median(latenciesMS(plain)) - 1,
	}
	for _, t := range topologies {
		m["mc.rep_us."+t] = byTopo[t] / repsByTopo[t] / 1e3
	}
	o.metrics = m
	o.note("traced %d requests; untraced p50 %.3f ms, traced p50 %.3f ms (tracing overhead %+.2f%%)",
		n, median(latenciesMS(plain)), median(latenciesMS(traced)), 100*m["trace.overhead_frac"])
	o.note("every HTTP estimate bit-equal to its sweep.RunContext replay")
	o.note("closure: median(net.transport + server.self + sweep.self + sum mc.rep) = %.3f ms vs median round trip %.3f ms (%+.2f%%)",
		median(closure), median(roundTrip), 100*(median(closure)/median(roundTrip)-1))
	if err := decomposeReference(rig, rec, o); err != nil {
		return nil, err
	}
	if err := tracedShard(cfg, plain, plainWall, o); err != nil {
		return nil, err
	}
	if err := tracedRare(cfg, o); err != nil {
		return nil, err
	}
	return o, nil
}

// tracedShard measures the shard layer: it sends the requests the
// untraced pass served, traced, through a coordinator in front of two
// in-process workers, and checks every response byte for byte against
// the single-node answer to the same query.
func tracedShard(cfg runCfg, single []sample, singleWall time.Duration, o *outcome) error {
	rec := newRecorder()
	rig, err := newMCRig(true, rec, cfg.seed)
	if err != nil {
		return err
	}
	defer rig.close()
	if err := rig.warm(); err != nil {
		return err
	}
	before, err := scrape(rig.hc, rig.front.base)
	if err != nil {
		return err
	}
	n := len(single)
	rig.setTracing(true)
	sharded, wall := rig.serve(cfg.seed, time.Time{}, n, rec, nil)
	rig.setTracing(false)
	after, err := scrape(rig.hc, rig.front.base)
	if err != nil {
		return err
	}
	compareSharded(single, sharded, o)

	spans, err := saveSpans(cfg, "whatif_mc-sharded", rec, map[string]string{
		"shard.coord": "client", "shard.worker": "shard.coord",
	})
	if err != nil {
		return err
	}
	coord, workerMax := map[int]float64{}, map[int]float64{}
	var workerMS []float64
	for _, sp := range spans {
		d := float64(sp.dur()) / 1e6
		switch sp.Name {
		case "shard.coord":
			coord[sp.Req] = d
		case "shard.worker":
			workerMS = append(workerMS, d)
			workerMax[sp.Req] = max(workerMax[sp.Req], d)
		}
	}
	var coordSelf []float64
	for _, s := range sharded {
		coordSelf = append(coordSelf, coord[s.idx]-workerMax[s.idx])
	}
	calls := float64(rig.workers[0].tap.calls.Load() + rig.workers[1].tap.calls.Load())
	wbytes := float64(rig.workers[0].tap.bytes.Load() + rig.workers[1].tap.bytes.Load())
	o.metrics["shard.calls_per_req"] = calls / float64(n)
	o.metrics["shard.worker_ms"] = median(workerMS)
	o.metrics["shard.resp_bytes"] = wbytes / calls
	o.metrics["shard.coord_self_ms"] = median(coordSelf)
	o.metrics["shard.reassigns"] = after["availd_shard_reassigns_total"] - before["availd_shard_reassigns_total"]
	o.note("sharded (coordinator + 2 in-process workers, traced): p50 %.3f ms vs single-node untraced %.3f ms; throughput %.2fx single-node",
		median(latenciesMS(sharded)), median(latenciesMS(single)), singleWall.Seconds()/wall.Seconds())
	o.note("sharded: every response byte-equal to the single-node answer except elapsed_ms/shards/shard_reassigns")
	return nil
}

// replaySweep reruns q through sweep.RunContext on the mirrored plan and
// returns why the served answer differs from it, "" when bit-equal.
func replaySweep(q mcQuery, s *sample, rec *recorder) string {
	cfg, opt, err := mcPlan(q)
	if err != nil {
		return err.Error()
	}
	start := time.Now()
	res, err := sweep.RunContext(context.Background(), []sweep.Point{{ID: "what-if", Config: cfg}}, opt)
	rec.record("sweep.run", s.idx, start, time.Now())
	if err != nil {
		return err.Error()
	}
	var got mcResp
	if err := json.Unmarshal(s.body, &got); err != nil {
		return "decode: " + err.Error()
	}
	e := res[0].Estimate
	want := mcResp{
		CP:           interval{e.CP.Mean, e.CP.HalfWide, e.CP.Level},
		SharedDP:     interval{e.SharedDP.Mean, e.SharedDP.HalfWide, e.SharedDP.Level},
		HostDP:       interval{e.HostDP.Mean, e.HostDP.HalfWide, e.HostDP.Level},
		Replications: res[0].Replications,
		Converged:    res[0].Converged,
		Truncated:    res[0].Truncated,
		Shards:       got.Shards, ShardReassigns: got.ShardReassigns,
	}
	if got != want {
		return fmt.Sprintf("HTTP estimate %+v != sweep replay %+v", got, want)
	}
	return ""
}

// replaySession reruns q's replications through an explicit mc.Session
// loop and returns the events simulated and the loop's duration.
func replaySession(q mcQuery, idx int, rec *recorder) (int, time.Duration, error) {
	cfg, _, err := mcPlan(q)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	ss, err := mc.NewSession(cfg)
	if err != nil {
		return 0, 0, err
	}
	built := time.Now()
	events := 0
	for rep := 0; rep < q.Reps; rep++ {
		events += ss.Replicate(rep).Events
	}
	end := time.Now()
	rec.record("mc.session_build", idx, start, built)
	rec.record("mc.replicate", idx, built, end)
	rec.record("mc.session", idx, start, end)
	return events, end.Sub(built), nil
}

// allocsPerRep measures the mc layer's heap allocations: one session per
// topology, replicated on this goroutine alone while the servers are
// idle, bracketed by MemStats. It returns allocations and bytes per
// replication.
func allocsPerRep(seed int64) (float64, float64, error) {
	var ms0, ms1 runtime.MemStats
	total := 0
	runtime.ReadMemStats(&ms0)
	for i, t := range topologies {
		q := mcQuery{combo: combo{t, 2, 3}, Horizon: mcHorizon, Reps: mcReps, Seed: seedAt(seed, saltAlloc, i)}
		cfg, _, err := mcPlan(q)
		if err != nil {
			return 0, 0, err
		}
		ss, err := mc.NewSession(cfg)
		if err != nil {
			return 0, 0, err
		}
		for rep := 0; rep < q.Reps; rep++ {
			ss.Replicate(rep)
		}
		total += q.Reps
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(total), float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(total), nil
}

func meanBodyBytes(ss []sample) float64 {
	t := 0
	for _, s := range ss {
		t += len(s.body)
	}
	return float64(t) / float64(len(ss))
}

// scrape reads a server's /metrics counters.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	status, body, err := get(hc, base+"/metrics", -1, nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("scrape %s/metrics: status %d: %v", base, status, err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// decomposeReference splits one request of the BENCH_availd.json shape
// (topology large, horizon 2e4, 1024 replications, seed 1), sent alone,
// into net/server/sweep/mc self times. The HTTP request, the sweep replay
// and the Session loop are measured back to back five times, in a
// rotating order so drift in the host's speed does not favour one of
// them; each self time is the median over the five of its difference
// within one repetition.
func decomposeReference(rig *mcRig, rec *recorder, o *outcome) error {
	q := mcQuery{combo: combo{"large", 2, 3}, Horizon: 2e4, Reps: 1024, Seed: 1}
	cfgMC, opt, err := mcPlan(q)
	if err != nil {
		return err
	}
	var roundTrip, handler, netMS, sweepMS, loopMS []float64
	measure := []func(k int) error{
		func(k int) error {
			id := 1<<30 + k // outside the request list
			start := time.Now()
			status, body, err := get(rig.hc, rig.front.base+"/api/v1/mc?"+q.encode(), id, rec)
			rt := ms(time.Since(start))
			if bad := checkMC(status, body, err, q); bad != "" {
				return fmt.Errorf("reference request: %s", bad)
			}
			for _, sp := range rec.snapshot() {
				if sp.Name == "server.handler" && sp.Req == id {
					h := float64(sp.dur()) / 1e6
					roundTrip, handler, netMS = append(roundTrip, rt), append(handler, h), append(netMS, rt-h)
				}
			}
			return nil
		},
		func(int) error {
			start := time.Now()
			_, err := sweep.RunContext(context.Background(), []sweep.Point{{ID: "what-if", Config: cfgMC}}, opt)
			sweepMS = append(sweepMS, ms(time.Since(start)))
			return err
		},
		func(int) error {
			start := time.Now()
			ss, err := mc.NewSession(cfgMC)
			if err != nil {
				return err
			}
			for rep := 0; rep < q.Reps; rep++ {
				ss.Replicate(rep)
			}
			loopMS = append(loopMS, ms(time.Since(start)))
			return nil
		},
	}
	rig.setTracing(true)
	defer rig.setTracing(false)
	for k := 0; k < 5; k++ {
		for j := range measure {
			if err := measure[(k+j)%len(measure)](k); err != nil {
				return err
			}
		}
	}
	var serverMS, sweepSelf []float64
	for k := range handler {
		serverMS = append(serverMS, handler[k]-sweepMS[k])
		sweepSelf = append(sweepSelf, sweepMS[k]-loopMS[k])
	}
	o.note("BENCH_availd-shaped request (large, horizon 2e4, 1024 reps, seed 1, sent alone; nproc %d, GOMAXPROCS %d), medians of 5: "+
		"round trip %.1f ms = net %.2f + server %.2f + sweep %.2f + mc %.1f ms; BENCH_availd.json recorded p50 741 ms at cpus 1 with 2 clients",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), median(roundTrip), median(netMS),
		median(serverMS), median(sweepSelf), median(loopMS))
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
