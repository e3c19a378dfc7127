package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"sdnavail/internal/server"
)

// The whatif_analytic workload: closed-form what-ifs against one availd,
// nine in ten from a hot set the memo already holds.

type analyticRig struct {
	node *node
	hc   *http.Client
	// hot holds the expected answer for each hot key.
	hot map[analyticQuery]analyticResp
}

func (r *analyticRig) close() {
	r.hc.CloseIdleConnections()
	_ = r.node.close() // an unclean shutdown of an idle loopback server loses nothing
}

// anSample is one served analytic request. It is kept to 8 bytes: the
// workload serves tens of thousands of requests a second, and the run's
// peak RSS, a reported metric, should reflect the server rather than the
// benchmark's bookkeeping.
type anSample struct {
	latMS  float32
	size   uint16
	cached bool
}

// analyticRound is the number of requests in one round of the untraced
// run. Latencies are summarized per round, so the benchmark's memory does
// not grow with the server's throughput.
const analyticRound = 10000

// serve sends requests first, first+1, ... first+n-1 of the list. Every answer is checked while serving against
// a direct analytic.Model.Evaluate of its query: precomputed for the hot
// set, evaluated on the spot for a fresh key.
//
// With rec non-nil the run is traced, and after each memo miss the same
// client replays the model evaluation the handler ran (span
// "analytic.eval"); a hit computes nothing.
func (r *analyticRig) serve(seed int64, first, n int, rec *recorder, o *outcome) ([]anSample, time.Duration) {
	return closedLoop(analyticClients, time.Time{}, n, func(i int) anSample {
		i += first
		q, hot := analyticRequest(seed, i)
		start := time.Now()
		status, body, err := get(r.hc, r.node.base+"/api/v1/analytic?"+q.encode(), i, rec)
		s := anSample{latMS: float32(ms(time.Since(start))), size: uint16(min(len(body), math.MaxUint16))}
		if err != nil || status != http.StatusOK {
			o.fail("request %d: status %d err %v: %s", i, status, err, body)
			return s
		}
		var got analyticResp
		if err := json.Unmarshal(body, &got); err != nil {
			o.fail("request %d: decode: %v", i, err)
			return s
		}
		s.cached, got.Cached = got.Cached, false
		want, ok := r.hot[q]
		if !hot || !ok {
			if want, err = expectAnalytic(q); err != nil {
				o.fail("request %d: %v", i, err)
				return s
			}
		}
		if got != want {
			o.fail("request %d: answer %+v, direct evaluation %+v", i, got, want)
		}
		if rec != nil && !s.cached {
			m, err := analyticModel(q)
			if err != nil {
				return s // the check above has failed it
			}
			start := time.Now()
			m.Evaluate()
			m.SharedDP()
			rec.record("analytic.eval", i, start, time.Now())
		}
		return s
	})
}

// serveRounds serves consecutive rounds of the list until the deadline
// (at least one) and returns each round's median and 90th percentile
// latency and throughput, and the requests served.
func (r *analyticRig) serveRounds(seed int64, deadline time.Time, o *outcome) (p50, p90, perS []float64, n int) {
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		ss, wall := r.serve(seed, round*analyticRound, analyticRound, nil, o)
		lat := anLatMS(ss)
		p50 = append(p50, median(lat))
		p90 = append(p90, percentile(lat, 90))
		perS = append(perS, float64(len(ss))/wall.Seconds())
		n += len(ss)
	}
	return p50, p90, perS, n
}

func anLatMS(ss []anSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.latMS)
	}
	return out
}

func runAnalytic(cfg runCfg) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(analyticProcs))
	rec := newRecorder()
	rig, setupS, err := timeSetup(func() (*analyticRig, error) {
		ln, err := listen()
		if err != nil {
			return nil, err
		}
		n, err := startNode(server.Config{}, ln, "server.handler", rec, headerReq)
		if err != nil {
			return nil, err
		}
		r := &analyticRig{node: n, hc: newHTTPClient(), hot: map[analyticQuery]analyticResp{}}
		for k := 0; k < hotKeys; k++ {
			q := hotKey(cfg.seed, k)
			if r.hot[q], err = expectAnalytic(q); err != nil {
				r.close()
				return nil, err
			}
		}
		// Fill the memo with the hot set.
		warm, _ := closedLoop(analyticClients, time.Time{}, hotKeys, func(k int) error {
			status, _, err := get(r.hc, n.base+"/api/v1/analytic?"+hotKey(cfg.seed, k).encode(), -1, nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			return err
		})
		for _, err := range warm {
			if err != nil {
				r.close()
				return nil, fmt.Errorf("memo warm-up: %w", err)
			}
		}
		return r, nil
	}, (*analyticRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	o := &outcome{}
	o.note("served by %d client with GOMAXPROCS %d", analyticClients, runtime.GOMAXPROCS(0))
	if !cfg.trace {
		p50, p90, perS, n := rig.serveRounds(cfg.seed, time.Now().Add(seconds(cfg.seconds)), o)
		o.attempted = n
		endToEndMetrics(o, setupS, median(p50), median(p90), median(perS))
		o.note("%d rounds of %d requests; p50_ms, p90_ms and ops_per_s are medians over rounds (round p50 %.4f to %.4f ms)",
			len(p50), analyticRound, percentile(p50, 0), percentile(p50, 100))
		o.note("every answer equal to a direct analytic.Model.Evaluate")
		return o, nil
	}

	probe := startProbe()
	plainP50, _, _, n := rig.serveRounds(cfg.seed, time.Now().Add(seconds(cfg.seconds/2)), o)
	rt := probe.end()
	before, err := scrape(rig.hc, rig.node.base)
	if err != nil {
		return nil, err
	}
	rig.node.tap.tracing.Store(true)
	traced, _ := rig.serve(cfg.seed, 0, n, rec, o)
	rig.node.tap.tracing.Store(false)
	after, err := scrape(rig.hc, rig.node.base)
	if err != nil {
		return nil, err
	}
	o.attempted = 2 * n

	spans, err := saveSpans(cfg, "whatif_analytic", rec, map[string]string{"server.handler": "client"})
	if err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	evalOf := map[int]float64{}
	handlerOf := map[int]float64{}
	var transport, handler, eval []float64
	for i, sp := range spans {
		d := float64(sp.dur()) / 1e6
		switch sp.Name {
		case "client":
			transport = append(transport, float64(self[i])/1e6)
		case "server.handler":
			handler = append(handler, d)
			handlerOf[sp.Req] = d
		case "analytic.eval":
			evalOf[sp.Req] = d
			eval = append(eval, d*1e3)
		}
	}
	var serverSelf []float64
	var bytes float64
	for i, s := range traced {
		serverSelf = append(serverSelf, handlerOf[i]-evalOf[i])
		bytes += float64(s.size)
	}
	hits := after["cache_hits_total"] - before["cache_hits_total"]
	misses := after["cache_misses_total"] - before["cache_misses_total"]
	o.metrics = map[string]float64{
		"net.transport_ms":      median(transport),
		"net.resp_bytes":        bytes / float64(n),
		"server.handler_ms":     median(handler),
		"server.self_ms":        median(serverSelf),
		"server.memo_hit_ratio": hits / (hits + misses),
		"server.shed_frac":      (after["mc_shed_total"] - before["mc_shed_total"]) / float64(n),
		"analytic.eval_us":      median(eval),
		"runtime.gc_cpu_frac":   rt.gcCPUFrac,
		"runtime.heap_peak_mb":  rt.heapPeakMB,
		"proc.cpu_ms_per_req":   ms(rt.cpu) / float64(n),
		"trace.overhead_frac":   median(anLatMS(traced))/median(plainP50) - 1,
	}
	o.note("traced %d requests (%d memo misses); untraced p50 %.4f ms, traced p50 %.4f ms (tracing overhead %+.2f%%)",
		n, len(eval), median(plainP50), median(anLatMS(traced)), 100*o.metrics["trace.overhead_frac"])
	o.note("every answer equal to a direct analytic.Model.Evaluate")
	return o, nil
}
