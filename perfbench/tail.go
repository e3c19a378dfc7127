package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"sdnavail/internal/mc"
	"sdnavail/internal/sweep"
)

// The rare-event pass of whatif_mc's traced run: deep-tail CP
// unavailability estimates from the rare-event engine through
// sweep.RunContext, one point at a time, each run until 10% relative
// error at 99% confidence and checked against the exact birth-death
// solution. It measures the mc.rare layer. It is not a workload of its
// own: its wall time follows the host's speed far more than the other
// workloads' do (see README.md).

// tailEstimate is one timed estimate.
type tailEstimate struct {
	idx int
	lat time.Duration
	res sweep.Result
	bad string
}

// estimateTail runs estimate k of the list and checks it: converged, not
// truncated, and within four half-widths of exact.
func estimateTail(ctx context.Context, seed int64, k int, exact float64) tailEstimate {
	pt := sweep.Point{ID: "kofn-2of3", Config: tailConfig(seedAt(seed, saltTail, k))}
	start := time.Now()
	res, err := sweep.RunContext(ctx, []sweep.Point{pt}, tailOptions())
	e := tailEstimate{idx: k, lat: time.Since(start)}
	if err != nil {
		e.bad = err.Error()
		return e
	}
	e.res = res[0]
	ci := e.res.Estimate.CPUnavailability
	switch {
	case !e.res.Converged || e.res.Truncated:
		e.bad = fmt.Sprintf("not converged after %d replications", e.res.Replications)
	case math.Abs(ci.Mean-exact) > 4*ci.HalfWide:
		e.bad = fmt.Sprintf("estimate %.4e ± %.1e is more than 4 half-widths from exact %.4e", ci.Mean, ci.HalfWide, exact)
	}
	return e
}

func tailLatMS(es []tailEstimate) []float64 {
	out := make([]float64, len(es))
	for i, e := range es {
		out[i] = ms(e.lat)
	}
	return out
}

func countTail(es []tailEstimate, o *outcome) {
	o.attempted += len(es)
	for _, e := range es {
		if e.bad != "" {
			o.fail("estimate %d: %s", e.idx, e.bad)
		}
	}
}

// rareEstimates is the number of estimates the rare-event pass makes.
const rareEstimates = 16

// tracedRare runs the rare-event pass and adds the mc.rare metrics to o.
// After each estimate it replays the estimate's replications through an
// explicit mc.Session loop, timed as one span.
func tracedRare(cfg runCfg, o *outcome) error {
	ctx := context.Background()
	exact, err := tailExact()
	if err != nil {
		return err
	}
	rec := newRecorder()
	var es []tailEstimate
	var repUS, reps, ess, splits, kills, sweepSelf []float64
	for k := 0; k < rareEstimates; k++ {
		start := time.Now()
		e := estimateTail(ctx, cfg.seed, k, exact)
		rec.record("sweep.run", k, start, time.Now())
		es = append(es, e)
		if e.bad != "" {
			continue
		}
		start = time.Now()
		ss, err := mc.NewSession(tailConfig(seedAt(cfg.seed, saltTail, k)))
		if err != nil {
			return err
		}
		built := time.Now()
		n := e.res.Replications
		for rep := 0; rep < n; rep++ {
			ss.Replicate(rep)
		}
		end := time.Now()
		rec.record("mc.session_build", k, start, built)
		rec.record("mc.rare.replicate", k, built, end)
		rec.record("mc.session", k, start, end)
		est := e.res.Estimate
		repUS = append(repUS, float64(end.Sub(built).Nanoseconds())/1e3/float64(n))
		reps = append(reps, float64(n))
		ess = append(ess, est.RareESS/float64(n))
		splits = append(splits, float64(est.RareSplits)/float64(n))
		kills = append(kills, float64(est.RareKills)/float64(est.RareSplits))
		sweepSelf = append(sweepSelf, ms(e.lat)-ms(end.Sub(start)))
	}
	countTail(es, o)
	if _, err := saveSpans(cfg, "whatif_mc-rare", rec, map[string]string{}); err != nil {
		return err
	}
	o.metrics["mc.rare.rep_us"] = median(repUS)
	o.metrics["mc.rare.reps_to_target"] = median(reps)
	o.metrics["mc.rare.ess_frac"] = median(ess)
	o.metrics["mc.rare.splits_per_rep"] = median(splits)
	o.metrics["mc.rare.kills_per_split"] = median(kills)
	o.note("rare-event pass: %d estimates of exact unavailability %.4e, each converged and within 4 half-widths; tail_s (median time to a converged estimate) %.4f s, of which sweep self %.2f ms",
		len(es), exact, median(tailLatMS(es))/1e3, median(sweepSelf))
	return nil
}
