package mc

import "sdnavail/internal/stats"

// Fold accumulates replication Results into an Estimate. It is the one
// fold every execution path uses: Run's ordered reducer, a sweep point's
// in-process round loop, and a sharded run merging samples that worker
// processes produced. Bit-identical merging across those paths depends on
// all of them adding replications to the same accumulators in ascending
// global replication order with the same arithmetic, so the fold lives
// here once instead of being re-derived per path.
type Fold struct {
	requested                    int
	n                            int
	cp, sdp, dp, elec, wrongRead stats.Accumulator
	cpU                          stats.WeightedAccumulator
	cpModes, dpModes             map[string]float64
	elections                    int
	electionHours                float64
	rarePaths                    int
	rareSplits                   int
	rareKills                    int
	sumW, hitW                   float64
	results                      []Result
}

// NewFold builds a fold. keep retains every folded Result, in fold order,
// on the Estimate (the Config.KeepResults contract).
//
// requested selects the per-mode downtime arithmetic. A positive count is
// Run's: each replication's hours are divided by the requested count as
// they fold, and a run that folds fewer (cancelled mid-way) is rescaled to
// the folded count. Zero is the sweep's, whose count is not known in
// advance: hours are summed and divided by the folded count when the
// estimate is taken. Both mean "downtime hours per replication"; they
// differ only in floating-point rounding.
func NewFold(keep bool, requested int) *Fold {
	f := &Fold{
		requested: requested,
		cpModes:   map[string]float64{},
		dpModes:   map[string]float64{},
	}
	if keep {
		f.results = make([]Result, 0, requested)
	}
	return f
}

// Add folds one replication. Callers must add replications in ascending
// global index order: the Welford updates and the per-mode sums are
// floating-point, hence order-sensitive, and ascending order is what makes
// every execution path fold to the same bits.
func (f *Fold) Add(res Result) {
	f.n++
	f.cp.Add(res.CPAvailability)
	f.sdp.Add(res.SharedDPAvailability)
	f.dp.Add(res.HostDPAvailability)
	// The weighted fold: each replication's unavailability estimate is
	// unbiased on its own, so the estimator is the plain mean of the
	// samples; feeding (U/W, W) keeps that mean exact while letting the
	// terminal weights drive the effective-sample-size diagnostic. An
	// unbiased run has W = 1 everywhere and degrades to the plain fold.
	w := res.RareTotalWeight
	if w <= 0 {
		w = 1
	}
	f.cpU.Add(res.CPUnavailability/w, w)
	f.sumW += w
	f.hitW += res.RareHitWeight
	f.rarePaths += res.RarePaths
	f.rareSplits += res.RareSplits
	f.rareKills += res.RareKills
	f.elec.Add(res.CPElectionDowntime / res.Hours)
	f.wrongRead.Add(res.CPWrongReadDowntime / res.Hours)
	f.elections += res.LeaderElections
	f.electionHours += res.ElectionHoursTotal
	f.addModes(f.cpModes, res.CPDowntimeByMode)
	f.addModes(f.dpModes, res.DPDowntimeByMode)
	if f.results != nil {
		f.results = append(f.results, res)
	}
}

// addModes folds one replication's per-mode downtime hours into sums, in
// the arithmetic NewFold's requested count selected.
func (f *Fold) addModes(sums, hours map[string]float64) {
	for m, h := range hours {
		if f.requested > 0 {
			h /= float64(f.requested)
		}
		sums[m] += h
	}
}

// Estimate snapshots the fold at the given confidence level. It leaves the
// fold untouched — the per-mode maps are copied before normalization — so
// a caller can take progress snapshots mid-run and keep folding. Truncated
// is set when a positive requested count was not reached.
func (f *Fold) Estimate(level float64) Estimate {
	est := Estimate{
		CP:                        f.cp.ConfidenceInterval(level),
		SharedDP:                  f.sdp.ConfidenceInterval(level),
		HostDP:                    f.dp.ConfidenceInterval(level),
		CPUnavailability:          f.cpU.ConfidenceInterval(level),
		RareESS:                   f.cpU.ESS(),
		RarePaths:                 f.rarePaths,
		RareSplits:                f.rareSplits,
		RareKills:                 f.rareKills,
		CPDowntimeByMode:          f.modeMeans(f.cpModes),
		DPDowntimeByMode:          f.modeMeans(f.dpModes),
		CPElectionUnavailability:  f.elec.ConfidenceInterval(level),
		CPWrongReadUnavailability: f.wrongRead.ConfidenceInterval(level),
		Elections:                 f.elections,
		Replications:              f.n,
		Truncated:                 f.n < f.requested,
		Results:                   f.results,
	}
	// The self-normalized hit probability (0 when nothing folded).
	if f.sumW > 0 {
		est.RareHitProb = f.hitW / f.sumW
	}
	if f.elections > 0 {
		est.MeanElectionHours = f.electionHours / float64(f.elections)
	}
	return est
}

// modeMeans turns per-mode downtime sums into per-replication means.
func (f *Fold) modeMeans(sums map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(sums))
	for m, h := range sums {
		switch {
		case f.requested == 0:
			h /= float64(f.n)
		case f.n < f.requested:
			h *= float64(f.requested) / float64(f.n)
		}
		out[m] = h
	}
	return out
}
