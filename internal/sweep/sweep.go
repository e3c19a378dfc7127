// Package sweep runs parameter sweeps of the Monte Carlo simulator with
// adaptive precision. Sweep points fan out across a shared worker pool,
// and within each point a sequential-stopping rule replicates only until
// the control-plane availability confidence interval is tight enough —
// cheap points (tight variance) stop at the floor, hard points (wide
// variance) run on to the ceiling, so a whole figure costs what its
// hardest series demands instead of every point paying the worst case.
//
// Determinism: replications within a point always run in index order
// through one pooled mc.Session, the stopping rule is checked only at
// fixed replication counts (MinReps, then every Batch), and each point's
// fold is self-contained — so the output is bit-identical whatever the
// worker count or scheduling, and re-running a sweep reproduces it
// exactly.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sdnavail/internal/mc"
	"sdnavail/internal/stats"
)

// Options tunes the adaptive engine. The zero value of any field selects
// the default noted on it.
type Options struct {
	// Confidence is the CI level for both the stopping rule and the
	// reported intervals (default 0.99).
	Confidence float64
	// CITarget is the sequential-stopping threshold: a point stops
	// replicating once the CP availability half-width is ≤ CITarget
	// (checked at MinReps and then every Batch replications). Zero
	// disables the absolute rule.
	CITarget float64
	// RelTarget is the relative-error stopping threshold for deep tails:
	// a point stops once the CP *unavailability* half-width divided by its
	// mean is ≤ RelTarget — the natural rule for rare-event runs, where
	// any fixed absolute width is either unreachable or trivially met.
	// The rule only fires once the weighted effective sample size has
	// cleared MinReps, so a degenerate biasing schedule cannot stop on a
	// deceptively narrow interval. Zero disables the relative rule; when
	// both targets are zero every point runs exactly MaxReps.
	RelTarget float64
	// MinReps is the floor before the first stopping check (default 64).
	// The Welford variance needs a real sample before the half-width
	// means anything.
	MinReps int
	// MaxReps is the ceiling (default 4096). A point that has not met
	// CITarget by then reports Converged=false.
	MaxReps int
	// Batch is the replication count between stopping checks after the
	// floor (default 32).
	Batch int
	// Workers sizes the shared pool that sweep points fan out across
	// (default GOMAXPROCS, never more than the point count).
	Workers int
	// Progress, when non-nil, observes the run mid-flight: it is called
	// with the point's index and a partial Result at a geometric schedule
	// of replication counts (the first snapshot lands by MinReps and by 5%
	// of MaxReps, whichever is earlier). Snapshots are taken between
	// replications and never alter the fold, so a run with Progress set is
	// bit-identical to one without. The callback runs on the point's
	// worker goroutine; callbacks for different points may be concurrent.
	Progress func(point int, partial Result) `json:"-"`
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.Confidence == 0 {
		o.Confidence = 0.99
	}
	if o.MinReps == 0 {
		o.MinReps = 64
		// A caller-set ceiling below the default floor wins: the floor
		// only exists to give the variance a real sample.
		if o.MaxReps != 0 && o.MaxReps < o.MinReps {
			o.MinReps = o.MaxReps
		}
	}
	if o.MaxReps == 0 {
		o.MaxReps = 4096
	}
	if o.Batch == 0 {
		o.Batch = 32
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Validate reports the first problem with the options.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.Confidence <= 0 || o.Confidence >= 1 {
		return fmt.Errorf("sweep: confidence %g outside (0, 1)", o.Confidence)
	}
	if o.CITarget < 0 {
		return fmt.Errorf("sweep: CI target %g is negative", o.CITarget)
	}
	if o.RelTarget < 0 {
		return fmt.Errorf("sweep: relative-error target %g is negative", o.RelTarget)
	}
	if o.MinReps < 2 {
		return fmt.Errorf("sweep: MinReps %d < 2 (variance needs two samples)", o.MinReps)
	}
	if o.MaxReps < o.MinReps {
		return fmt.Errorf("sweep: MaxReps %d < MinReps %d", o.MaxReps, o.MinReps)
	}
	if o.Batch < 1 {
		return fmt.Errorf("sweep: Batch %d < 1", o.Batch)
	}
	return nil
}

// Point is one sweep point: a simulator configuration with its axis
// coordinate and label.
type Point struct {
	// ID labels the point in results (series name, option label, …).
	ID string
	// X is the point's coordinate on the sweep axis.
	X float64
	// Config is the full simulator configuration for this point. Leave
	// KeepResults false for memory-flat sweeps; set it when the caller
	// needs the per-replication Results on the estimate.
	Config mc.Config
}

// Result is one point's outcome.
type Result struct {
	Point Point
	// Estimate aggregates the replications actually run, at
	// Options.Confidence.
	Estimate mc.Estimate
	// Replications is how many the stopping rule spent on this point.
	Replications int
	// Converged reports whether the point met CITarget (always true when
	// adaptation is disabled — the fixed count is the contract).
	Converged bool
	// Truncated reports that the sweep's context expired before this point
	// finished: the estimate aggregates the replications that completed
	// (possibly zero), with the honest CI half-width of that partial
	// sample, and Converged is false.
	Truncated bool
}

// Run sweeps the points. The slice order of the results matches the
// input; every point is validated before any replication runs.
func Run(points []Point, opt Options) ([]Result, error) {
	return RunContext(context.Background(), points, opt)
}

// RunContext is Run with a deadline: when ctx expires, every point stops
// at its next cancellation check (between replication batches, and every
// few thousand simulated events within one replication) and reports what
// it measured so far flagged Truncated — a deadlined what-if query gets
// its partial estimate with a CI half-width rather than nothing.
func RunContext(ctx context.Context, points []Point, opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: no points")
	}
	sessions := make([]*mc.Session, len(points))
	for i, p := range points {
		ss, err := mc.NewSession(p.Config)
		if err != nil {
			return nil, fmt.Errorf("sweep: point %d (%s): %w", i, p.ID, err)
		}
		sessions[i] = ss
	}

	workers := opt.Workers
	if workers > len(points) {
		workers = len(points)
	}
	if workers < 1 {
		workers = 1
	}
	results := make([]Result, len(points))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				results[i] = runPoint(ctx, i, points[i], sessions[i], opt)
			}
		}()
	}
	wg.Wait()
	return results, nil
}

// runPoint replicates one point until the stopping rule fires, its
// samples produced by the point's pooled session and folded directly as
// each replication returns. Replication r uses the same derived seed it
// would under mc.Run, so a converged sweep point is a prefix of the
// fixed-count run at the same configuration.
func runPoint(ctx context.Context, idx int, p Point, ss *mc.Session, o Options) Result {
	var progress func(Result)
	if o.Progress != nil {
		progress = func(partial Result) { o.Progress(idx, partial) }
	}
	// The session source never fails, so runRounds returns no error here.
	res, _ := runRounds(ctx, p, o, progress, func(f *mc.Fold, lo, hi int) (int, error) {
		for r := lo; r < hi; r++ {
			res, ok := ss.ReplicateContext(ctx, r)
			if !ok {
				return r - lo, nil
			}
			f.Add(res)
		}
		return hi - lo, nil
	})
	return res
}

// runRounds is the one round loop behind every execution path, in-process
// (runPoint) and remote (RunRemote); only the sample source differs. It
// owns the checkpoint schedule (MinReps, then every Batch), the progress
// snapshots, truncation and the stopping rule. produce folds the samples
// for global replications [lo, hi) into f in ascending order and reports
// how many it folded: fewer than hi-lo ends the run with a truncated
// partial, and its error, the only one runRounds returns, aborts the run.
func runRounds(ctx context.Context, p Point, o Options, progress func(Result),
	produce func(f *mc.Fold, lo, hi int) (int, error)) (Result, error) {
	f := mc.NewFold(p.Config.KeepResults, 0)
	adaptive := o.CITarget > 0 || o.RelTarget > 0
	snap := 0
	if progress != nil {
		snap = firstSnapshot(o)
	}
	n, converged, truncated := 0, false, false
	for !truncated {
		target := o.MaxReps
		if adaptive {
			if n == 0 {
				target = o.MinReps
			} else if target = n + o.Batch; target > o.MaxReps {
				target = o.MaxReps
			}
		}
		for n < target && !truncated {
			// Pause at the next snapshot boundary if one lands inside this
			// batch; the boundary only splits the loop, never the fold.
			bound := target
			if progress != nil && snap > n && snap < target {
				bound = snap
			}
			got := 0
			// A deadline between rounds folds nothing more: report the
			// partial rather than racing the source into a doomed round.
			if ctx.Err() == nil {
				var err error
				if got, err = produce(f, n, bound); err != nil {
					return Result{}, err
				}
			}
			truncated = got < bound-n
			n += got
			if !truncated && progress != nil && n >= snap {
				progress(pointResult(p, f.Estimate(o.Confidence), false, false))
				snap = nextSnapshot(snap, n, o)
			}
		}
		if truncated {
			break
		}
		if !adaptive || met(f.Estimate(o.Confidence), o) {
			converged = true // a fixed-count run's contract is the count
			break
		}
		if n >= o.MaxReps {
			break
		}
	}
	return pointResult(p, f.Estimate(o.Confidence), converged, truncated), nil
}

// met evaluates the sequential-stopping rule at a checkpoint.
func met(e mc.Estimate, o Options) bool {
	ciOK := o.CITarget == 0 || e.CP.HalfWide <= o.CITarget
	relOK := o.RelTarget == 0 ||
		(stats.RelativeError(e.CPUnavailability) <= o.RelTarget && e.RareESS >= float64(o.MinReps))
	return ciOK && relOK
}

// pointResult wraps a fold snapshot as a point Result.
func pointResult(p Point, e mc.Estimate, converged, truncated bool) Result {
	e.Truncated = truncated
	return Result{
		Point:        p,
		Estimate:     e,
		Replications: e.Replications,
		Converged:    converged,
		Truncated:    truncated,
	}
}

// firstSnapshot picks the replication count for the first progress
// snapshot: early enough that a streaming client sees an interval before
// 10% of the budget is spent on any non-trivial run, but never past the
// adaptive floor (MinReps ≥ 2 is enforced by Validate, so the interval is
// always a real two-sample Welford estimate).
func firstSnapshot(o Options) int {
	s := o.MaxReps / 20
	if s < 2 {
		s = 2
	}
	if s > o.MinReps {
		s = o.MinReps
	}
	return s
}

// nextSnapshot advances the snapshot schedule past n: geometric doubling,
// but never coarser than a quarter of the remaining ceiling so long runs
// keep streaming. Snapshot boundaries only pause the replication loop —
// they never touch the fold — so a streamed run folds bit-identically to
// an unstreamed one.
func nextSnapshot(snap, n int, o Options) int {
	step := snap
	if max := o.MaxReps / 4; max > 0 && step > max {
		step = max
	}
	if step < 1 {
		step = 1
	}
	for snap <= n {
		snap += step
	}
	return snap
}
