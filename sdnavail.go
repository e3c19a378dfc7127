package sdnavail

import (
	"context"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/chaos"
	"sdnavail/internal/cluster"
	"sdnavail/internal/experiments"
	"sdnavail/internal/markov"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/report"
	"sdnavail/internal/server"
	"sdnavail/internal/stats"
	"sdnavail/internal/sweep"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
	"sdnavail/internal/vclock"
)

// The public API re-exports the library's core types as aliases so that
// downstream users import a single package. The internal packages remain
// the implementation; this file is the stable surface.

// ---- controller software description (paper Tables I-III) ----

// Profile describes a distributed SDN controller implementation: roles,
// processes, restart modes and quorum requirements.
type Profile = profile.Profile

// Process is one row of the paper's Table I.
type Process = profile.Process

// Role identifies a controller node type.
type Role = profile.Role

// RestartMode is Auto or Manual (Table II).
type RestartMode = profile.RestartMode

// Need is a quorum requirement class (Table III).
type Need = profile.Need

// Plane selects the SDN control plane or the host data plane.
type Plane = profile.Plane

// Re-exported enumeration values.
const (
	AutoRestart   = profile.AutoRestart
	ManualRestart = profile.ManualRestart

	NotRequired = profile.NotRequired
	OneOf       = profile.OneOf
	Majority    = profile.Majority

	ControlPlane = profile.ControlPlane
	DataPlane    = profile.DataPlane
)

// OpenContrail3x returns the paper's reference controller profile.
func OpenContrail3x() *Profile { return profile.OpenContrail3x() }

// ODLLike and ONOSLike return illustrative alternate controller profiles,
// demonstrating the table-driven extensibility the paper claims.
func ODLLike() *Profile  { return profile.ODLLike() }
func ONOSLike() *Profile { return profile.ONOSLike() }

// ---- deployment topologies (paper Fig. 2) ----

// Topology is a physical deployment layout: racks ⊃ hosts ⊃ VMs ⊃ roles.
type Topology = topology.Topology

// TopologyKind tags the reference layout family.
type TopologyKind = topology.Kind

// Reference topology kinds.
const (
	SmallTopology  = topology.Small
	MediumTopology = topology.Medium
	LargeTopology  = topology.Large
)

// NewSmallTopology, NewMediumTopology and NewLargeTopology build the
// paper's reference layouts for the given roles and 2N+1 cluster size.
func NewSmallTopology(roles []Role, clusterSize int) *Topology {
	return topology.NewSmall(roles, clusterSize)
}
func NewMediumTopology(roles []Role, clusterSize int) *Topology {
	return topology.NewMedium(roles, clusterSize)
}
func NewLargeTopology(roles []Role, clusterSize int) *Topology {
	return topology.NewLarge(roles, clusterSize)
}

// ---- analytic models (paper §V and §VI) ----

// Params carries the model's availability parameters.
type Params = analytic.Params

// HWModel is the HW-centric (role-atomic) model of §V.
type HWModel = analytic.HWModel

// Model is the SW-centric (process-level) model of §VI.
type Model = analytic.Model

// Option pairs a topology kind with a supervisor scenario.
type Option = analytic.Option

// Scenario selects the supervisor mode of operation.
type Scenario = analytic.Scenario

// MaintenanceLevel is a host maintenance contract class (§V.D).
type MaintenanceLevel = analytic.MaintenanceLevel

// The paper's analysis options and scenarios.
var (
	Option1S = analytic.Option1S
	Option2S = analytic.Option2S
	Option1L = analytic.Option1L
	Option2L = analytic.Option2L
)

const (
	SupervisorNotRequired = analytic.SupervisorNotRequired
	SupervisorRequired    = analytic.SupervisorRequired

	SameDay         = analytic.SameDay
	NextDay         = analytic.NextDay
	NextBusinessDay = analytic.NextBusinessDay
)

// DefaultParams returns the paper's example parameters.
func DefaultParams() Params { return analytic.Defaults() }

// NewHWModel returns the paper's reference HW-centric model (3 nodes,
// three 1-of-3 roles, one quorum role).
func NewHWModel() HWModel { return analytic.NewHWModel() }

// NewModel returns a SW-centric model over the profile and option with
// default parameters and a 3-node cluster.
func NewModel(prof *Profile, opt Option) *Model { return analytic.NewModel(prof, opt) }

// AnalysisOptions lists the paper's four SW-centric options (1S, 2S, 1L,
// 2L).
func AnalysisOptions() []Option { return analytic.Options() }

// ---- reliability math ----

// KofN returns the paper's equation (1): the availability of an m-of-n
// block of identical elements with availability alpha.
func KofN(m, n int, alpha float64) float64 { return relmath.KofN(m, n, alpha) }

// Availability returns MTBF/(MTBF+MTTR).
func Availability(mtbf, mttr float64) float64 { return relmath.Availability(mtbf, mttr) }

// DowntimeMinutesPerYear converts availability to expected yearly downtime.
func DowntimeMinutesPerYear(a float64) float64 { return relmath.DowntimeMinutesPerYear(a) }

// Nines returns -log10(1-a), the "number of nines".
func Nines(a float64) float64 { return relmath.Nines(a) }

// Block is a reliability-block-diagram node for ad-hoc structures; see
// Unit, Const, InSeries, InParallel, Vote and Replicate.
type Block = relmath.Block

// Env supplies named availabilities to Block.Eval.
type Env = relmath.Env

// RBD constructors, re-exported from the reliability math substrate.
func Unit(name string) *Block                  { return relmath.Unit(name) }
func Const(a float64) *Block                   { return relmath.Const(a) }
func InSeries(children ...*Block) *Block       { return relmath.InSeries(children...) }
func InParallel(children ...*Block) *Block     { return relmath.InParallel(children...) }
func Vote(need int, children ...*Block) *Block { return relmath.Vote(need, children...) }
func Replicate(need, n int, child *Block) *Block {
	return relmath.Replicate(need, n, child)
}

// ---- Monte Carlo simulation (paper §VII future work) ----

// SimConfig parameterizes the discrete-event availability simulator.
type SimConfig = mc.Config

// SimResult is one replication's measurements.
type SimResult = mc.Result

// SimEstimate aggregates replications with confidence intervals.
type SimEstimate = mc.Estimate

// Interval is a confidence interval.
type Interval = stats.Interval

// NewSimConfig derives a simulator configuration from analytic parameters.
func NewSimConfig(prof *Profile, topo *Topology, sc Scenario, p Params) SimConfig {
	return mc.NewConfig(prof, topo, sc, p)
}

// Simulate runs independent replications and returns availability
// estimates at the given confidence level.
func Simulate(cfg SimConfig, replications int, level float64) (SimEstimate, error) {
	return mc.Run(cfg, replications, level)
}

// ---- live testbed and chaos harness ----

// Cluster is the live in-process controller testbed.
type Cluster = cluster.Cluster

// ClusterConfig assembles a testbed.
type ClusterConfig = cluster.Config

// ClusterTiming holds the testbed's scaled operational delays.
type ClusterTiming = cluster.Timing

// ClusterSupervision configures the supervisors' restart policy: retry
// budget, exponential backoff, quick-fail window, and flapping detection
// (supervisord semantics, scaled like ClusterTiming).
type ClusterSupervision = cluster.Supervision

// ClusterDegradation configures the testbed's graceful-degradation knobs:
// the vRouter headless hold and per-route staleness bound, and the revived
// store replica catch-up latency. The zero value keeps the strict
// flush-immediately / reconcile-instantly behaviour.
type ClusterDegradation = cluster.Degradation

// ClusterHealth is the coarse cluster health level (Healthy, Degraded or
// Critical).
type ClusterHealth = cluster.Health

// ClusterHealthReport is a point-in-time per-subsystem health snapshot
// from Cluster.Health().
type ClusterHealthReport = cluster.HealthReport

// Cluster health levels.
const (
	ClusterHealthy  = cluster.Healthy
	ClusterDegraded = cluster.Degraded
	ClusterCritical = cluster.Critical
)

// NewCluster assembles a testbed cluster (call Start, defer Stop).
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// ChaosAction is one scripted injection step.
type ChaosAction = chaos.Action

// ChaosReport summarizes an experiment's observed availability.
type ChaosReport = chaos.Report

// ChaosCampaign is a randomized fault-injection experiment.
type ChaosCampaign = chaos.Campaign

// ChaosStep constructs a scripted action.
func ChaosStep(after time.Duration, name string, do func(c *Cluster) error) ChaosAction {
	return chaos.Step(after, name, do)
}

// RunScenario executes a scripted injection sequence while probing.
func RunScenario(c *Cluster, actions []ChaosAction, settle, probeEvery, probeTimeout time.Duration) (ChaosReport, error) {
	return chaos.RunScenario(c, actions, settle, probeEvery, probeTimeout)
}

// SectionIIIScenario returns the paper's section III control failure
// narrative as a scripted scenario.
func SectionIIIScenario(step time.Duration) []ChaosAction { return chaos.SectionIII(step) }

// FlakyProcess is a fault injector that crash-loops one process, driving
// the supervision ladder (backoff, retry budget, FATAL).
type FlakyProcess = chaos.FlakyProcess

// CrashLoopScenario crash-loops a supervised process until its supervisor
// gives up (FATAL), then recovers it with a manual restart.
func CrashLoopScenario(role string, node int, name string, step time.Duration) []ChaosAction {
	return chaos.CrashLoop(role, node, name, step)
}

// HeadlessScenario exercises the headless vRouter hold: a total control
// outage shorter than the hold is ridden out on stale forwarding state, a
// longer one flushes. Build the cluster with ClusterDegradation
// .HeadlessHold between step and 3*step.
func HeadlessScenario(step time.Duration) []ChaosAction { return chaos.Headless(step) }

// StaleReadScenario exercises the deferred replica catch-up window after a
// Cassandra (Config) replica revival. Build the cluster with
// ClusterDegradation.ReplicaCatchUp > 0.
func StaleReadScenario(step time.Duration) []ChaosAction { return chaos.StaleRead(step) }

// ---- RAFT leadership, gray failures and the scenario DSL ----

// ClusterRaft tunes the quorum stores' RAFT leadership behaviour via
// ClusterConfig.Raft: randomized election timeouts, the heartbeat period
// and the gray-leader detection budget. The zero value keeps instant
// (synchronous) leadership.
type ClusterRaft = cluster.RaftConfig

// RaftEvent is one leadership transition recorded by a quorum store
// (leader lost, split vote, elected, gray leader detected).
type RaftEvent = cluster.RaftEvent

// LeaderCrashScenario crashes the config-store RAFT leader replica and
// lets it rejoin through the catch-up window.
func LeaderCrashScenario(step time.Duration) []ChaosAction { return chaos.LeaderCrash(step) }

// GrayLeaderScenario injects a gray failure: the config-store leader
// keeps its lease but serves corrupted reads until the detector deposes
// it (timed mode with ClusterRaft.GrayDetect) or the flags are cleared.
func GrayLeaderScenario(step time.Duration) []ChaosAction { return chaos.GrayLeader(step) }

// StaleLeaderLeaseScenario partitions the config-store leader away from
// the majority so it holds a lease it can no longer honor, then heals.
func StaleLeaderLeaseScenario(step time.Duration) []ChaosAction {
	return chaos.StaleLeaderLease(step)
}

// AckDropWritesScenario arms Byzantine followers that acknowledge writes
// without persisting them, then kills the honest leader: acknowledged
// data is silently lost — downtime the binary up/down model cannot see.
func AckDropWritesScenario(step time.Duration) []ChaosAction { return chaos.AckDropWrites(step) }

// ScenarioSpec is a declarative chaos scenario parsed from JSON: named,
// schema-validated steps compiled into executable actions. (The name
// avoids colliding with Scenario, the analytic supervisor mode.)
type ScenarioSpec = chaos.ScenarioSpec

// ScenarioStepSpec is one declarative step of a ScenarioSpec.
type ScenarioStepSpec = chaos.StepSpec

// ScenarioValidationError pinpoints the step and field of an invalid
// scenario document.
type ScenarioValidationError = chaos.ValidationError

// ParseScenarioSpec parses and validates a declarative JSON scenario.
func ParseScenarioSpec(data []byte) (*ScenarioSpec, error) { return chaos.ParseScenarioSpec(data) }

// RunScenarioSpec compiles a declarative scenario and executes it against
// the cluster while probing.
func RunScenarioSpec(c *Cluster, spec *ScenarioSpec, probeEvery, probeTimeout time.Duration) (ChaosReport, error) {
	return chaos.RunSpec(c, spec, probeEvery, probeTimeout)
}

// ---- frequency-duration and weak-link analysis (extensions) ----

// RepairTimes carries mean-time-to-restore assumptions for turning
// availabilities into failure rates.
type RepairTimes = analytic.RepairTimes

// OutageEstimate is the frequency-duration view of a plane: how often
// outages begin and how long they last, not just the downtime total.
type OutageEstimate = analytic.OutageEstimate

// ImportanceEntry ranks a parameter class as a weak link (Birnbaum
// importance, downtime share, improvement potential).
type ImportanceEntry = analytic.ImportanceEntry

// PlaneMetric selects the plane for importance analysis.
type PlaneMetric = analytic.PlaneMetric

// Plane metrics for Model.Importance.
const (
	CPMetric = analytic.CPMetric
	DPMetric = analytic.DPMetric
)

// DefaultRepairTimes returns the paper-aligned repair times (R = 0.1 h,
// R_S = 1 h, VM 1 h, host 4 h, rack 48 h).
func DefaultRepairTimes() RepairTimes { return analytic.DefaultRepairTimes() }

// ControlFailoverImpact quantifies the transient data-plane impact of
// simultaneous control-process failures that the paper's §III analysis
// assumes negligible. See analytic.ControlFailoverImpact.
func ControlFailoverImpact(p Params, clusterSize int, mttr, rediscoverHours float64) (addedUnavailability, eventsPerYear float64, err error) {
	return analytic.ControlFailoverImpact(p, clusterSize, mttr, rediscoverHours)
}

// KofNRepairable solves the repairable k-of-n birth-death chain exactly:
// steady-state availability, outage frequency per hour, and mean outage
// duration in hours, for per-component failure rate lambda and repair
// rate mu.
func KofNRepairable(m, n int, lambda, mu float64) (avail, freqPerHour, meanDownHours float64, err error) {
	return markov.KofNAvailability(m, n, lambda, mu)
}

// KofNMissionReliability returns the probability that a repairable k-of-n
// group, starting all-up, suffers no availability loss during t hours —
// the "no outage this year" view the steady-state models cannot express.
func KofNMissionReliability(m, n int, lambda, mu, t float64) (float64, error) {
	return markov.KofNMissionReliability(m, n, lambda, mu, t)
}

// SLAMissProbability estimates, from simulation results run with
// SimConfig.WindowHours set, the probability that a window's control-plane
// downtime exceeds the threshold in minutes.
func SLAMissProbability(results []SimResult, thresholdMinutes float64) (float64, error) {
	return mc.SLAMissProbability(results, thresholdMinutes)
}

// OutageDurationSummary aggregates every simulated control-plane outage
// into order statistics (hours).
func OutageDurationSummary(results []SimResult) stats.Summary {
	return mc.OutageDurationSummary(results)
}

// Summary holds order statistics of a sample set.
type Summary = stats.Summary

// ExactModel evaluates the SW-centric availability of an arbitrary custom
// topology by exact shared-hardware state enumeration — placements the
// Small/Medium/Large closed forms cannot express.
type ExactModel = analytic.ExactModel

// NewExactModel returns an exact model over any topology with default
// parameters.
func NewExactModel(prof *Profile, topo *Topology, sc Scenario) *ExactModel {
	return analytic.NewExactModel(prof, topo, sc)
}

// Rack, Host, TopologyVM and Placement are the building blocks for custom
// topologies evaluated by ExactModel, the simulator, or the live testbed.
type (
	Rack       = topology.Rack
	Host       = topology.Host
	TopologyVM = topology.VM
	Placement  = topology.Placement
)

// ProfileToJSON and ProfileFromJSON serialize controller profiles, so new
// implementations can be described declaratively and fed to every model
// (see cmd/availcalc -profile-file).
func ProfileToJSON(p *Profile) ([]byte, error)      { return profile.ToJSON(p) }
func ProfileFromJSON(data []byte) (*Profile, error) { return profile.FromJSON(data) }

// TopologyToJSON and TopologyFromJSON serialize deployment layouts, so
// custom placements can be priced declaratively (see cmd/availcalc
// -topology-file).
func TopologyToJSON(t *Topology) ([]byte, error)      { return topology.ToJSON(t) }
func TopologyFromJSON(data []byte) (*Topology, error) { return topology.FromJSON(data) }

// ---- failure-aware network graph ----

// NetworkLink is one failure-prone edge of a topology's network graph:
// a host uplink, a rack-to-core fabric link, or the service-edge
// adjacency. MTBF == 0 declares the link perfect; a topology with no
// links at all keeps the original containment-tree semantics exactly.
type NetworkLink = topology.Link

// NetworkLinkKind types a link by its role in the fabric.
type NetworkLinkKind = topology.LinkKind

// Re-exported link kinds.
const (
	UplinkLink    = topology.Uplink
	FabricLink    = topology.FabricLink
	AdjacencyLink = topology.Adjacency
)

// DefaultNetworkLinks builds the canonical fabric for a containment
// tree: one uplink per host ("up:<host>"), one fabric link per rack
// ("fab:<rack>") and one edge adjacency ("adj:edge"), all with the same
// MTBF/MTTR hours.
func DefaultNetworkLinks(t *Topology, mtbf, mttr float64) []NetworkLink {
	return topology.DefaultLinks(t, mtbf, mttr)
}

// ---- controller-placement sweeps ----

// SweepOptions tunes the adaptive sequential-stopping Monte Carlo
// engine: replicate each point until its CP confidence half-width meets
// CITarget, bounded by [MinReps, MaxReps].
type SweepOptions = sweep.Options

// PlacementSpec describes a controller-placement sweep: a rack/host
// slot grid, a controller count, optional link failure parameters, and
// a candidate cap applied by deterministic subsampling.
type PlacementSpec = sweep.PlacementSpec

// PlacementCandidate is one enumerated placement with its materialized
// topology.
type PlacementCandidate = sweep.Candidate

// PlacementResult scores one candidate: closed-form exact-model plane
// availabilities plus the adaptive Monte Carlo cross-check.
type PlacementResult = sweep.PlacementResult

// PlacementSweep is a completed sweep, ranked best-first by analytic
// control-plane availability.
type PlacementSweep = sweep.PlacementSweep

// RunPlacement enumerates the spec's candidate placements, scores each
// with the exact model and cross-checks each with the adaptive Monte
// Carlo engine.
func RunPlacement(spec PlacementSpec, opt SweepOptions) (*PlacementSweep, error) {
	return sweep.RunPlacement(spec, opt)
}

// RunPlacementContext is RunPlacement with a deadline: when ctx expires
// every candidate keeps its analytic score and reports the Monte Carlo
// replications that completed, flagged Truncated.
func RunPlacementContext(ctx context.Context, spec PlacementSpec, opt SweepOptions) (*PlacementSweep, error) {
	return sweep.RunPlacementContext(ctx, spec, opt)
}

// Operator is the remediation automation of the paper's §VII: it watches
// the live testbed and manually restarts processes that stay failed past
// its response time.
type Operator = chaos.Operator

// NewOperator returns an operator bot with the given response time; call
// Start with a running cluster and Stop when done.
func NewOperator(responseTime time.Duration) *Operator { return chaos.NewOperator(responseTime) }

// ---- virtual time and long-horizon soak validation ----

// Clock abstracts time for the testbed and chaos harness. The default
// RealClock passes through to the runtime; a FakeClock makes every
// scenario deterministic and lets simulated months run in wall-clock
// seconds. The Monte Carlo simulator is unaffected: it keeps its own
// discrete-event clock and never sleeps.
type Clock = vclock.Clock

// RealClock is the pass-through wall clock (the ClusterConfig default).
type RealClock = vclock.Real

// FakeClock is a deterministic virtual clock: it advances to the next
// pending deadline whenever every registered goroutine is parked in a
// clock-aware wait, so timed behaviour is exact and repeatable.
type FakeClock = vclock.Fake

// NewFakeClock returns a FakeClock starting at the given instant.
func NewFakeClock(start time.Time) *FakeClock { return vclock.NewFake(start) }

// SoakConfig parameterizes a long-horizon soak of the live testbed under
// virtual time: simulated hours of MTBF/MTTR-driven process failures with
// supervisors and an operator model performing the repairs.
type SoakConfig = chaos.SoakConfig

// SoakResult carries the soak's observed availability report and fault
// counts, plus the resolved configuration for mirroring into the
// simulator and closed forms.
type SoakResult = chaos.SoakResult

// RunSoak executes a fake-clocked soak of the live cluster.
func RunSoak(sc SoakConfig) (SoakResult, error) { return chaos.RunSoak(sc) }

// ---- telemetry: metrics, trace and downtime attribution ----

// Telemetry aggregates the observability layer the testbed, chaos harness
// and Monte Carlo simulator share: a metrics registry, a structured trace
// of state-transition events, and the downtime-attribution ledger. Attach
// one via ClusterConfig.Telemetry or SoakConfig.Telemetry; a nil aggregate
// disables collection at the cost of one nil check per state change.
type Telemetry = telemetry.Telemetry

// NewTelemetry returns an enabled telemetry aggregate.
func NewTelemetry() *Telemetry { return telemetry.New() }

// TraceEvent is one state-transition record in the telemetry trace.
type TraceEvent = telemetry.Event

// Attribution is one plane's per-failure-mode downtime table in the
// paper's Section IV style: total downtime split across the failure modes
// blamed for each unavailable interval.
type Attribution = telemetry.Attribution

// ModeShare is one failure mode's slice of a plane's downtime.
type ModeShare = telemetry.ModeShare

// RecoveryTracker collects recovery-time samples by kind (elections,
// replica catch-ups, gray-leader detections); reports render the
// distributions next to availability via Telemetry.Recovery.
type RecoveryTracker = telemetry.Recovery

// SimulateContext is Simulate with a deadline: when ctx expires, the run
// stops at its next cancellation check and returns the partial estimate
// with honest confidence intervals, flagged SimEstimate.Truncated —
// a deadlined what-if query gets its partial answer, not an error.
func SimulateContext(ctx context.Context, cfg SimConfig, replications int, level float64) (SimEstimate, error) {
	return mc.RunContext(ctx, cfg, replications, level)
}

// RunSoakContext is RunSoak with a deadline: a cancelled soak finalizes
// every aggregate at the virtual hours actually covered and reports
// SoakResult.Truncated — a clean partial result, not a torn one.
func RunSoakContext(ctx context.Context, sc SoakConfig) (SoakResult, error) {
	return chaos.RunSoakContext(ctx, sc)
}

// ---- rare-event acceleration (deep availability tails) ----

// RareEventConfig parameterizes the simulator's rare-event acceleration
// layer via SimConfig.Rare: forced-failure biasing per entity kind and
// multilevel importance splitting, both corrected by exact likelihood
// ratios so the unavailability estimator stays unbiased. The zero value
// disables the layer; the simulator's event loop then runs unweighted,
// bit-identical to a build without the layer.
type RareEventConfig = mc.RareEventConfig

// RareConfigError is the typed validation error for rare-event
// configurations.
type RareConfigError = mc.RareConfigError

// WeightedAccumulator folds likelihood-ratio-weighted samples: weighted
// mean, Kish effective sample size, and confidence intervals over the
// per-replication estimates.
type WeightedAccumulator = stats.WeightedAccumulator

// RelativeError returns HalfWide/|Mean| of an interval — the scale-free
// precision measure rare-event stopping rules use (+Inf at mean zero).
func RelativeError(ci Interval) float64 { return stats.RelativeError(ci) }

// AutoRareSchedule selects a biasing schedule for the configuration:
// forcing factors sized to the horizon's likelihood-ratio drift budget
// and splitting levels derived from the quorum min-cut. Configurations
// whose tail is easy come back with weaker factors, degrading gracefully
// toward the identity (a disabled schedule).
func AutoRareSchedule(cfg SimConfig) RareEventConfig { return sweep.AutoRare(cfg) }

// KofNExpectedDownTime solves the repairable k-of-n birth-death chain's
// expected downtime over [0, t] exactly (uniformization), starting
// all-up — the transient anchor the rare-event estimator is proven
// unbiased against.
func KofNExpectedDownTime(m, n int, lambda, mu, t float64) (float64, error) {
	return markov.KofNExpectedDownTime(m, n, lambda, mu, t)
}

// ReportTable is a rendered result table (Text, CSV, Markdown).
type ReportTable = report.Table

// TailRow is one deep-tail estimate in a tail-availability table.
type TailRow = report.TailRow

// TailAvailabilityTable renders deep-tail rows: unavailability with its
// nines, relative error, effective sample size, and the extrapolated
// replication-count speedup over naive Monte Carlo.
func TailAvailabilityTable(title string, rows []TailRow) ReportTable {
	return report.TailTable(title, rows)
}

// UnavailabilityNines converts an unavailability into nines of
// availability (1e-9 → 9).
func UnavailabilityNines(u float64) float64 { return report.Nines(u) }

// NaiveTailReplications extrapolates the replication count naive Monte
// Carlo would need for relative error relErr at normal quantile z, given
// the probability hitProb that one naive replication observes any
// downtime (SimEstimate.RareHitProb).
func NaiveTailReplications(hitProb, relErr, z float64) float64 {
	return report.NaiveReplications(hitProb, relErr, z)
}

// TailPoint is one labelled deep-tail configuration for RunTailStudy.
type TailPoint = experiments.TailPoint

// TailSweepResult is one tail-study point's outcome (a sweep result).
type TailSweepResult = sweep.Result

// RunTailStudy estimates each point's deep-tail CP unavailability with
// the rare-event engine (auto-selecting a biasing schedule for points
// without one), stopping at the options' relative-error target, and
// renders the tail-availability table with the naive-MC speedup.
func RunTailStudy(points []TailPoint, opt SweepOptions) ([]TailSweepResult, ReportTable, error) {
	return experiments.TailStudy(points, opt)
}

// RunTailStudyContext is RunTailStudy under a cancellable context.
func RunTailStudyContext(ctx context.Context, points []TailPoint, opt SweepOptions) ([]TailSweepResult, ReportTable, error) {
	return experiments.TailStudyContext(ctx, points, opt)
}

// DeepTailPlacementPoints builds the nine-nines placement comparison:
// the most rack-concentrated and the most spread placements of the given
// controller count at reference-grade parameters, ready for RunTailStudy.
func DeepTailPlacementPoints(controllers int, horizon float64, seed int64) ([]TailPoint, error) {
	return experiments.DeepTailPlacementPoints(controllers, horizon, seed)
}

// ---- resident availability service (availd) ----

// Server is the resident availability service behind cmd/availd: analytic
// evaluation, Monte Carlo what-ifs and live soaks as HTTP endpoints, with
// bounded admission (explicit 429 load shedding), per-request deadlines
// answering truncated partial estimates, per-request panic isolation,
// memoized analytic evaluation, Prometheus-format metrics, and graceful
// drain. Embed it via ServerConfig + NewServer, or mount
// Server.Handler() on an existing mux.
type Server = server.Server

// ServerConfig parameterizes the service; zero fields select defaults.
type ServerConfig = server.Config

// NewServer builds a service (call Listen then Serve, or mount Handler).
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }
