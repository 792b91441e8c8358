// Package topocon is a computational framework for the point-set topology
// of consensus under general message adversaries, reproducing
//
//	Thomas Nowak, Ulrich Schmid, Kyrill Winkler:
//	"Topological Characterization of Consensus under General Message
//	Adversaries", PODC 2019 (arXiv:1905.09590).
//
// The library makes the paper's objects executable:
//
//   - communication graphs and message adversaries (oblivious,
//     eventually-stabilizing, deadline-compactified, committed-suffix,
//     finite lasso sets, exclusion adversaries);
//   - process-time graphs and hash-consed local views, the carriers of the
//     process-view pseudo-metrics d_P and the minimum distance d_min;
//   - finite-resolution prefix spaces, their connected components (the
//     ε-approximations of Definition 6.2), broadcastability, and
//     cross-valence distances;
//   - the solvability checker (Theorems 6.6 and 6.7) with exact witnesses
//     for compact adversaries and certified impossibility via automated
//     bivalence proofs (bounded chains and alternating pumps);
//   - the universal consensus algorithm of Theorem 5.5 compiled to a
//     decision map, runnable by a genuine message-passing full-information
//     protocol in the lock-step simulator;
//   - exact infinite-run analysis on ultimately-periodic runs (Corollary
//     5.6 for finite adversaries, fair/unfair limits of Definition 5.16).
//
// Quick start:
//
//	adv := topocon.LossyLink2()
//	res, err := topocon.CheckConsensus(adv, topocon.CheckOptions{})
//	// res.Verdict == topocon.VerdictSolvable, res.SeparationHorizon == 1
//
// For long-running analyses, use an Analyzer session: it refines the
// prefix space one horizon at a time — reusing the previous horizon's
// items instead of re-enumerating the exponential space — and supports
// cancellation, progress reporting and manual stepping:
//
//	an, err := topocon.NewAnalyzer(adv,
//	    topocon.WithMaxHorizon(9),
//	    topocon.WithProgress(func(r topocon.HorizonReport) {
//	        log.Printf("horizon %d: %d runs, %d components", r.Horizon, r.Runs, r.Components)
//	    }))
//	res, err := an.Check(ctx)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every reproduced figure and claim.
package topocon

import (
	"topocon/internal/baseline"
	"topocon/internal/check"
	"topocon/internal/ckpt"
	"topocon/internal/graph"
	"topocon/internal/lasso"
	"topocon/internal/ma"
	"topocon/internal/pager"
	"topocon/internal/ptg"
	"topocon/internal/scenario"
	"topocon/internal/sim"
	"topocon/internal/store"
	"topocon/internal/sweep"
	"topocon/internal/topo"
)

// Graphs and parsing.
type (
	// Graph is a directed communication graph with mandatory self-loops.
	Graph = graph.Graph
	// Edge is a directed edge of a Graph.
	Edge = graph.Edge
)

// Graph constructors.
var (
	// NewGraph returns the self-loop-only graph on n nodes.
	NewGraph = graph.New
	// ParseGraph parses "1->2, 2<->3" edge lists (1-based ids).
	ParseGraph = graph.Parse
	// MustParseGraph is ParseGraph for statically-known inputs.
	MustParseGraph = graph.MustParse
	// GraphFromEdges builds a graph from an edge list.
	GraphFromEdges = graph.FromEdges
	// CompleteGraph, StarGraph, CycleGraph, ChainGraph are generators.
	CompleteGraph = graph.Complete
	StarGraph     = graph.Star
	CycleGraph    = graph.Cycle
	ChainGraph    = graph.Chain
	// EnumerateGraphs iterates all graphs on n nodes.
	EnumerateGraphs = graph.EnumerateAll
)

// The lossy-link graphs for n = 2 in the paper's arrow notation.
var (
	LeftGraph    = graph.Left
	RightGraph   = graph.Right
	BothGraph    = graph.Both
	NeitherGraph = graph.Neither
)

// Message adversaries.
type (
	// Adversary is a message adversary presented as a deterministic graph
	// automaton; see the ma package documentation for the contract.
	Adversary = ma.Adversary
	// GraphWord is an ultimately-periodic graph sequence u·v^ω.
	GraphWord = ma.GraphWord
)

// GraphPred is a named per-round graph predicate for Filter adversaries
// and scenario specs.
type GraphPred = ma.GraphPred

// AdmissiblePrefix is an admissible finite prefix paired with its
// automaton state and liveness-discharge round — the metadata the
// exhaustive sim driver hands to its yield callback.
type AdmissiblePrefix = ma.Prefix

// Adversary constructors.
var (
	// NewOblivious builds an oblivious adversary over a graph set.
	NewOblivious = ma.NewOblivious
	// LossyLink3 is the impossible {<-,<->,->} adversary of [21].
	LossyLink3 = ma.LossyLink3
	// LossyLink2 is the solvable {<-,->} adversary of [8].
	LossyLink2 = ma.LossyLink2
	// Unrestricted allows every graph each round.
	Unrestricted = ma.Unrestricted
	// NewEventuallyStable is the non-compact VSSC-style adversary.
	NewEventuallyStable = ma.NewEventuallyStable
	// NewDeadlineStable compactifies an eventually-stable adversary.
	NewDeadlineStable = ma.NewDeadlineStable
	// NewCommittedSuffix is the Fevat-Godard-style committed family.
	NewCommittedSuffix = ma.NewCommittedSuffix
	// NewLassoSet is the explicit finite adversary.
	NewLassoSet = ma.NewLassoSet
	// NewUnion is the set union of adversaries.
	NewUnion = ma.NewUnion
	// LossBounded loses at most f messages per round ([21, 22]).
	LossBounded = ma.LossBounded
	// NewExclusion removes ultimately-periodic words from a base.
	NewExclusion = ma.NewExclusion
	// NewGraphWord builds u·v^ω; RepeatWord builds v^ω.
	NewGraphWord = ma.NewGraphWord
	RepeatWord   = ma.Repeat
	// ValidateAdversary sanity-checks an adversary implementation.
	ValidateAdversary = ma.Validate
	// CountAdmissiblePrefixes counts the admissible prefixes of the given
	// round count (the prefix-space size per input assignment).
	CountAdmissiblePrefixes = ma.CountPrefixes
)

// The adversary combinator algebra: a closed set of operators over
// arbitrary adversaries. Together with the constructors above they form
// the full definition surface; scenario specs compile to exactly these.
var (
	// NewIntersect is the product automaton a ∩ b (conjunction of
	// admissibility, graph-set intersection per round, dead branches
	// pruned).
	NewIntersect = ma.NewIntersect
	// NewConcat plays the first adversary for exactly k rounds, then the
	// second forever.
	NewConcat = ma.NewConcat
	// NewFilter restricts an adversary to rounds satisfying a graph
	// predicate.
	NewFilter = ma.NewFilter
	// NewWindowStable adds the obligation that some graph repeats k
	// consecutive rounds.
	NewWindowStable = ma.NewWindowStable
	// NewGraphPred wraps an arbitrary predicate; the Pred* constructors
	// cover the structural predicates of the literature.
	NewGraphPred          = ma.NewGraphPred
	PredStronglyConnected = ma.PredStronglyConnected
	PredMinOutDegree      = ma.PredMinOutDegree
	PredRooted            = ma.PredRooted
	PredStar              = ma.PredStar
	PredNonsplit          = ma.PredNonsplit
	// Fingerprint returns the canonical behavioural hash of an adversary's
	// reachable automaton: the identity under which sessions and caching
	// layers key analysis results.
	Fingerprint = ma.Fingerprint
	// Normalize rewrites an adversary expression into the canonical form
	// Fingerprint hashes and the checker routes on (combinator identities
	// such as a ∩ unrestricted → a, concat(a, 0, b) → b).
	Normalize = ma.Normalize
	// Automorphisms computes the process-relabeling symmetry group of an
	// adversary; the checker quotients prefix spaces by its product with
	// the input-value permutations (DESIGN.md §13). Falls back to the
	// trivial process group when detection is out of budget.
	Automorphisms = ma.Automorphisms
)

// Group is a symmetry group of a consensus instance: process
// permutations under which the adversary is invariant, paired with
// input-value permutations; the symmetry quotient's algebraic core.
type Group = ma.Group

// Scenario is a parsed declarative scenario: a named adversary expression
// plus checker options; see internal/scenario for the JSON format.
type Scenario = scenario.Scenario

// Scenario loading.
var (
	// LoadScenario reads and builds a scenario file.
	LoadScenario = scenario.Load
	// ParseScenario builds a scenario from JSON bytes.
	ParseScenario = scenario.Parse
	// ScenarioRegistry lists the built-in seed-family scenarios.
	ScenarioRegistry = scenario.Registry
	// LookupScenario finds a built-in scenario by name.
	LookupScenario = scenario.Lookup
)

// Parameterized scenario templates and batch sweeps.
type (
	// Template is a parameterized scenario: a params block of integer
	// ranges/lists plus a scenario body with ${param} placeholders; it
	// expands into a concrete scenario grid. See internal/scenario.
	Template = scenario.Template
	// TemplateParam is one declared template parameter with its values.
	TemplateParam = scenario.Param
	// TemplateCell is one concrete scenario of an expanded grid.
	TemplateCell = scenario.Cell
	// TemplateBinding is one parameter's value in a grid cell.
	TemplateBinding = scenario.Binding
	// SweepConfig tunes a sweep run (worker pool, per-cell timeout,
	// progress callback, shared verdict cache).
	SweepConfig = sweep.Config
	// SweepReport is the structured outcome of a sweep: per-cell verdicts
	// with cache attribution plus grid-level summary statistics.
	SweepReport = sweep.Report
	// SweepCellResult is one grid cell's outcome in a sweep report.
	SweepCellResult = sweep.CellResult
	// SweepCache is the concurrency-safe fingerprint-keyed verdict cache;
	// share one across sweeps to reuse verdicts between templates.
	SweepCache = sweep.Cache
)

var (
	// LoadTemplate reads and parses a template file.
	LoadTemplate = scenario.LoadTemplate
	// ParseTemplate parses a template from JSON bytes.
	ParseTemplate = scenario.ParseTemplate
	// IsTemplateDoc reports whether a document declares a params block
	// (parse it with ParseTemplate) or is a concrete scenario (Parse).
	IsTemplateDoc = scenario.IsTemplate
	// Sweep expands a template and analyses its grid over a bounded worker
	// pool, deduping behaviourally isomorphic cells through the verdict
	// cache. Cancellation yields a well-formed partial report.
	Sweep = sweep.Run
	// SweepScenario analyses one concrete scenario through the sweep
	// engine as a single-cell grid, sharing the same cache, session-pool
	// and progress machinery as template sweeps.
	SweepScenario = sweep.RunScenario
	// NewSweepCache returns an empty shared verdict cache.
	NewSweepCache = sweep.NewCache
	// NewTieredSweepCache returns a cache layered over a persistent tier:
	// memory → tier → compute, with write-behind of computed verdicts.
	NewTieredSweepCache = sweep.NewTieredCache
	// OpenVerdictStore opens (creating if needed) a verdict store
	// directory and loads its record index; corrupt records are
	// quarantined, never fatal.
	OpenVerdictStore = store.Open
)

// Sweep cell statuses (SweepCellResult.Status).
const (
	SweepStatusDone      = sweep.StatusDone
	SweepStatusError     = sweep.StatusError
	SweepStatusCancelled = sweep.StatusCancelled
)

// Runs, process-time graphs and views.
type (
	// Run is a finite run prefix: inputs plus graph sequence.
	Run = ptg.Run
	// Views carries the hash-consed views of a run.
	Views = ptg.Views
	// Interner hash-conses causal cones.
	Interner = ptg.Interner
	// Cone is an explicit causal cone (for rendering and verification).
	Cone = ptg.Cone
)

var (
	// NewRun builds a run with the given inputs and no rounds.
	NewRun = ptg.NewRun
	// NewInterner returns an empty view interner.
	NewInterner = ptg.NewInterner
	// ComputeViews computes all views of a run.
	ComputeViews = ptg.ComputeViews
	// ConeOf extracts the explicit causal cone of (p, t).
	ConeOf = ptg.ConeOf
	// RenderPTGraph draws a process-time graph like Figure 2.
	RenderPTGraph = ptg.Render
	// RenderPTGraphDOT emits Graphviz DOT for a process-time graph.
	RenderPTGraphDOT = ptg.RenderDOT
	// AgreeLevel, MinAgreeLevel and MaxAgreeLevel expose the distance
	// exponents of d_{p}, d_min and d_max on finite prefixes.
	AgreeLevel    = ptg.AgreeLevel
	MinAgreeLevel = ptg.MinAgreeLevel
	MaxAgreeLevel = ptg.MaxAgreeLevel
)

// Topological analysis.
type (
	// Space is a horizon-t prefix space of an adversary.
	Space = topo.Space
	// Decomposition is its connected-component structure.
	Decomposition = topo.Decomposition
	// Component is one ε-approximation class.
	Component = topo.Component
)

// SpaceConfig collects the optional knobs of BuildSpaceCtx.
type SpaceConfig = topo.Config

var (
	// BuildSpaceCtx enumerates a prefix space under a context; grow the
	// result one round at a time with Space.Extend instead of rebuilding.
	BuildSpaceCtx = topo.BuildCtx
	// DecomposeCtx computes the ε-approximation components of a space
	// (Definition 6.2) in one scan of its views; it is the decomposer
	// every Analyzer horizon runs.
	DecomposeCtx = topo.DecomposeCtx
	// CrossDecisionLevel measures a fixed algorithm's decision-set
	// separation over a space (Corollary 6.1).
	CrossDecisionLevel = check.CrossDecisionLevel
)

// Solvability checking and the universal algorithm.
type (
	// Analyzer is a stateful solvability-analysis session: it refines the
	// adversary's prefix space one horizon at a time (incrementally, via
	// Space.Extend) and supports cancellation, progress reporting and
	// manual stepping. Construct with NewAnalyzer and the With* options.
	Analyzer = check.Analyzer
	// AnalyzerOption configures an Analyzer at construction.
	AnalyzerOption = check.AnalyzerOption
	// HorizonReport describes one analysed horizon; see WithProgress.
	HorizonReport = check.HorizonReport
	// CheckOptions configure CheckConsensus.
	CheckOptions = check.Options
	// CheckResult is the analysis outcome.
	CheckResult = check.Result
	// Verdict is the overall classification.
	Verdict = check.Verdict
	// DecisionMap is the compiled universal algorithm of Theorem 5.5.
	DecisionMap = check.DecisionMap
	// DecisionRule is a causally-local decision rule.
	DecisionRule = check.Rule
	// LocalView is the causally-local knowledge a rule inspects.
	LocalView = check.View
)

// Analysis sessions.
var (
	// NewAnalyzer creates an analysis session for an adversary.
	NewAnalyzer = check.NewAnalyzer
	// WithInputDomain sets the number of input values (default 2).
	WithInputDomain = check.WithInputDomain
	// WithMaxHorizon bounds the prefix horizons analysed (default 7).
	WithMaxHorizon = check.WithMaxHorizon
	// WithMaxRuns bounds the prefix-space size.
	WithMaxRuns = check.WithMaxRuns
	// WithDefaultValue sets the fallback component decision value.
	WithDefaultValue = check.WithDefaultValue
	// WithCertChainLen bounds the bivalence-certificate search.
	WithCertChainLen = check.WithCertChainLen
	// WithLatencySlack sets the non-compact decision-latency budget.
	WithLatencySlack = check.WithLatencySlack
	// WithNoSymmetry disables the symmetry quotient (DESIGN.md §13), both
	// its process-automorphism part and its input-value part: the session
	// interns the full prefix space instead of one representative per
	// orbit. Verdicts and reports are identical either way; use it for
	// differential testing and symmetry-bug triage.
	WithNoSymmetry = check.WithNoSymmetry
	// WithProgress registers a per-horizon progress callback.
	WithProgress = check.WithProgress
	// WithCheckOptions bulk-applies a CheckOptions struct.
	WithCheckOptions = check.WithOptions
)

// ErrHorizonExhausted is returned by Analyzer.Step past MaxHorizon.
var ErrHorizonExhausted = check.ErrHorizonExhausted

// Out-of-core paging and session checkpoint/resume.
type (
	// Pager is the frontier paging layer: it spills cold frontier rounds'
	// column arrays to checksummed page files under a hot-set byte budget
	// and faults them back in transparently. Attach one to an Analyzer
	// with WithPager.
	Pager = pager.Pager
	// PagerConfig configures NewPager (directory, hot-set budget).
	PagerConfig = pager.Config
	// CheckpointConfig tunes RunCheckpointed (directory, hot-set budget,
	// per-horizon observer); its Every field is deprecated and ignored.
	CheckpointConfig = ckpt.Config
)

var (
	// NewPager opens (or creates) a page directory.
	NewPager = pager.New
	// WithPager attaches a paging layer to an Analyzer session.
	WithPager = check.WithPager
	// RunCheckpointed runs a full analysis resume-or-fresh: it continues
	// from a checkpoint when one matches, checkpoints after every horizon
	// it refines, so an interruption loses at most the horizon in flight,
	// and cleans up on success. Its trailing int is ignored.
	RunCheckpointed = ckpt.RunCheck
)

// Verdicts.
const (
	VerdictSolvable   = check.VerdictSolvable
	VerdictImpossible = check.VerdictImpossible
	VerdictUnknown    = check.VerdictUnknown
)

var (
	// CheckConsensus analyses solvability under an adversary.
	CheckConsensus = check.Consensus
	// BuildDecisionMap compiles the universal algorithm from a
	// decomposition.
	BuildDecisionMap = check.BuildDecisionMap
)

// Simulation.
type (
	// Process is a deterministic message-passing consensus process.
	Process = sim.Process
	// Trace is an execution record.
	Trace = sim.Trace
	// Violation is a consensus property breach.
	Violation = sim.Violation
)

var (
	// Execute runs processes over a run's graph sequence.
	Execute = sim.Execute
	// NewFullInfo builds full-information processes driven by a rule.
	NewFullInfo = sim.NewFullInfo
	// NewFloodMin builds the classic flooding baseline.
	NewFloodMin = sim.NewFloodMin
	// ExhaustiveSim executes all admissible runs of an adversary.
	ExhaustiveSim = sim.Exhaustive
	// RandomRun and RandomDoneRun sample admissible runs.
	RandomRun     = sim.RandomRun
	RandomDoneRun = sim.RandomDoneRun
	// CheckProperties verifies (T),(A),(V) on a trace.
	CheckProperties = sim.CheckConsensus
)

// Exact lasso analysis.
type (
	// LassoRun is an ultimately-periodic infinite run.
	LassoRun = lasso.Run
	// LassoAnalysis is the exact structure of a finite adversary.
	LassoAnalysis = lasso.Analysis
)

var (
	// NewLassoRun builds an ultimately-periodic run.
	NewLassoRun = lasso.NewRun
	// AgreementForever decides d_{p} = 0 exactly on lasso pairs.
	AgreementForever = lasso.AgreementForever
	// LassoDistanceZero decides d_min = 0 exactly.
	LassoDistanceZero = lasso.DistanceZero
	// LassoAgreeLevels returns exact per-process difference times.
	LassoAgreeLevels = lasso.AgreeLevels
	// LassoMinAgreeLevel returns the exact d_min exponent.
	LassoMinAgreeLevel = lasso.MinAgreeLevel
	// AnalyzeFinite applies Corollary 5.6 exactly to a finite adversary.
	AnalyzeFinite = lasso.Analyze
)

// Combinatorial baselines.
type (
	// HeardSetAnalysis is the broadcast automaton result.
	HeardSetAnalysis = baseline.HeardSetAnalysis
	// BivalenceCertificate is a bounded-chain impossibility proof.
	BivalenceCertificate = baseline.BivalenceCertificate
	// PumpCertificate is a self-similar impossibility proof.
	PumpCertificate = baseline.PumpCertificate
)

var (
	// AnalyzeHeardSet runs the broadcast automaton for one source.
	AnalyzeHeardSet = baseline.AnalyzeHeardSet
	// GuaranteedBroadcasters lists processes broadcasting in every run.
	GuaranteedBroadcasters = baseline.GuaranteedBroadcasters
	// ProveBivalent searches bounded bivalent chain certificates.
	ProveBivalent = baseline.ProveBivalent
	// FindPumpCertificate searches alternating-pump certificates.
	FindPumpCertificate = baseline.FindPumpCertificate
)
