// Command topocheck analyses consensus solvability under a message
// adversary using the topological characterizations of Nowak, Schmid and
// Winkler (PODC 2019).
//
// Usage examples:
//
//	topocheck -preset lossy3
//	topocheck -preset lossy2 -horizon 6
//	topocheck -n 2 -graphs "2->1 | 1->2 | 1<->2"
//	topocheck -preset stable -n 2 -window 2 -horizon 6
//	topocheck -preset committed -deadline 3
//	topocheck -n 3 -graphs "1->2,2->3,3->1 | 1<->2,1<->3,2<->3"
//	topocheck -scenario scenarios/lossylink-rooted.json
//	topocheck -scenario scenarios/chaos-then-stable.json -validate
//	topocheck -list
//
// Parameterized sweeps expand a template (a scenario document with a
// "params" block of integer ranges/lists and ${param} placeholders) into
// its concrete scenario grid and analyse the cells over a bounded worker
// pool, deduping behaviourally isomorphic cells through a
// fingerprint-keyed verdict cache:
//
//	topocheck -sweep scenarios/sweep-lossbound-n2.json
//	topocheck -sweep tpl.json -sweep-workers 8 -out report.json
//	topocheck -sweep tpl.json -sweep-timeout 30s
//	topocheck -sweep tpl.json -cache-dir ~/.cache/topocon/verdicts
//	topocheck -sweep tpl.json -validate
//
// The sweep prints a per-cell table (verdict, separation horizon, runs
// explored, cache hit/miss, wall time) plus summary statistics; -out
// additionally writes the structured JSON report. The exit status is 1
// when any cell errors or contradicts the template's pinned verdict.
//
// -cache-dir layers the in-memory verdict cache over a persistent
// content-addressed store (internal/store): verdicts computed by earlier
// runs — or by a topoconsvc daemon sharing the directory — are served
// from disk (the table's cache column shows "disk"), and newly computed
// ones are written back, so a scenario corpus accumulates one verdict
// per behavioural class across processes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"topocon"
)

func main() {
	var (
		preset       = flag.String("preset", "", "adversary preset: lossy2, lossy3, unrestricted, stable, committed — or a built-in scenario name (see -list)")
		scen         = flag.String("scenario", "", "declarative scenario file (JSON); its check options apply unless overridden by explicit flags")
		sweepPath    = flag.String("sweep", "", "parameterized template file (JSON with a params block): expand the grid and analyse every cell")
		sweepWorkers = flag.Int("sweep-workers", 1, "with -sweep: number of concurrently analysed cells")
		sweepTimeout = flag.Duration("sweep-timeout", 0, "with -sweep: per-cell analysis wall-time budget (0 = unbounded)")
		cacheDir     = flag.String("cache-dir", "", "with -sweep: persistent verdict store directory — verdicts read through it and computed ones are written back, so isomorphic cells are solved once across runs and processes (shared with topoconsvc)")
		out          = flag.String("out", "", "with -sweep: also write the structured JSON report to this file ('-' for stdout)")
		list         = flag.Bool("list", false, "list the built-in scenarios and exit")
		validate     = flag.Bool("validate", false, "with -scenario/-preset: check the automaton contract and print the fingerprint instead of analysing; with -sweep (or a -scenario path holding a template): do so for every expanded grid cell")
		n            = flag.Int("n", 2, "number of processes")
		graphs       = flag.String("graphs", "", "oblivious graph set, '|'-separated edge lists (1-based ids)")
		horizon      = flag.Int("horizon", 5, "maximum analysis horizon")
		domain       = flag.Int("domain", 2, "input domain size")
		window       = flag.Int("window", 1, "stability window for -preset stable")
		deadline     = flag.Int("deadline", 2, "deadline for -preset committed")
		retain       = flag.Int("retain", 1, "prefix spaces kept alive besides the separation horizon's (bounds session memory); 0 retains every horizon")
		verbose      = flag.Bool("v", false, "print per-horizon decomposition statistics as the session refines (with -sweep: per-cell progress lines)")
		ckptDir      = flag.String("checkpoint-dir", "", "checkpoint/resume directory: the session checkpoints there as it refines and a rerun resumes from the last completed horizon instead of starting over; with -sweep: per-cell checkpoints under it")
		ckptEvery    = flag.Int("checkpoint-every", 1, "with -checkpoint-dir: checkpoint cadence in horizons")
		hotBytes     = flag.Int64("pager-hot-bytes", 0, "with -checkpoint-dir: frontier hot-set budget in bytes — colder rounds spill to page files and fault back on demand (0 = unlimited)")
		noSymmetry   = flag.Bool("no-symmetry", false, "analyse the full prefix space instead of quotienting by the adversary's process automorphisms; verdicts are identical, only interned-run counts differ (differential testing)")
	)
	flag.Parse()

	if *list {
		listScenarios()
		return
	}
	ckpt := ckptFlags{dir: *ckptDir, every: *ckptEvery, hotBytes: *hotBytes}
	if *sweepPath != "" {
		runSweep(*sweepPath, *sweepWorkers, *sweepTimeout, *cacheDir, *out, *validate, *verbose, *noSymmetry, ckpt)
		return
	}
	// -scenario -validate accepts either document kind: a template file is
	// detected by its params block and validated cell by cell, so corpus
	// walkers (CI) need no file classification of their own.
	if *scen != "" && *validate {
		if data, err := os.ReadFile(*scen); err == nil && topocon.IsTemplateDoc(data) {
			runSweep(*scen, *sweepWorkers, *sweepTimeout, *cacheDir, *out, true, *verbose, *noSymmetry, ckpt)
			return
		}
	}

	adv, opts, err := resolveWorkload(*scen, *preset, *n, *graphs, *window, *deadline, *horizon, *domain)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topocheck:", err)
		os.Exit(2)
	}
	if *noSymmetry {
		opts.NoSymmetry = true
	}
	if *validate {
		if err := validateWorkload(adv, opts.MaxHorizon); err != nil {
			fmt.Fprintln(os.Stderr, "topocheck:", err)
			os.Exit(1)
		}
		return
	}
	// Interrupting a long session (Ctrl-C) cancels the analysis cleanly at
	// its next cancellation check instead of killing the process mid-print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if ckpt.dir != "" {
		runCheckpointed(ctx, adv, opts, ckpt, *verbose)
		return
	}

	anOpts := []topocon.AnalyzerOption{
		topocon.WithCheckOptions(opts),
		topocon.WithRetainSpaces(*retain),
	}
	if *verbose {
		fmt.Println(progressHeader)
		anOpts = append(anOpts, topocon.WithProgress(printProgress))
	}
	an, err := topocon.NewAnalyzer(adv, anOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topocheck:", err)
		os.Exit(2)
	}
	res, err := an.Check(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "topocheck: interrupted at horizon %d\n", an.Horizon())
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "topocheck:", err)
		os.Exit(1)
	}
	if *verbose {
		fmt.Println()
	}
	fmt.Print(res.Summary())
}

// progressHeader and printProgress render the -v per-horizon table. The
// last column is the cumulative interned view count, one per automorphism
// orbit under the symmetry quotient.
const progressHeader = "horizon    runs  interned  components  mixed  broadcastable    elapsed     views"

func printProgress(r topocon.HorizonReport) {
	fmt.Printf("%7d  %6d  %8d  %10d  %5d  %13v  %9v  %8d\n",
		r.Horizon, r.Runs, r.InternedRuns, r.Components, r.MixedComponents, r.Broadcastable, r.Elapsed, r.InternedViews)
}

// ckptFlags bundles the checkpoint/paging flags shared by the session and
// sweep paths.
type ckptFlags struct {
	dir      string
	every    int
	hotBytes int64
}

// runCheckpointed drives one scenario to a verdict with checkpoint/resume:
// the session checkpoints into dir as it refines, an interrupted run saves
// its last completed horizon, and a rerun resumes there — re-extending
// nothing it already analysed. Exit status mirrors the plain path (130 on
// interrupt), plus 1 on hard checkpoint mismatches.
func runCheckpointed(ctx context.Context, adv topocon.Adversary, opts topocon.CheckOptions, ck ckptFlags, verbose bool) {
	cfg := topocon.CheckpointConfig{Dir: ck.dir, HotBytes: ck.hotBytes, Every: ck.every}
	if verbose {
		fmt.Println(progressHeader)
		cfg.OnHorizon = printProgress
	}
	res, info, err := topocon.RunCheckpointed(ctx, adv, cfg, opts, 0)
	if info.Resumed {
		fmt.Fprintf(os.Stderr, "topocheck: resumed at horizon %d from %s\n", info.ResumedAt, ck.dir)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "topocheck: interrupted; %d checkpoint(s) written to %s — rerun to resume\n",
				info.Written, ck.dir)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "topocheck:", err)
		os.Exit(1)
	}
	if info.SaveErr != nil {
		fmt.Fprintf(os.Stderr, "topocheck: warning: mid-run checkpointing failed: %v\n", info.SaveErr)
	}
	if verbose {
		fmt.Println()
		st := info.PagerStats
		fmt.Fprintf(os.Stderr, "paging: %d spilled / %d faulted, peak hot %d B; %d checkpoints written\n",
			st.PagesSpilled, st.PagesFaulted, st.PeakHotBytes, info.Written)
	}
	fmt.Print(res.Summary())
}

// runSweep drives a parameterized template through the sweep engine (or,
// with validate, through per-cell contract checking only). Exit status: 2
// on configuration errors, 1 when any cell errors or contradicts a pinned
// verdict, 130 on interrupt.
func runSweep(path string, workers int, timeout time.Duration, cacheDir, out string, validate, verbose, noSymmetry bool, ck ckptFlags) {
	tpl, err := topocon.LoadTemplate(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topocheck:", err)
		os.Exit(2)
	}
	if validate {
		cells, err := tpl.Expand()
		if err != nil {
			fmt.Fprintln(os.Stderr, "topocheck:", err)
			os.Exit(1)
		}
		for _, cell := range cells {
			if err := validateWorkload(cell.Scenario.Adversary, cell.Scenario.Options.MaxHorizon); err != nil {
				fmt.Fprintf(os.Stderr, "topocheck: %s: %v\n", cell.Scenario.Name, err)
				os.Exit(1)
			}
		}
		fmt.Printf("template  %s: %d cells validated\n", tpl.Name, len(cells))
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := topocon.SweepConfig{
		Workers:         workers,
		CellTimeout:     timeout,
		CheckpointDir:   ck.dir,
		CheckpointEvery: ck.every,
		PagerHotBytes:   ck.hotBytes,
		NoSymmetry:      noSymmetry,
	}
	if cacheDir != "" {
		st, err := topocon.OpenVerdictStore(cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "topocheck:", err)
			os.Exit(2)
		}
		cfg.Cache = topocon.NewTieredSweepCache(st)
	}
	if verbose {
		cfg.Progress = func(c topocon.SweepCellResult) {
			fmt.Fprintf(os.Stderr, "%-9s %s (%.1fms)\n", c.Status+":", c.Name, c.WallMillis)
		}
	}
	report, err := topocon.Sweep(ctx, tpl, cfg)
	if report == nil {
		fmt.Fprintln(os.Stderr, "topocheck:", err)
		os.Exit(2)
	}
	fmt.Print(report.Table())
	if out != "" {
		data, jsonErr := report.JSON()
		if jsonErr != nil {
			fmt.Fprintln(os.Stderr, "topocheck:", jsonErr)
			os.Exit(1)
		}
		data = append(data, '\n')
		if out == "-" {
			os.Stdout.Write(data)
		} else if writeErr := os.WriteFile(out, data, 0o644); writeErr != nil {
			fmt.Fprintln(os.Stderr, "topocheck:", writeErr)
			os.Exit(1)
		}
	}
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "topocheck: interrupted with %d of %d cells done\n",
			report.Summary.Done, report.Summary.Cells)
		os.Exit(130)
	case err != nil:
		fmt.Fprintln(os.Stderr, "topocheck:", err)
		os.Exit(1)
	case report.Summary.Errors > 0 || report.Summary.Mismatches > 0:
		fmt.Fprintf(os.Stderr, "topocheck: %d cell errors, %d verdict mismatches\n",
			report.Summary.Errors, report.Summary.Mismatches)
		os.Exit(1)
	}
}

// resolveWorkload produces the adversary and checker options from either a
// scenario file, a built-in scenario name, or the classic preset/graph
// flags. Scenario check options are the base; explicit -horizon and
// -domain flags override them.
func resolveWorkload(scenPath, preset string, n int, graphSpec string, window, deadline, horizon, domain int) (topocon.Adversary, topocon.CheckOptions, error) {
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var sc *topocon.Scenario
	switch {
	case scenPath != "":
		var err error
		sc, err = topocon.LoadScenario(scenPath)
		if err != nil {
			if data, rerr := os.ReadFile(scenPath); rerr == nil && topocon.IsTemplateDoc(data) {
				return nil, topocon.CheckOptions{}, fmt.Errorf("%s is a parameterized template; run it with -sweep", scenPath)
			}
			return nil, topocon.CheckOptions{}, err
		}
	case preset != "":
		if builtin, ok := topocon.LookupScenario(preset); ok {
			sc = builtin
		}
	}
	if sc != nil {
		opts := sc.Options
		if explicit["horizon"] {
			opts.MaxHorizon = horizon
		}
		if explicit["domain"] {
			opts.InputDomain = domain
		}
		return sc.Adversary, opts, nil
	}

	adv, err := buildAdversary(preset, n, graphSpec, window, deadline)
	if err != nil {
		return nil, topocon.CheckOptions{}, err
	}
	return adv, topocon.CheckOptions{MaxHorizon: horizon, InputDomain: domain}, nil
}

// validateWorkload is the CI entry point behind -validate: it checks the
// adversary automaton contract to the analysis horizon and prints the
// behavioural fingerprint.
func validateWorkload(adv topocon.Adversary, horizon int) error {
	depth := horizon
	if depth <= 0 {
		depth = 5
	}
	if err := topocon.ValidateAdversary(adv, depth); err != nil {
		return err
	}
	fmt.Printf("ok        %s\nfingerprint(depth=%d): %s\n", adv.Name(), depth, topocon.Fingerprint(adv, depth))
	return nil
}

func listScenarios() {
	scenarios, err := topocon.ScenarioRegistry()
	if err != nil {
		fmt.Fprintln(os.Stderr, "topocheck:", err)
		os.Exit(1)
	}
	fmt.Println("built-in scenarios (run with -preset <name>; files via -scenario <path>):")
	fmt.Println()
	for _, s := range scenarios {
		fmt.Printf("  %-22s %s\n", s.Name, s.Description)
	}
}

func buildAdversary(preset string, n int, graphSpec string, window, deadline int) (topocon.Adversary, error) {
	switch preset {
	case "lossy2":
		return topocon.LossyLink2(), nil
	case "lossy3":
		return topocon.LossyLink3(), nil
	case "unrestricted":
		return topocon.Unrestricted(n), nil
	case "stable":
		if n != 2 {
			return nil, fmt.Errorf("preset stable is wired for n=2 (chaos {<-,<->}, stable {->}); use the library for other shapes")
		}
		return topocon.NewEventuallyStable("",
			[]topocon.Graph{topocon.LeftGraph, topocon.BothGraph},
			[]topocon.Graph{topocon.RightGraph}, window)
	case "committed":
		if n != 2 {
			return nil, fmt.Errorf("preset committed is wired for n=2; use the library for other shapes")
		}
		return topocon.NewCommittedSuffix("",
			[]topocon.Graph{topocon.LeftGraph, topocon.RightGraph, topocon.BothGraph},
			[]topocon.Graph{topocon.LeftGraph, topocon.RightGraph}, deadline)
	case "":
		if graphSpec == "" {
			return nil, fmt.Errorf("provide -preset, -graphs or -scenario")
		}
		parts := strings.Split(graphSpec, "|")
		set := make([]topocon.Graph, 0, len(parts))
		for _, p := range parts {
			g, err := topocon.ParseGraph(n, p)
			if err != nil {
				return nil, err
			}
			set = append(set, g)
		}
		return topocon.NewOblivious("", set)
	default:
		return nil, fmt.Errorf("unknown preset %q (not a flag preset and not a built-in scenario; see -list)", preset)
	}
}
