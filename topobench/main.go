// Command topobench is the topocon benchmark. It runs one workload for a
// fixed time and prints, as the last line of its standard output, one JSON
// object with the keys correct, attempted, failed and metrics:
//
//	topobench --workload star-quotient --seed 1 --seconds 10 --trace 0
//
// Workloads (see NOTES.md for why each was chosen):
//
//	star-quotient  Analyzer.Check of lossy-star-4 at horizon 8 under the S₃ quotient
//	star-durable   the same adversary at horizon 7, -no-symmetry, through
//	               ckpt.RunCheck under a 256 KiB pager budget, interrupted
//	               after horizon 5 and resumed
//	daemon-cold    a seeded document stream replayed against topoconsvc on
//	               an empty store by two closed-loop clients
//	daemon-warm    the same stream replayed against a restarted topoconsvc
//	               on the store the stream filled
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run drives the same inputs through the modules' public
// functions with a span around each call and reports per-layer metrics.
// It must run from the root of a topocon checkout; run.sh builds it and the
// daemon there.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is one run's configuration and accumulated output.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // checkout root
	build    string // build directory (binaries, work files, traces)
	work     string // this run's scratch directory, removed at exit

	metrics   map[string]metricValue
	info      map[string]any
	attempted int
	failed    int
	failures  []string
	tracers   []*tracer
}

func (b *bench) metric(name string, v float64, unit string) {
	b.metrics[name] = metricValue{Value: v, Unit: unit}
}

// expect records why an output is wrong unless ok, and returns ok. A
// wrong output is counted against its operation (count), not a crash.
func (b *bench) expect(ok bool, format string, args ...any) bool {
	if !ok && len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// count records one attempted operation, failed unless ok.
func (b *bench) count(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

func (b *bench) newTracer() *tracer {
	t := newTracer()
	b.tracers = append(b.tracers, t)
	return t
}

// layerUnits gives the unit of every per-layer metric; each traced run
// reports all of them, 0 where a layer does no work on the workload.
var layerUnits = map[string]string{
	"topo.extend_ms":            "ms",
	"topo.extend_ns_per_item":   "ns",
	"topo.refine_ms":            "ms",
	"topo.decompose_ms":         "ms",
	"topo.summary_ms":           "ms",
	"topo.items_interned":       "count",
	"topo.items_full":           "count",
	"topo.components":           "count",
	"ptg.views_interned":        "count",
	"baseline.pump_ms":          "ms",
	"baseline.bivalence_ms":     "ms",
	"check.decision_map_ms":     "ms",
	"check.decisive_views":      "count",
	"check.step_ms":             "ms",
	"check.finalize_ms":         "ms",
	"check.analyzer_ms":         "ms",
	"pager.pages_spilled":       "count",
	"pager.pages_faulted":       "count",
	"pager.peak_hot_bytes":      "bytes",
	"ckpt.save_ms":              "ms",
	"ckpt.saves":                "count",
	"ckpt.load_ms":              "ms",
	"ckpt.bytes":                "bytes",
	"scenario.parse_ms":         "ms",
	"ma.fingerprint_ms":         "ms",
	"ma.automorphisms_ms":       "ms",
	"sweep.hit_ratio":           "ratio",
	"sweep.memory_hits":         "count",
	"sweep.disk_hits":           "count",
	"sweep.computes":            "count",
	"store.open_ms":             "ms",
	"store.get_ms":              "ms",
	"store.put_ms":              "ms",
	"store.records":             "count",
	"svc.queue_wait_ms":         "ms",
	"svc.run_ms":                "ms",
	"svc.event_lag_ms":          "ms",
	"svc.http_ms":               "ms",
	"svc.rejected":              "count",
	"svc.analyzers_constructed": "count",
	"trace.unattributed_ms":     "ms",
	"trace.attributed_share":    "ratio",
	"trace.overhead_ratio":      "ratio",
}

// layerMedians reports, for every per-layer metric, the median over the
// traced repetitions. Each repetition's trace.unattributed_ms is its traced
// wall minus its layers' summed self times.
func (b *bench) layerMedians(reps []map[string]float64) {
	for _, m := range reps {
		if wall, ok := m["trace.wall_ms"]; ok {
			m["trace.unattributed_ms"] = wall - m["trace.attributed_ms"]
			if wall > 0 {
				m["trace.attributed_share"] = m["trace.attributed_ms"] / wall
			}
		}
	}
	for name, unit := range layerUnits {
		var xs []float64
		for _, m := range reps {
			xs = append(xs, m[name])
		}
		b.metric(name, median(xs), unit)
	}
}

var workloads = map[string]func(context.Context, *bench) error{
	"star-quotient": runStarQuotient,
	"star-durable":  runStarDurable,
	"daemon-cold":   func(ctx context.Context, b *bench) error { return runDaemon(ctx, b, false) },
	"daemon-warm":   func(ctx context.Context, b *bench) error { return runDaemon(ctx, b, true) },
}

func main() {
	workload := flag.String("workload", "", "workload: star-quotient, star-durable, daemon-cold or daemon-warm")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 for the traced per-layer run")
	build := flag.String("build-dir", ".bench_build", "directory holding the built daemon and the run's work files")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "topobench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(2)
	}
	buildDir, err := filepath.Abs(*build)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		root:     root,
		build:    buildDir,
		work:     filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		metrics:  map[string]metricValue{},
		info:     map[string]any{},
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(1)
	}
	err = run(context.Background(), b)
	if rerr := os.RemoveAll(b.work); rerr != nil {
		fmt.Fprintln(os.Stderr, "topobench: removing work directory:", rerr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "topobench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if b.trace {
		if err := b.writeTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "topobench: writing spans:", err)
		}
	}
	res := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	b.info["workload"] = b.workload
	b.info["seed"] = b.seed
	b.info["seconds"] = *seconds
	b.info["trace"] = *traceFlag
	b.info["fail_share"] = float64(b.failed) / float64(max(b.attempted, 1))
	b.info["env"] = environment(root)
	if len(b.failures) > 0 {
		b.info["failures"] = b.failures
	}
	info, _ := json.Marshal(map[string]any{"topobench": b.info})
	fmt.Println(string(info))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// writeTrace writes every span of the run to the build directory.
func (b *bench) writeTrace() error {
	dir := filepath.Join(b.build, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var all [][]span
	for _, t := range b.tracers {
		all = append(all, t.spans)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	b.info["spans"] = path
	return os.WriteFile(path, data, 0o644)
}

// environment records what the result set was measured on: processor
// count, GOMAXPROCS, CPU model, Go version, and the commit when the
// checkout is a git repository, plus a digest of the Go sources either way.
func environment(root string) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
		"source":     sourceDigest(root),
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			env["commit"] = strings.TrimSpace(string(out))
		}
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file outside the build
// directory and this benchmark, in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && p != root && (strings.HasPrefix(name, ".") || name == "topobench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || p == filepath.Join(root, "go.mod")) {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(bytes.TrimSpace(data))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
