// Command benchjson converts `go test -bench` output into a machine-readable
// JSON document, so the perf trajectory of the hot paths (extension,
// refinement, decomposition) can be tracked across PRs by tooling instead of
// eyeballs.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem -count 5 ./... | benchjson -o BENCH.json
//	benchjson -o BENCH.json bench-output.txt
//	benchjson -compare BENCH_PREV.json -o BENCH.json bench-output.txt
//
// Input is read from the file arguments, or stdin when none are given. Lines
// that are not benchmark results (build noise, PASS/ok trailers) are ignored;
// context lines (goos/goarch/pkg/cpu) are captured into the header and
// attached to the results that follow them. The result lines of one
// benchmark in one package — several under `go test -count N` — are
// aggregated into one entry: the median, min and max ns/op, the median
// B/op and allocs/op, and the number of runs. Exits non-zero if no
// benchmark line was found — a smoke guard against silently-empty perf
// artifacts.
//
// With -compare, the document goes only to -o, and stdout gets a table
// comparing each benchmark with the one of the same package and name in
// the given earlier document. A benchmark is flagged "slower" or "faster"
// only when its median moved by more than the two runs' combined min–max
// spread, (max − min) of the earlier run plus (max − min) of this one:
// under -count N every run of either side lies within that distance of
// its own median, so a smaller move is not told apart from noise.
// Benchmarks present on one side only are listed as "new" or "gone".
//
// With -pair, benchjson instead runs two compiled test binaries, the
// parent's and the change's, alternately for -rounds rounds under one
// -bench regex and prints a paired table (see pair.go):
//
//	benchjson -pair OLD.test NEW.test -bench 'BenchmarkExtendQuotient' -rounds 10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Result is one benchmark's measurements, aggregated over its runs.
type Result struct {
	// Name is the full benchmark name including sub-benchmark path and
	// GOMAXPROCS suffix, e.g. "BenchmarkRefineVsDecompose/refine-8".
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in, from the preceding "pkg:"
	// context line (empty if none was seen).
	Pkg string `json:"pkg,omitempty"`
	// Runs is the number of result lines aggregated (N under -count N).
	Runs int `json:"runs"`
	// Iterations is b.N summed over the runs.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the median wall-clock cost per operation in nanoseconds
	// (the mean of the two middle runs for an even count); NsPerOpMin and
	// NsPerOpMax bound the runs.
	NsPerOp    float64 `json:"ns_per_op"`
	NsPerOpMin float64 `json:"ns_per_op_min"`
	NsPerOpMax float64 `json:"ns_per_op_max"`
	// BytesPerOp and AllocsPerOp are medians, present when -benchmem was
	// on for every run.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// run is one parsed result line.
type run struct {
	iters             int64
	ns                float64
	bytesOp, allocsOp *float64
}

// Document is the emitted JSON artifact.
type Document struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout, or none with -compare)")
	prev := flag.String("compare", "", "earlier benchjson document to compare with")
	pair := flag.Bool("pair", false, "alternate the test binaries OLD and NEW (the two arguments)")
	bench := flag.String("bench", ".", "with -pair: the -test.bench regex")
	benchtime := flag.String("benchtime", "1s", "with -pair: the -test.benchtime of each run")
	rounds := flag.Int("rounds", 10, "with -pair: rounds, each running both binaries once")
	args := parseInterleaved(os.Args[1:])

	if *pair {
		if len(args) != 2 || *rounds < 1 {
			fail(fmt.Errorf("-pair wants two test binaries and -rounds ≥ 1"))
		}
		runArgs := []string{"-test.run", "^$", "-test.bench", *bench, "-test.benchtime", *benchtime}
		series, err := runPair(args[0], args[1], runArgs, *rounds, execBinary)
		if err != nil {
			fail(err)
		}
		if len(series) == 0 {
			fail(fmt.Errorf("no benchmark ran on both sides in every round"))
		}
		if err := writePairTable(os.Stdout, series); err != nil {
			fail(err)
		}
		return
	}

	var in io.Reader
	if len(args) == 0 {
		in = os.Stdin
	} else {
		readers := make([]io.Reader, 0, len(args))
		for _, path := range args {
			f, err := os.Open(path)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			readers = append(readers, f)
		}
		in = io.MultiReader(readers...)
	}

	doc, err := parse(in)
	if err != nil {
		fail(err)
	}
	if len(doc.Benchmarks) == 0 {
		fail(fmt.Errorf("no benchmark results found in input"))
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if *prev != "" {
		raw, err := os.ReadFile(*prev)
		if err != nil {
			fail(err)
		}
		var old Document
		if err := json.Unmarshal(raw, &old); err != nil {
			fail(fmt.Errorf("%s: %w", *prev, err))
		}
		if err := writeComparison(os.Stdout, compare(&old, doc)); err != nil {
			fail(err)
		}
	}
	switch {
	case *out != "":
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fail(err)
		}
	case *prev == "":
		os.Stdout.Write(data)
	}
}

// Comparison is one benchmark of the earlier document (Old) against the
// same package and name in the new one (New); either is nil when the
// benchmark ran on one side only.
type Comparison struct {
	Old, New *Result
	// Flag is "slower" or "faster" when the median moved by more than
	// Spread, "new" or "gone" for a one-sided benchmark, and empty
	// otherwise.
	Flag string
	// Spread is the combined min–max spread of the two runs in ns/op.
	Spread float64
}

// compare pairs the benchmarks of two documents by package and name, in
// the new document's order followed by those it no longer has.
func compare(old, cur *Document) []Comparison {
	type key struct{ pkg, name string }
	prev := make(map[key]*Result, len(old.Benchmarks))
	for i := range old.Benchmarks {
		r := &old.Benchmarks[i]
		prev[key{r.Pkg, r.Name}] = r
	}
	var out []Comparison
	for i := range cur.Benchmarks {
		r := &cur.Benchmarks[i]
		o, ok := prev[key{r.Pkg, r.Name}]
		if !ok {
			out = append(out, Comparison{New: r, Flag: "new"})
			continue
		}
		delete(prev, key{r.Pkg, r.Name})
		c := Comparison{Old: o, New: r, Spread: (o.NsPerOpMax - o.NsPerOpMin) + (r.NsPerOpMax - r.NsPerOpMin)}
		switch d := r.NsPerOp - o.NsPerOp; {
		case d > c.Spread:
			c.Flag = "slower"
		case -d > c.Spread:
			c.Flag = "faster"
		}
		out = append(out, c)
	}
	for i := range old.Benchmarks {
		if o := &old.Benchmarks[i]; prev[key{o.Pkg, o.Name}] == o {
			out = append(out, Comparison{Old: o, Flag: "gone"})
		}
	}
	return out
}

// writeComparison prints the comparison as an aligned table: medians in
// ns/op, the change of the median, and the combined spread, both relative
// to the earlier median.
func writeComparison(w io.Writer, cmp []Comparison) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "pkg\tbenchmark\told ns/op\tnew ns/op\tchange\tspread\tflag")
	for _, c := range cmp {
		r := c.New
		if r == nil {
			r = c.Old
		}
		oldNs, newNs, change, spread := "-", "-", "-", "-"
		if c.Old != nil {
			oldNs = strconv.FormatFloat(c.Old.NsPerOp, 'g', 4, 64)
		}
		if c.New != nil {
			newNs = strconv.FormatFloat(c.New.NsPerOp, 'g', 4, 64)
		}
		if c.Old != nil && c.New != nil && c.Old.NsPerOp > 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(c.New.NsPerOp-c.Old.NsPerOp)/c.Old.NsPerOp)
			spread = fmt.Sprintf("%.1f%%", 100*c.Spread/c.Old.NsPerOp)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", r.Pkg, r.Name, oldNs, newNs, change, spread, c.Flag)
	}
	return tw.Flush()
}

// parseInterleaved parses the command line's flags wherever they stand
// among the positional arguments, which it returns.
func parseInterleaved(args []string) []string {
	var pos []string
	for {
		_ = flag.CommandLine.Parse(args) // ExitOnError: a bad flag exits
		args = flag.Args()
		if len(args) == 0 {
			return pos
		}
		pos, args = append(pos, args[0]), args[1:]
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// parse scans `go test -bench` output: context lines set the header fields,
// "Benchmark..." lines become runs, aggregated per (package, name) in order
// of first appearance.
func parse(r io.Reader) (*Document, error) {
	doc := &Document{}
	pkg := ""
	type bench struct{ pkg, name string }
	var order []bench
	runs := map[bench][]run{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			name, res, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			b := bench{pkg, name}
			if _, seen := runs[b]; !seen {
				order = append(order, b)
			}
			runs[b] = append(runs[b], res)
		}
	}
	for _, b := range order {
		doc.Benchmarks = append(doc.Benchmarks, aggregate(b.name, b.pkg, runs[b]))
	}
	return doc, sc.Err()
}

// aggregate folds one benchmark's runs into a Result.
func aggregate(name, pkg string, runs []run) Result {
	res := Result{Name: name, Pkg: pkg, Runs: len(runs)}
	ns := make([]float64, len(runs))
	var bytesOp, allocsOp []float64
	for i, r := range runs {
		res.Iterations += r.iters
		ns[i] = r.ns
		if r.bytesOp != nil {
			bytesOp = append(bytesOp, *r.bytesOp)
		}
		if r.allocsOp != nil {
			allocsOp = append(allocsOp, *r.allocsOp)
		}
	}
	res.NsPerOp, res.NsPerOpMin, res.NsPerOpMax = median(ns), slices.Min(ns), slices.Max(ns)
	if len(bytesOp) == len(runs) {
		m := median(bytesOp)
		res.BytesPerOp = &m
	}
	if len(allocsOp) == len(runs) {
		m := median(allocsOp)
		res.AllocsPerOp = &m
	}
	return res
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); it sorts xs in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[mid-1] + xs[mid]) / 2
	}
	return xs[mid]
}

// parseBenchLine parses one result line of the standard form
//
//	BenchmarkName-8  	 100	  123456 ns/op	  4567 B/op	   89 allocs/op
//
// Unparseable lines are skipped (ok = false) rather than fatal: `-bench`
// output can interleave with log lines from the benchmarks themselves.
func parseBenchLine(line string) (string, run, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return "", run{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", run{}, false
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return "", run{}, false
	}
	res := run{iters: iters, ns: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			res.bytesOp = &v
		case "allocs/op":
			res.allocsOp = &v
		}
	}
	return fields[0], res, true
}
