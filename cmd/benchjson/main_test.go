package main

import (
	"fmt"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: topocon
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBuildFromScratch    	      20	    896750 ns/op	  851539 B/op	    4706 allocs/op
BenchmarkAnalyzerIncremental 	      20	    416840 ns/op	  448752 B/op	    1571 allocs/op
BenchmarkRefineVsDecompose/refine            	      20	     78006 ns/op	  119502 B/op	     601 allocs/op
PASS
ok  	topocon	0.040s
pkg: topocon/internal/ma
BenchmarkIntersectOverhead/base-8	 1000	  1234.5 ns/op
some stray log line
ok  	topocon/internal/ma	0.100s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || !strings.Contains(doc.CPU, "Xeon") {
		t.Errorf("header = %q/%q/%q", doc.Goos, doc.Goarch, doc.CPU)
	}
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[1]
	if b.Name != "BenchmarkAnalyzerIncremental" || b.Pkg != "topocon" ||
		b.Iterations != 20 || b.NsPerOp != 416840 {
		t.Errorf("benchmark 1 = %+v", b)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 448752 || b.AllocsPerOp == nil || *b.AllocsPerOp != 1571 {
		t.Errorf("benchmark 1 memory stats = %+v", b)
	}
	sub := doc.Benchmarks[2]
	if sub.Name != "BenchmarkRefineVsDecompose/refine" {
		t.Errorf("sub-benchmark name = %q", sub.Name)
	}
	last := doc.Benchmarks[3]
	if last.Pkg != "topocon/internal/ma" || last.NsPerOp != 1234.5 {
		t.Errorf("cross-package benchmark = %+v", last)
	}
	if last.BytesPerOp != nil || last.AllocsPerOp != nil {
		t.Errorf("benchmark without -benchmem carries memory stats: %+v", last)
	}
}

func TestParseRejectsNothing(t *testing.T) {
	doc, err := parse(strings.NewReader("PASS\nok x 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from noise", len(doc.Benchmarks))
	}
}

// countSample is `go test -count 3` output over two packages that share a
// benchmark name: each package's runs aggregate separately.
const countSample = `pkg: topocon
BenchmarkExtendQuotient/quotient-2 	 9	 72000000 ns/op	 44204 items	 13890874 B/op	 2190 allocs/op
BenchmarkExtendColumnar-2 	 600	 1000000 ns/op	 336000 B/op	 942 allocs/op
BenchmarkExtendQuotient/quotient-2 	 8	 78000000 ns/op	 44204 items	 13890800 B/op	 2189 allocs/op
BenchmarkExtendColumnar-2 	 650	 900000 ns/op	 336100 B/op	 942 allocs/op
BenchmarkExtendQuotient/quotient-2 	 8	 74000000 ns/op	 44204 items	 13890900 B/op	 2190 allocs/op
BenchmarkExtendColumnar-2 	 700	 500000 ns/op	 336200 B/op	 940 allocs/op
BenchmarkExtendColumnar-2 	 710	 600000 ns/op	 336300 B/op	 941 allocs/op
PASS
pkg: topocon/internal/ma
BenchmarkExtendColumnar-2 	 1000	 1234.5 ns/op
`

func TestParseAggregatesCount(t *testing.T) {
	doc, err := parse(strings.NewReader(countSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("aggregated into %d benchmarks, want 3", len(doc.Benchmarks))
	}
	q := doc.Benchmarks[0]
	if q.Name != "BenchmarkExtendQuotient/quotient-2" || q.Runs != 3 || q.Iterations != 25 ||
		q.NsPerOp != 74e6 || q.NsPerOpMin != 72e6 || q.NsPerOpMax != 78e6 {
		t.Errorf("odd count: %+v", q)
	}
	if q.AllocsPerOp == nil || *q.AllocsPerOp != 2190 || q.BytesPerOp == nil || *q.BytesPerOp != 13890874 {
		t.Errorf("odd count memory medians: %+v", q)
	}
	c := doc.Benchmarks[1]
	if c.Runs != 4 || c.NsPerOp != 750000 || c.NsPerOpMin != 500000 || c.NsPerOpMax != 1e6 {
		t.Errorf("even count (median of the middle two): %+v", c)
	}
	if c.AllocsPerOp == nil || *c.AllocsPerOp != 941.5 {
		t.Errorf("even count allocs median: %+v", c)
	}
	if ma := doc.Benchmarks[2]; ma.Pkg != "topocon/internal/ma" || ma.Runs != 1 ||
		ma.NsPerOp != 1234.5 || ma.NsPerOpMin != 1234.5 || ma.NsPerOpMax != 1234.5 {
		t.Errorf("same name in another package merged or misread: %+v", ma)
	}
}

// TestCompareFlagsOnlyOutsideCombinedSpread: a median that moved by more
// than the two runs' combined min–max spread is flagged, a smaller move is
// not, and benchmarks on one side only are listed as new or gone.
func TestCompareFlagsOnlyOutsideCombinedSpread(t *testing.T) {
	res := func(pkg, name string, med, lo, hi float64) Result {
		return Result{Pkg: pkg, Name: name, Runs: 5, NsPerOp: med, NsPerOpMin: lo, NsPerOpMax: hi}
	}
	old := &Document{Benchmarks: []Result{
		res("p", "BenchmarkSlower", 100, 95, 105),
		res("p", "BenchmarkFaster", 100, 95, 105),
		res("p", "BenchmarkNoisy", 100, 60, 140),
		res("p", "BenchmarkEdge", 100, 95, 105),
		res("q", "BenchmarkSlower", 100, 95, 105),
		res("p", "BenchmarkGone", 100, 95, 105),
	}}
	cur := &Document{Benchmarks: []Result{
		res("p", "BenchmarkSlower", 125, 121, 129), // +25 against a spread of 18
		res("p", "BenchmarkFaster", 80, 78, 82),    // −20 against 14
		res("p", "BenchmarkNoisy", 50, 45, 55),     // −50 against 90
		res("p", "BenchmarkEdge", 118, 114, 122),   // +18 against 18: not beyond it
		res("q", "BenchmarkSlower", 101, 100, 102), // other package, its own pair
		res("p", "BenchmarkNew", 100, 95, 105),
	}}
	want := []struct{ name, pkg, flag string }{
		{"BenchmarkSlower", "p", "slower"},
		{"BenchmarkFaster", "p", "faster"},
		{"BenchmarkNoisy", "p", ""},
		{"BenchmarkEdge", "p", ""},
		{"BenchmarkSlower", "q", ""},
		{"BenchmarkNew", "p", "new"},
		{"BenchmarkGone", "p", "gone"},
	}
	got := compare(old, cur)
	if len(got) != len(want) {
		t.Fatalf("%d comparisons, want %d", len(got), len(want))
	}
	for i, w := range want {
		r := got[i].New
		if r == nil {
			r = got[i].Old
		}
		if r.Name != w.name || r.Pkg != w.pkg || got[i].Flag != w.flag {
			t.Errorf("comparison %d = %s %s %q, want %s %s %q", i, r.Pkg, r.Name, got[i].Flag, w.pkg, w.name, w.flag)
		}
	}
	if got[0].Spread != 18 {
		t.Errorf("combined spread %v, want 18", got[0].Spread)
	}
	var out strings.Builder
	if err := writeComparison(&out, got); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "+25.0%") || !strings.Contains(out.String(), "slower") {
		t.Errorf("table lacks the slower row:\n%s", out.String())
	}
}

// TestQuartilesMatchSpreadPy pins quartiles to Python's
// statistics.quantiles(n=4), which topobench/spread.py reports.
func TestQuartilesMatchSpreadPy(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 9}, 4, 7, 10},
		{[]float64{4}, 4, 4, 4},
	} {
		if q1, m, q3 := quartiles(c.xs); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestPairAlternatesAndTabulates runs the pair mode over canned outputs:
// the old binary runs first in odd rounds, a benchmark one side lacks is
// dropped, and the table reports quartiles, wins and the IQR reading.
func TestPairAlternatesAndTabulates(t *testing.T) {
	const rounds = 4
	oldNs := []float64{100, 104, 96, 102}
	newNs := []float64{90, 95, 97, 88}
	var order []string
	run := func(bin string, args []string) ([]byte, error) {
		if strings.Join(args, " ") != "-test.bench X" {
			t.Fatalf("args %q", args)
		}
		r := len(order) / 2
		order = append(order, bin)
		ns := oldNs[r]
		extra := "BenchmarkOnlyOld-2 \t 10\t 5 ns/op\n"
		if bin == "new.test" {
			ns, extra = newNs[r], ""
		}
		return []byte(fmt.Sprintf("pkg: topocon\nBenchmarkX/quotient-2 \t 10\t %g ns/op\n%sPASS\n", ns, extra)), nil
	}
	series, err := runPair("old.test", "new.test", []string{"-test.bench", "X"}, rounds, run)
	if err != nil {
		t.Fatal(err)
	}
	if want := "old.test new.test new.test old.test old.test new.test new.test old.test"; strings.Join(order, " ") != want {
		t.Fatalf("run order %v, want %s", order, want)
	}
	if len(series) != 1 || series[0].Name != "BenchmarkX/quotient-2" || series[0].Pkg != "topocon" {
		t.Fatalf("series %+v", series)
	}
	var buf strings.Builder
	if err := writePairTable(&buf, series); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("table:\n%s", buf.String())
	}
	// Old 96/100/102/104: Q1 97, median 101, Q3 103.5 (IQR 6.5); new
	// 88/90/95/97: Q1 88.5, median 92.5, Q3 96.5. The new side wins three
	// rounds (97 > 96 in the third), and the 8.5 gap exceeds the IQR.
	for _, want := range []string{"97 / 101 / 103.5", "88.5 / 92.5 / 96.5", "-8.4%", "3/4", "yes"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("row %q lacks %q", lines[1], want)
		}
	}
	series[0].New = []float64{99, 101, 103, 100}
	buf.Reset()
	if err := writePairTable(&buf, series); err != nil {
		t.Fatal(err)
	}
	if row := strings.Split(strings.TrimSpace(buf.String()), "\n")[1]; !strings.HasSuffix(row, "no") {
		t.Errorf("a gap inside the old IQR reads resolved: %q", row)
	}
}
