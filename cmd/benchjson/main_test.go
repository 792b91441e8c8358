package main

import (
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
