package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os/exec"
	"slices"
	"strconv"
	"text/tabwriter"
)

// Pair mode alternates two compiled test binaries (`go test -c`) of the
// parent and the change under one -bench regex, one run each per round,
// the old binary first in odd rounds and the new one first in even rounds,
// so that drift of the host falls on both sides alike.

// PairSeries is one benchmark's ns/op per round on each side.
type PairSeries struct {
	Pkg, Name string
	Old, New  []float64
}

// runBinary runs a test binary with the given arguments and returns its
// standard output.
type runBinary func(bin string, args []string) ([]byte, error)

func execBinary(bin string, args []string) ([]byte, error) {
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", bin, err, stderr.Bytes())
	}
	return out, nil
}

// runPair runs rounds rounds of the two binaries with args and collects
// every benchmark that both sides report in every round, in the order the
// old binary first reported them.
func runPair(oldBin, newBin string, args []string, rounds int, run runBinary) ([]PairSeries, error) {
	type key struct{ pkg, name string }
	index := map[key]int{}
	var series []PairSeries
	for r := 1; r <= rounds; r++ {
		sides := []bool{false, true} // new?
		if r%2 == 0 {
			sides = []bool{true, false}
		}
		for _, isNew := range sides {
			bin := oldBin
			if isNew {
				bin = newBin
			}
			out, err := run(bin, args)
			if err != nil {
				return nil, err
			}
			doc, err := parse(bytes.NewReader(out))
			if err != nil {
				return nil, err
			}
			for _, b := range doc.Benchmarks {
				k := key{b.Pkg, b.Name}
				i, ok := index[k]
				if !ok {
					i = len(series)
					index[k] = i
					series = append(series, PairSeries{Pkg: b.Pkg, Name: b.Name})
				}
				if isNew {
					series[i].New = append(series[i].New, b.NsPerOp)
				} else {
					series[i].Old = append(series[i].Old, b.NsPerOp)
				}
			}
		}
	}
	return slices.DeleteFunc(series, func(s PairSeries) bool {
		return len(s.Old) != rounds || len(s.New) != rounds
	}), nil
}

// quartiles returns Q1, the median and Q3 of xs by the exclusive method of
// Python's statistics.quantiles(n=4), as topobench/spread.py reports them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := slices.Sorted(slices.Values(xs))
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// writePairTable prints, per benchmark, Q1 / median / Q3 of each side in
// ns/op, the change of the median, the rounds the new binary won, and
// whether the gap between the medians exceeds the old side's IQR.
func writePairTable(w io.Writer, series []PairSeries) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "pkg\tbenchmark\told Q1 / median / Q3\tnew Q1 / median / Q3\tchange\twins\tgap > old IQR")
	for _, s := range series {
		o1, om, o3 := quartiles(s.Old)
		n1, nm, n3 := quartiles(s.New)
		wins := 0
		for r := range s.Old {
			if s.New[r] < s.Old[r] {
				wins++
			}
		}
		resolved := "no"
		if math.Abs(nm-om) > o3-o1 {
			resolved = "yes"
		}
		change := "-"
		if om > 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(nm-om)/om)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s / %s / %s\t%s / %s / %s\t%s\t%d/%d\t%s\n", s.Pkg, s.Name,
			ns(o1), ns(om), ns(o3), ns(n1), ns(nm), ns(n3), change, wins, len(s.Old), resolved)
	}
	return tw.Flush()
}

func ns(x float64) string { return strconv.FormatFloat(x, 'g', 4, 64) }
