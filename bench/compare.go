package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// verdict is -compare's judgement of one end-to-end metric on one
// workload.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares two run sets of one metric. The medians decide: worse
// (or better) when the new median is off the old one by more than bound,
// as a share of the old median, in the metric's bad (or good) direction.
// When the old run set's own quartile spread is wider than the bound the
// difference cannot be told from noise and the verdict is unresolved —
// unless every run of one side beats every run of the other.
func judge(old, new []float64, higherIsBetter bool, bound float64) verdict {
	if len(old) == 0 || len(new) == 0 {
		return unresolved
	}
	q1, oldMed, q3 := quartiles(old)
	_, newMed, _ := quartiles(new)
	if oldMed == 0 {
		return unresolved
	}
	sign := 1.0 // positive change = worse
	if higherIsBetter {
		sign = -1
	}
	minMax := func(xs []float64) (float64, float64) {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[0], s[len(s)-1]
	}
	oldMin, oldMax := minMax(old)
	newMin, newMax := minMax(new)
	allWorse := (sign > 0 && newMin > oldMax) || (sign < 0 && newMax < oldMin)
	allBetter := (sign > 0 && newMax < oldMin) || (sign < 0 && newMin > oldMax)
	change := sign * (newMed - oldMed) / oldMed
	if spread := (q3 - q1) / oldMed; spread > bound && len(old) > 1 {
		switch {
		case allWorse && change > bound:
			return worse
		case allBetter && change < -bound:
			return better
		}
		return unresolved
	}
	switch {
	case change > bound:
		return worse
	case change < -bound:
		return better
	}
	return same
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// untracedValues gathers one metric's values over a file's untraced runs
// of one workload, plus the failed and attempted sessions of those runs.
func untracedValues(f *resultFile, workload, metric string) (vals []float64, failed, attempted int) {
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		failed += r.Failed
		attempted += r.Attempted
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals, failed, attempted
}

// compareFiles prints, per workload and end-to-end metric, both medians
// and quartiles and the verdict. The exit code is 0 when nothing is
// worse, 1 on any worse metric or a higher share of failed sessions, 2
// when the files cannot be compared at all.
func compareFiles(oldPath, newPath string, w io.Writer) int {
	oldF, err := readResults(oldPath)
	if err == nil {
		var newF *resultFile
		if newF, err = readResults(newPath); err == nil {
			return compareResults(oldF, newF, w)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareResults(oldF, newF *resultFile, w io.Writer) int {
	if !oldF.Host.comparable(newF.Host) {
		fmt.Fprintf(w, "refusing to compare: host blocks differ\n old %+v\n new %+v\n", oldF.Host, newF.Host)
		return 2
	}
	if !reflect.DeepEqual(oldF.Workloads, newF.Workloads) || oldF.Seconds != newF.Seconds {
		fmt.Fprintln(w, "refusing to compare: the frozen workload definitions or the run length differ")
		return 2
	}
	code := 0
	for _, wl := range workloads {
		fmt.Fprintf(w, "== %s\n", wl.Name)
		var oldFailed, oldAttempted, newFailed, newAttempted int
		for _, d := range endToEnd {
			var oldV, newV []float64
			oldV, oldFailed, oldAttempted = untracedValues(oldF, wl.Name, d.Name)
			newV, newFailed, newAttempted = untracedValues(newF, wl.Name, d.Name)
			oq1, om, oq3 := quartiles(oldV)
			nq1, nm, nq3 := quartiles(newV)
			v := judge(oldV, newV, d.Better == "higher", d.Bound)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(w, "%-28s %-5s old %11.4f [%11.4f %11.4f] n=%d  new %11.4f [%11.4f %11.4f] n=%d  bound %4.0f%%  %s\n",
				d.Name, d.Unit, om, oq1, oq3, len(oldV), nm, nq1, nq3, len(newV), 100*d.Bound, v)
		}
		oldShare := float64(oldFailed) / float64(max(oldAttempted, 1))
		newShare := float64(newFailed) / float64(max(newAttempted, 1))
		fmt.Fprintf(w, "%-28s       old %d/%d  new %d/%d\n", "failed sessions", oldFailed, oldAttempted, newFailed, newAttempted)
		if newShare > oldShare {
			fmt.Fprintln(w, "failed share grew: worse")
			code = 1
		}
	}
	return code
}
