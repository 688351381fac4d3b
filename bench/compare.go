package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// compare prints, for every workload and end-to-end metric, each results
// file's median and quartiles over its runs and the first file's verdict
// against each later one. It also reports whether runs of the same
// workload and seed produced the same sim_digest.
func compare(w io.Writer, sp *spec, paths []string) error {
	files := make([]results, len(paths))
	for i, p := range paths {
		if err := readJSON(p, &files[i]); err != nil {
			return err
		}
		h := files[i].Host
		fmt.Fprintf(w, "[%d] %s: rev %s modified=%v, %s, %d cores, GOMAXPROCS %d, seed %d, scale %d, %gs, %d set(s)\n",
			i, p, h.Revision, h.Modified, h.GoVersion, h.HostCores, h.GOMAXPROCS,
			files[i].Seed, files[i].Scale, files[i].Seconds, files[i].Sets)
	}
	base := files[0]
	for i, f := range files[1:] {
		if f.Host.HostCores != base.Host.HostCores || f.Host.GOMAXPROCS != base.Host.GOMAXPROCS ||
			f.Host.GoVersion != base.Host.GoVersion || f.Scale != base.Scale || f.Seconds != base.Seconds {
			fmt.Fprintf(w, "note: [0] and [%d] differ in host, toolchain, scale or run length\n", i+1)
		}
	}
	fmt.Fprintf(w, "%-16s %-18s %-7s %s\n", "workload", "metric", "bound", "file: median [q1 q3] n, delta vs [0], verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a := sorted(runValues(base.Runs, wl.Name, m.Name))
			if len(a) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-16s %-18s %-7.3g [0] %s\n", wl.Name, m.Name, m.Bound, summary(a))
			for i, f := range files[1:] {
				b := sorted(runValues(f.Runs, wl.Name, m.Name))
				if len(b) == 0 {
					continue
				}
				fmt.Fprintf(w, "%-16s %-18s %-7s [%d] %s %+.2f%% %s\n", "", "", "", i+1, summary(b),
					100*(median(b)-median(a))/median(a), verdict(m, runValues(base.Runs, wl.Name, m.Name), runValues(f.Runs, wl.Name, m.Name)))
			}
		}
		for i, f := range files[1:] {
			same, diff := digests(base.Runs, f.Runs, wl.Name)
			fmt.Fprintf(w, "%-16s sim_digest [0] vs [%d]: %d seed(s) equal, %d differ\n", wl.Name, i+1, same, diff)
		}
	}
	return nil
}

// summary is "median [q1 q3] n" in the metric's own unit.
func summary(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.5g [%.5g %.5g] n=%d", median(v), q1, q3, len(v))
}

// verdict judges the runs b of a change against the runs a of its base
// by the metric's direction and bound:
//   - unresolved when either side's quartile spread, as a share of its
//     median, is wider than the bound, unless every run of one side
//     reads better than every run of the other;
//   - worse when b's median is worse than a's by more than the bound;
//   - better when b wins at least nine tenths of at least ten pairs of
//     runs (ties counting for neither) and the medians differ by more
//     than a's quartile spread;
//   - within bound otherwise.
func verdict(m metricSpec, a, b []float64) string {
	sign := 1.0 // > 0 when larger is better
	if m.Better == "lower" {
		sign = -1
	}
	better := func(x, y float64) bool { return sign*(x-y) > 0 } // x better than y
	ma, mb := median(sorted(a)), median(sorted(b))
	if spread(a) > m.Bound || spread(b) > m.Bound {
		switch {
		case allBetter(b, a, better):
			return "better"
		case allBetter(a, b, better):
			return "worse"
		}
		return "unresolved"
	}
	if sign*(mb-ma)/ma < -m.Bound {
		return "worse"
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(sorted(a))
	if pairs >= 10 && 10*wins >= 9*pairs && math.Abs(mb-ma) > q3-q1 && better(mb, ma) {
		return "better"
	}
	return "within bound"
}

// allBetter reports whether every x reads better than every y.
func allBetter(xs, ys []float64, better func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// spread is the quartile distance as a share of the median.
func spread(v []float64) float64 {
	s := sorted(v)
	q1, q3 := quartiles(s)
	return (q3 - q1) / median(s)
}

// runValues returns one metric of every run of a workload in run order,
// so that the i-th runs of two files pair up.
func runValues(runs []record, workload, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

// digests counts the seeds run in both files whose sim digests agree
// and those whose digests differ.
func digests(a, b []record, workload string) (same, diff int) {
	for _, x := range a {
		for _, y := range b {
			if x.Workload == workload && y.Workload == workload && x.Seed == y.Seed && x.Scale == y.Scale {
				if x.SimDigest == y.SimDigest {
					same++
				} else {
					diff++
				}
			}
		}
	}
	return same, diff
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of sorted values, the mean of the middle two for an even count.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted values, by the method of Python's
// statistics.quantiles(values, n=4) ("exclusive").
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
