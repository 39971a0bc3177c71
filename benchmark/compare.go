package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRuns reads a file of result lines (what -out appends) into
// workload -> metric -> one value per invocation.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var full fullResult
		if err := json.Unmarshal(sc.Bytes(), &full); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for wl, res := range full.Workloads {
			if runs[wl] == nil {
				runs[wl] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				runs[wl][name] = append(runs[wl][name], mv.Value)
			}
		}
	}
	return runs, sc.Err()
}

// verdict compares run set b against run set a for one end-to-end metric:
// "better" when every run of b beats every run of a, "unresolved" when
// either set's own spread — the distance between its quartiles as a share of
// its median — exceeds the bound (so a difference within it means nothing),
// "worse" when b's median is worse than a's by more than the bound, and
// "within" otherwise.
func verdict(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	sign := 1.0 // positive change = worse
	if d.Better == "higher" {
		sign = -1
	}
	sa, sb := sorted(a), sorted(b)
	if (sign > 0 && sb[len(sb)-1] < sa[0]) || (sign < 0 && sb[0] > sa[len(sa)-1]) {
		return "better"
	}
	ma, mb := median(a), median(b)
	if spread(sa) > d.Bound || spread(sb) > d.Bound {
		return "unresolved"
	}
	if sign*ratio(mb-ma, ma) > d.Bound {
		return "worse"
	}
	return "within"
}

// spread is the interquartile range of sorted s over its median, with the
// quartiles Python's statistics.quantiles(s, n=4) gives (the benchmark
// driver's definition). Fewer than two runs have no spread to speak of.
func spread(s []float64) float64 {
	if len(s) < 2 {
		return 0
	}
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return ratio(q(0.75)-q(0.25), median(s))
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// compareFiles prints one row per workload and end-to-end metric and
// returns an error when any is worse.
func compareFiles(sp *spec, pathA, pathB string, w io.Writer) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-16s %6s %14s %14s %8s  %s\n", "workload", "metric", "bound", "a median (n)", "b median (n)", "change", "verdict")
	worse := 0
	for _, wl := range sp.Workloads {
		for _, d := range sp.EndToEnd {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			v := verdict(d, va, vb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-16s %-16s %5.0f%% %10.5g (%d) %10.5g (%d) %+7.1f%%  %s\n", wl.Name, d.Name, 100*d.Bound,
				median(va), len(va), median(vb), len(vb), 100*ratio(median(vb)-median(va), median(va)), v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}
