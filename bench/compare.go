package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark reads back: the
// workload names and each metric's unit, direction and bound.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords loads a -json result set: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// values collects every run's value of one metric on one workload.
func values(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict classifies one (metric, workload) row by the bound BENCHMARK.json
// fixes for the metric. The row is unresolved when either set's spread
// (interquartile range over median) is wider than the bound, unless every
// run of B reads better than every run of A; otherwise it regressed when
// B's median is worse than A's by more than the bound, and agrees if not.
func verdict(m specMetric, a, b []float64) (string, float64) {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved", 0
	}
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	lower := m.Better == "lower"
	change := ratio(bmed-amed, amed)
	worse := change
	if !lower {
		worse = -change
	}
	spread := max(ratio(aq3-aq1, amed), ratio(bq3-bq1, bmed))
	if spread > m.Bound {
		// a and b are sorted by quartiles.
		allBetter := (lower && b[len(b)-1] < a[0]) || (!lower && b[0] > a[len(a)-1])
		if allBetter {
			return "agree", change
		}
		return "unresolved", change
	}
	if worse > m.Bound {
		return "regressed", change
	}
	return "agree", change
}

// compareFiles prints one row per (end-to-end metric, workload) with both
// sets' medians and quartiles, and reports whether any row regressed.
func compareFiles(specPath, aPath, bPath string, out io.Writer) (bool, error) {
	s, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-7s %-21s %-35s %-35s %8s %6s %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound", "verdict")
	regressed := false
	counts := map[string]int{}
	for _, w := range s.Workloads {
		for _, m := range s.EndToEnd {
			av, bv := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			v, change := verdict(m, av, bv)
			counts[v]++
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(out, "%-8s %-21s %-35s %-35s %+7.1f%% %5.0f%% %s\n",
				w.Name, m.Name, summary(av), summary(bv), 100*change, 100*m.Bound, v)
		}
	}
	fmt.Fprintf(out, "rows: %d agree, %d regressed, %d unresolved\n", counts["agree"], counts["regressed"], counts["unresolved"])
	return regressed, nil
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "no runs"
	}
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", med, q1, q3, len(xs))
}
