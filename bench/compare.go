package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// -compare judges a change against its parent from two -out files holding
// at least ten untraced runs per workload on each side, run alternately
// (parent, change, parent, ...) so the i-th runs of the two files form a
// pair. A pair in which either run failed its correctness checks is left
// out. Each end-to-end metric of each workload gets one verdict:
//
//   - improved: the change wins at least 9 of every 10 pairs, the medians
//     differ by more than the parent's interquartile range, and the
//     change's runs failed no more operations than the parent's;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: fewer than ten pairs, or a side's spread (interquartile
//     range over median) exceeds the bound, unless every change run beats
//     every parent run; also a win made while failing more operations;
//   - unchanged: otherwise.

const (
	minPairs = 10
	specPath = "BENCHMARK.json" // where -compare reads the bounds
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is one metric's comparison.
type verdict struct {
	label                string
	parentMed, changeMed float64
	parentIQR            float64
	wins, pairs          int
}

// judge compares paired runs of one metric. moreFailures says the change's
// runs failed more operations than the parent's, which withholds a gain.
func judge(parent, change []float64, lowerIsBetter bool, bound float64, moreFailures bool) verdict {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	beats := func(c, p float64) bool {
		if lowerIsBetter {
			return c < p
		}
		return c > p
	}
	v := verdict{pairs: n, parentMed: median(parent), changeMed: median(change)}
	for i := range parent {
		if beats(change[i], parent[i]) {
			v.wins++
		}
	}
	if n < minPairs {
		v.label = "unresolved"
		return v
	}
	pq1, pq3 := quartiles(parent)
	cq1, cq3 := quartiles(change)
	v.parentIQR = pq3 - pq1
	spread := math.Max(v.parentIQR/math.Abs(v.parentMed), (cq3-cq1)/math.Abs(v.changeMed))
	allBeat := true
	for _, c := range change {
		for _, p := range parent {
			allBeat = allBeat && beats(c, p)
		}
	}
	worse := (v.changeMed - v.parentMed) / math.Abs(v.parentMed)
	if !lowerIsBetter {
		worse = -worse
	}
	switch {
	case spread > bound && !allBeat:
		v.label = "unresolved"
	case 10*v.wins >= 9*n && math.Abs(v.changeMed-v.parentMed) > v.parentIQR && beats(v.changeMed, v.parentMed):
		v.label = "improved"
		if moreFailures {
			v.label = "unresolved"
		}
	case worse > bound:
		v.label = "regressed"
	default:
		v.label = "unchanged"
	}
	return v
}

func readRecords(path string) ([]record, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(blob, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// sides holds one workload's untraced runs of the parent and the change,
// paired by order.
type sides struct {
	parent, change []record
	// failed totals the operations each side's runs failed, incorrect
	// runs included.
	parentFailed, changeFailed int
	// dropped counts the pairs left out because a run was incorrect.
	dropped int
}

func pairUp(parent, change []record, workload string) sides {
	var s sides
	untraced := func(recs []record, failed *int) []record {
		var out []record
		for _, r := range recs {
			if r.Workload == workload && !r.Traced {
				out = append(out, r)
				*failed += r.Failed
			}
		}
		return out
	}
	p, c := untraced(parent, &s.parentFailed), untraced(change, &s.changeFailed)
	for i := 0; i < min(len(p), len(c)); i++ {
		if !p[i].Correct || !c[i].Correct {
			s.dropped++
			continue
		}
		s.parent, s.change = append(s.parent, p[i]), append(s.change, c[i])
	}
	return s
}

func series(recs []record, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareFiles prints, per workload, a line with the failed-operation totals
// and the pairs left out as incorrect, then one line per end-to-end metric:
// workload metric verdict, the two medians, the parent's IQR and the wins.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	blob, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	for _, wl := range workloads {
		s := pairUp(parent, change, wl.name)
		if len(s.parent) == 0 && s.dropped == 0 {
			continue
		}
		fmt.Fprintf(w, "%s failed parent=%d change=%d incorrect_pairs=%d\n",
			wl.name, s.parentFailed, s.changeFailed, s.dropped)
		for _, m := range spec.EndToEnd {
			v := judge(series(s.parent, m.Name), series(s.change, m.Name), m.Better == "lower", m.Bound,
				s.changeFailed > s.parentFailed)
			fmt.Fprintf(w, "%s %s %s parent=%.6g change=%.6g parent_iqr=%.6g wins=%d/%d\n",
				wl.name, m.Name, v.label, v.parentMed, v.changeMed, v.parentIQR, v.wins, v.pairs)
		}
	}
	return nil
}
