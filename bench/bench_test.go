package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsPrintEveryMetric runs both workloads at toy size
// (pop 8 × 2 generations; 0.5s serving levels at up to 200 requests/s),
// untraced and traced, and checks that each passes its correctness checks
// and prints every metric BENCHMARK.json names.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the bench", i, w.Name, workloads[i].name)
		}
	}
	for _, traced := range []bool{false, true} {
		names := spec.EndToEnd
		if traced {
			names = spec.PerLayer
		}
		env := &runEnv{seed: 1, budget: time.Second, traced: traced, toy: true,
			setups: 1, workdir: t.TempDir(), sink: &spanSink{}}
		var out bytes.Buffer
		res, recs, err := runNamed(env, "all", &out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("traced=%v: incorrect run:\n%s", traced, out.String())
		}
		printed := out.String()
		for _, rec := range recs {
			if len(rec.Metrics) != len(names) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", rec.Workload, traced, len(rec.Metrics), len(names))
			}
			for _, m := range names {
				if _, ok := rec.Metrics[m.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing from the result", rec.Workload, traced, m.Name)
				}
				if !strings.Contains(printed, "\n"+rec.Workload+" "+m.Name+" ") && !strings.HasPrefix(printed, rec.Workload+" "+m.Name+" ") {
					t.Errorf("%s traced=%v: metric %s not printed", rec.Workload, traced, m.Name)
				}
			}
		}
	}
}

// TestRunReportsUnknownWorkload checks the command fails cleanly, without
// a result line, on a workload it does not define.
func TestRunReportsUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope", "-seconds", "1"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

// TestRefusedRequestsAreFailedNotIncorrect checks that refused requests are
// counted in failed while the result stays correct, and that a failed
// output check makes it incorrect.
func TestRefusedRequestsAreFailedNotIncorrect(t *testing.T) {
	rep := newReport()
	rep.attempted, rep.failed = 10, 3
	for _, d := range endToEnd {
		rep.e2e[d.name] = 1
	}
	if res := rep.result(false); !res.Correct || res.Attempted != 10 || res.Failed != 3 {
		t.Fatalf("3 of 10 refused: %+v", res)
	}
	rep.problem("response holds %d predictions, want %d", 364, forecastDays)
	if res := rep.result(false); res.Correct {
		t.Fatalf("a wrong response left the result correct: %+v", res)
	}
}
