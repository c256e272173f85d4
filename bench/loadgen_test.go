package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(7, 1000, 2*time.Second)
	b := poissonSchedule(7, 1000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrivals")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 1000, 2*time.Second)) {
		t.Fatal("different seeds gave the same arrivals")
	}
	// 2000 expected arrivals; a Poisson count stays within 5σ ≈ 224.
	if n := len(a); n < 1776 || n > 2224 {
		t.Fatalf("%d arrivals at 1000/s over 2s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d at %v out of order or past the end", i, a[i])
		}
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// Two arrivals due together; each request takes 5ms. Both are timed
	// from their due time, and lateness is how long after it they began.
	sched := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond}
	outs := openLoop(sched, func(int) int {
		time.Sleep(5 * time.Millisecond)
		return 200
	})
	for i, o := range outs {
		if o.status != 200 || o.due != sched[i] {
			t.Fatalf("outcome %d = %+v", i, o)
		}
		if o.late < 0 || o.lat < o.late+5*time.Millisecond {
			t.Errorf("outcome %d: late %v, latency %v", i, o.late, o.lat)
		}
	}
}

func TestLatenessAccounting(t *testing.T) {
	outs := make([]outcome, 100)
	for i := range outs {
		outs[i] = outcome{status: 200, late: time.Duration(i) * time.Millisecond,
			lat: time.Duration(i+1) * time.Millisecond}
	}
	s := summarize(outs)
	if s.lateP99 != 98 {
		t.Errorf("late p99 = %vms, want 98ms", s.lateP99)
	}
	if s.p50 != 50 || s.tailQ != 0.90 || s.tail != 90 {
		t.Errorf("p50 %v, tail p%v %v; want 50, p90 90", s.p50, 100*s.tailQ, s.tail)
	}
}

func TestTailQuantileRule(t *testing.T) {
	for n, want := range map[int]float64{
		5000: 0.99, 1000: 0.99, 999: 0.95, 200: 0.95, 199: 0.90, 100: 0.90, 99: 1, 0: 1,
	} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestFailuresCountAsInfinitelyLate(t *testing.T) {
	ok := outcome{status: 200, lat: time.Millisecond}
	outs := make([]outcome, 0, 1000)
	for i := 0; i < 997; i++ {
		outs = append(outs, ok)
	}
	outs = append(outs, outcome{status: 429}, outcome{status: 504}, outcome{status: statusOverflow})
	s := summarize(outs)
	if s.failed != 3 || s.shed != 1 || s.failRatio() != 0.003 {
		t.Fatalf("failed %d shed %d ratio %v, want 3 1 0.003", s.failed, s.shed, s.failRatio())
	}
	lats := latencies(outs)
	if !math.IsInf(lats[len(lats)-1], 1) || !math.IsInf(lats[len(lats)-3], 1) || lats[len(lats)-4] != 1 {
		t.Errorf("failed requests do not sort last as infinitely late: %v", lats[len(lats)-4:])
	}
	// Once failures reach the median, the median is infinite.
	half := append(append([]outcome(nil), outs[:500]...), make([]outcome, 501)...)
	if s := summarize(half); !math.IsInf(s.p50, 1) {
		t.Errorf("p50 %v with half the requests failed", s.p50)
	}
}

func TestClosedLoopCountsCompletions(t *testing.T) {
	// Four clients each take 2ms per request, so at most 2000 requests/s
	// complete; only the 200s count.
	rate, sent, failed := closedLoop(4, 300*time.Millisecond, 100*time.Millisecond, func(i int) int {
		time.Sleep(2 * time.Millisecond)
		return 200
	})
	if rate <= 0 || rate > 2000 || sent < 4 || failed != 0 {
		t.Errorf("rate %v/s, %d sent, %d failed with four 2ms clients", rate, sent, failed)
	}
	rate, sent, failed = closedLoop(2, 50*time.Millisecond, 0, func(int) int { return 429 })
	if rate != 0 || failed == 0 || failed != sent {
		t.Errorf("rate %v/s, %d of %d failed when every request is refused", rate, failed, sent)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) in Python 3.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
