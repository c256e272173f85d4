package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Open-loop load generation and the statistics the serving metrics are
// computed with. Requests arrive on a seeded Poisson schedule regardless of
// how fast the server answers (independent forecast clients), so a stall
// shows up as queueing: every latency is timed from the request's due time,
// not from when the generator got round to sending it, and the generator's
// own lateness is reported beside it.

// maxInFlight caps concurrently outstanding requests. An arrival that finds
// the cap reached is not sent and counts as failed.
const maxInFlight = 4096

// statusOverflow marks an arrival dropped at the in-flight cap.
const statusOverflow = -1

// poissonSchedule returns the arrival offsets of a Poisson process of the
// given rate (per second) over d. The same seed gives the same arrivals.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, 0, int(rate*d.Seconds()*1.1)+8)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// outcome is one scheduled arrival's fate.
type outcome struct {
	status int           // HTTP status, or statusOverflow
	due    time.Duration // scheduled offset from the level start
	late   time.Duration // how long after its due time the request started
	lat    time.Duration // completion − due time
}

func (o outcome) ok() bool { return o.status == 200 }

// openLoop issues do(i) at start+sched[i], each request on its own
// goroutine started by one scheduler loop, and returns once every request
// has completed. do returns the HTTP status.
func openLoop(sched []time.Duration, do func(i int) int) []outcome {
	out := make([]outcome, len(sched))
	var (
		wg       sync.WaitGroup
		inFlight atomic.Int64
	)
	start := time.Now()
	for i, off := range sched {
		if d := off - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if inFlight.Add(1) > maxInFlight {
			inFlight.Add(-1)
			late := time.Since(start) - off
			out[i] = outcome{status: statusOverflow, due: off, late: late}
			continue
		}
		wg.Add(1)
		go func(i int, due time.Duration) {
			defer wg.Done()
			defer inFlight.Add(-1)
			began := time.Since(start)
			st := do(i)
			out[i] = outcome{status: st, due: due, late: began - due, lat: time.Since(start) - due}
		}(i, off)
	}
	wg.Wait()
	return out
}

// window keeps the outcomes due at or after from (the warm-up before it is
// discarded).
func window(outs []outcome, from time.Duration) []outcome {
	i := sort.Search(len(outs), func(i int) bool { return outs[i].due >= from })
	return outs[i:]
}

// latencies returns the outcomes' latencies in milliseconds, ascending. A
// failed or refused request counts as missing every latency limit, so it
// sorts last as +Inf.
func latencies(outs []outcome) []float64 {
	ms := make([]float64, len(outs))
	for i, o := range outs {
		if o.ok() {
			ms[i] = float64(o.lat) / 1e6
		} else {
			ms[i] = math.Inf(1)
		}
	}
	sort.Float64s(ms)
	return ms
}

// rank is the 1-based nearest rank of quantile p in a sample of n: the
// smallest r with r ≥ p·n. The tolerance keeps products such as 0.9·100,
// which float arithmetic puts a hair above 90, on their exact rank.
func rank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)-1e-9)))
}

// percentile is the nearest-rank p-quantile of ascending xs (NaN when
// empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[rank(p, len(xs))-1]
}

// tailQuantile is the highest of p99, p95 and p90 that leaves at least ten
// samples beyond it in a sample of n; 1 (the maximum) when none does.
func tailQuantile(n int) float64 {
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 1
}

// levelStats summarises one load level's measured window.
type levelStats struct {
	attempted, failed, shed int
	p50, tail               float64 // ms
	tailQ                   float64 // the quantile tail reports
	lateP99                 float64 // ms
}

// summarize computes a level's statistics over outs (already windowed).
func summarize(outs []outcome) levelStats {
	s := levelStats{attempted: len(outs)}
	late := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.status == 429 {
			s.shed++
		}
		if !o.ok() {
			s.failed++
		}
		late = append(late, float64(o.late)/1e6)
	}
	lats := latencies(outs)
	s.p50 = percentile(lats, 0.5)
	s.tailQ = tailQuantile(len(lats))
	s.tail = percentile(lats, s.tailQ)
	sort.Float64s(late)
	s.lateP99 = percentile(late, 0.99)
	return s
}

// failRatio is failed over attempted (0 for an empty level).
func (s levelStats) failRatio() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// closedLoop runs clients that each send their next request as soon as
// the previous one is answered, for d. It returns the rate of 200
// responses completed after warm, and how many requests were sent and how
// many of them failed. do(i) sends request i and returns its status.
func closedLoop(clients int, d, warm time.Duration, do func(i int) int) (rate float64, sent, failed int) {
	var (
		wg                 sync.WaitGroup
		next, bad, counted atomic.Int64
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				st := do(int(next.Add(1) - 1))
				if st != 200 {
					bad.Add(1)
				} else if t := time.Since(start); t >= warm && t < d {
					counted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(counted.Load()) / (d - warm).Seconds(), int(next.Load()), int(bad.Load())
}

// median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method of Python's statistics.quantiles(xs, n=4), the rule the spread of
// a metric is judged by. xs needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
