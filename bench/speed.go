package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// Host speed. The shared 2-vCPU host this benchmark was built on changes
// speed by up to 2× over minutes, with steal time near zero: the same job
// takes twice as long, wall and CPU time alike, in a busy stretch. A run
// cannot outlast such a stretch, so the benchmark measures the host's speed
// in the same run, with a fixed reference kernel timed between operations,
// and reports its CPU-bound metrics at a reference speed: the measured
// value scaled by refNominal over the kernel's median time in the stretch
// that value was measured in. The kernel is frozen code of the benchmark's
// own, so a change to the program leaves it alone. It mixes the float
// work, allocation and map access that simulation-based evaluation does,
// once on one goroutine and once split across GOMAXPROCS, as the program
// runs both ways.

// refNominal is the reference kernel's time at the reference speed: about
// its median on the 2-vCPU Intel Xeon VM the benchmark was built on, in a
// quiet stretch.
const refNominal = 35 * time.Millisecond

// refSets is the kernel's fixed work, in parameter sets.
const refSets = 150

var refSink struct {
	sync.Mutex
	v float64
}

// refODE integrates a small nonlinear two-species model for parameter sets
// [from, to), a year at 8 sub-steps a day, keeping each trajectory.
func refODE(from, to int) float64 {
	s := 0.0
	for p := from; p < to; p++ {
		a, b := 0.5+0.001*float64(p), 0.02+0.0001*float64(p)
		x, y := 10.0, 5.0
		traj := make([]float64, 0, 365)
		weekly := map[int]float64{}
		for d := 0; d < 365; d++ {
			for k := 0; k < 8; k++ {
				const dt = 0.125
				dx := a*x - b*x*y - 0.001*x*x
				dy := -0.3*y + 0.01*x*y*math.Exp(-0.001*y)
				x += dt * dx
				y += dt * dy
			}
			traj = append(traj, x+y)
			if d%7 == 0 {
				weekly[d] = x
			}
		}
		for _, v := range traj {
			s += v
		}
		s += weekly[14]
	}
	return s
}

// refKernel times one pass of the reference kernel: refSets parameter sets
// on one goroutine, then refSets split across GOMAXPROCS goroutines.
func refKernel() time.Duration {
	keep := func(v float64) {
		refSink.Lock()
		refSink.v += v
		refSink.Unlock()
	}
	t0 := time.Now()
	keep(refODE(0, refSets))
	var wg sync.WaitGroup
	procs := runtime.GOMAXPROCS(0)
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keep(refODE(g*refSets/procs, (g+1)*refSets/procs))
		}(g)
	}
	wg.Wait()
	return time.Since(t0)
}

// speedMeter collects a run's reference-kernel times.
type speedMeter struct{ samples []float64 }

// sample times the reference kernel once.
func (m *speedMeter) sample() { m.samples = append(m.samples, refKernel().Seconds()) }

// scale is the factor that turns a time measured in this run into one at
// the reference speed: refNominal over the kernel's median time. It is
// below 1 on a host slower than the reference.
func (m *speedMeter) scale() float64 { return refNominal.Seconds() / median(m.samples) }
