package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"gmr/internal/bio"
	"gmr/internal/core"
	"gmr/internal/dataset"
	"gmr/internal/experiments"
	"gmr/internal/expr"
	"gmr/internal/gp"
	"gmr/internal/obs"
	"gmr/internal/serve"
	"gmr/internal/serve/api"
)

const (
	laneWidth    = expr.Lanes
	forecastDays = 365 // every request forecasts a full year
	replaySample = 64  // requests per level replayed on the unbatched server
)

// A serving run plays rounds until the measuring budget is spent. A round
// offers each fixed rate for its share of roundLen and then, untraced, runs
// a closed-loop capacity slice. The host's speed drifts over tens of
// seconds, so a level played in one block would read whatever speed its
// block happened to get; interleaved, every metric's samples spread over
// the whole run. Low and mid carry the reported latencies, so their slices
// are the long ones; mid's tail needs the most samples. A traced run plays
// each round's levels twice, untraced and then traced, and skips capacity.
var levelShares = [3]float64{0.30, 0.35, 0.10}

const (
	roundLen        = 2500 * time.Millisecond
	capacityShare   = 0.25
	capacityClients = 64 // enough to fill 8 point cohorts of 8 lanes
	// warmUp is played at mid before the first round and not measured, so
	// no slice pays for the server's cold start. sliceWarm is discarded at
	// the start of each slice: an open loop started on an idle server
	// needs a few batch windows to reach its steady queue.
	warmUp    = time.Second
	sliceWarm = 50 * time.Millisecond
	// toyRate caps the offered rate of test-sized levels, which must not
	// overload a server slowed down by the race detector.
	toyRate = 200
)

// level is one fixed offered rate.
type level struct {
	name string
	rate float64 // requests per second
}

// levels of serve_point: unique 365-day point forecasts (a distinct CUA
// override each), so the batcher co-batches them into lanes and every
// request misses the response cache while the exogenous-plan cache always
// hits.
var levels = [3]level{{"low", 125}, {"mid", 2000}, {"high", 3000}}

// requestBodies draws n request bodies from a seeded stream.
func requestBodies(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		cua := strconv.FormatFloat(1+rng.Float64(), 'g', -1, 64)
		out[i] = []byte(`{"days":365,"params":{"CUA":` + cua + `}}`)
	}
	return out
}

// writeBundle writes the served model: the unrevised baseline process.
func writeBundle(dir string) error {
	ind, g, err := core.ManualIndividual(core.Config{})
	if err != nil {
		return err
	}
	digest := serve.ConfigDigest(bio.DefaultConstants(), dataset.ModelSimConfig(2, 0, 0))
	bundle, err := gp.NewBundle(ind, g, "bench", digest)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := bundle.Write(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "champion.json"), buf.Bytes(), 0o644)
}

// server is one in-process forecast server with a registry of its own, so
// its counters are exact.
type server struct {
	srv *serve.Server
	h   http.Handler
	reg *obs.Registry
}

func newServer(ds *dataset.Dataset, dir string, maxBatch int, tracer *obs.Tracer) (*server, error) {
	reg := obs.NewRegistry()
	s, err := serve.New(serve.Config{Dataset: ds, ModelsDir: dir, MaxBatch: maxBatch, Obs: reg, Tracer: tracer})
	if err != nil {
		return nil, err
	}
	return &server{srv: s, h: s.Handler(), reg: reg}, nil
}

// post sends one /v2/forecast request through the handler, in process.
func (s *server) post(body []byte, tracer *obs.Tracer) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v2/forecast", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	span := tracer.Start("bench.http")
	s.h.ServeHTTP(rec, req)
	span.End()
	return rec
}

var predictionsKey = []byte(`"predictions":[`)

// quickCheck is the per-response check cheap enough to run on every 200
// response under load: the body holds a full year of predictions.
// encoding/json cannot encode NaN or ±Inf, so a 200 body's numbers are
// finite; a quarantined forecast carries fewer than 365.
func quickCheck(body []byte) error {
	i := bytes.Index(body, predictionsKey)
	if i < 0 {
		return errors.New("response has no predictions")
	}
	rest := body[i+len(predictionsKey):]
	j := bytes.IndexByte(rest, ']')
	if j <= 0 {
		return errors.New("response predictions are empty or unterminated")
	}
	if n := bytes.Count(rest[:j], []byte{','}) + 1; n != forecastDays {
		return fmt.Errorf("response holds %d predictions, want %d", n, forecastDays)
	}
	return nil
}

// fullCheck decodes a response and checks everything a client relies on:
// 365 finite predictions and no quarantine.
func fullCheck(body []byte) error {
	var resp api.ForecastResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable response: %v", err)
	}
	if resp.Quarantined {
		return fmt.Errorf("quarantined forecast (%s on day %d)", resp.Reason, resp.Died)
	}
	if len(resp.Predictions) != forecastDays {
		return fmt.Errorf("predictions hold %d days, want %d", len(resp.Predictions), forecastDays)
	}
	for d, x := range resp.Predictions {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("prediction is not finite on day %d", d)
		}
	}
	return nil
}

// levelRun is one level's slices merged: the outcomes of their measured
// windows, and their requests, resource use, counter deltas and spans in
// full.
type levelRun struct {
	outs         []outcome
	sent, failed int // every request, slice warm-ups included
	completed    int // 200 responses, slice warm-ups included
	wall, cpu    time.Duration
	delta        map[string]float64
	spans        []obs.SpanRecord
	reqs         [][]byte // the replay sample's request bodies
	resps        [][]byte // and their responses (nil unless 200)
}

// play offers rate requests per second for length and merges the slice
// into lr, discarding the latencies of its first warm. Every 200 response
// gets the quick check; sample requests at an even stride keep their
// bodies for the full check and the replay.
func play(s *server, rep *report, lr *levelRun, rate float64, length, warm time.Duration, seed int64, sample int, tracer *obs.Tracer, sink *spanSink) {
	sched := poissonSchedule(seed, rate, length)
	bodies := requestBodies(seed^0x5eed, len(sched))
	stride := max(1, len(sched)/max(1, sample))
	n := min(sample, (len(sched)+stride-1)/stride)
	resps := make([][]byte, n)

	// Each slice starts from a collected heap, so none pays for the
	// garbage of the slice before it.
	runtime.GC()
	before := s.reg.Snapshot()
	cpu0 := cpuTime()
	t0 := time.Now()
	outs := openLoop(sched, func(i int) int {
		rec := s.post(bodies[i], tracer)
		if rec.Code != http.StatusOK {
			return rec.Code
		}
		body := rec.Body.Bytes()
		if err := quickCheck(body); err != nil {
			rep.problem("%s", err)
		}
		if i%stride == 0 && i/stride < n {
			resps[i/stride] = body
		}
		return rec.Code
	})
	lr.wall += time.Since(t0)
	lr.cpu += cpuTime() - cpu0
	if lr.delta == nil {
		lr.delta = map[string]float64{}
	}
	for k, v := range s.reg.Snapshot() {
		lr.delta[k] += v - before[k]
	}
	for _, o := range outs {
		lr.sent++
		if o.ok() {
			lr.completed++
		} else {
			lr.failed++
		}
	}
	lr.outs = append(lr.outs, window(outs, warm)...)
	for k := range resps {
		lr.reqs = append(lr.reqs, bodies[k*stride])
		lr.resps = append(lr.resps, resps[k])
	}
	if sink != nil {
		lr.spans = append(lr.spans, sink.take()...)
	}
}

// shape is a serving run's plan: how many rounds it plays and how long
// each slice and warm-up lasts.
type shape struct {
	rounds       int
	slices       [3]time.Duration
	capacity     time.Duration
	warmUp, warm time.Duration
}

func (env *runEnv) serveShape() shape {
	if env.toy {
		// Long enough that even a 125/s level keeps samples past warm-up.
		d := 500 * time.Millisecond
		return shape{rounds: 1, slices: [3]time.Duration{d, d, d}, capacity: d,
			warmUp: 100 * time.Millisecond, warm: sliceWarm}
	}
	sh := shape{warmUp: warmUp, warm: sliceWarm}
	round := 0.0
	for i, share := range levelShares {
		sh.slices[i] = time.Duration(share * float64(roundLen))
		round += share
	}
	if env.traced {
		round *= 2
	} else {
		sh.capacity = time.Duration(capacityShare * float64(roundLen))
		round += capacityShare
	}
	sh.rounds = max(1, int(float64(env.budget)/(round*float64(roundLen))))
	return sh
}

// runServe measures serve_point: set-up several times, a warm-up, then the
// rounds; every request's response is checked, and each level's sample is
// replayed on a MaxBatch=1 server and must come back bitwise equal. The
// traced run reports the per-layer metrics instead.
func runServe(env *runEnv) (*report, error) {
	rep := newReport()
	dir := filepath.Join(env.workdir, "models")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var ds *dataset.Dataset
	s, setup, measured, err := timedSetups(env.setups, func() (*server, error) {
		var err error
		if ds, err = experiments.DefaultDataset(7); err != nil {
			return nil, err
		}
		if err := writeBundle(dir); err != nil {
			return nil, err
		}
		return newServer(ds, dir, 0, nil)
	}, func(s *server) { s.srv.Close() })
	if err != nil {
		return nil, err
	}
	defer s.srv.Close()
	rep.e2e["setup_s"] = setup
	rep.note("setup_s_measured", measured, "s")
	meter := &speedMeter{}

	sh := env.serveShape()
	rate := func(lv level) float64 {
		if env.toy {
			return min(lv.rate, toyRate)
		}
		return lv.rate
	}
	perSlice := (replaySample + sh.rounds - 1) / sh.rounds
	var warm levelRun
	warmUpOn := func(s *server, tracer *obs.Tracer) {
		play(s, rep, &warm, rate(levels[1]), sh.warmUp, 0, subSeed(env.seed, "warm-up"), 0, tracer, nil)
	}

	var plain, traced [3]levelRun
	var capacities []float64
	var tracer *obs.Tracer
	var ts *server
	warmUpOn(s, nil)
	if env.traced {
		tracer = env.sink.tracer()
		if ts, err = newServer(ds, dir, 0, tracer); err != nil {
			return nil, err
		}
		defer ts.srv.Close()
		warmUpOn(ts, tracer)
		env.sink.take() // spans of the traced server's start and warm-up belong to no level
	}
	for r := 0; r < sh.rounds; r++ {
		meter.sample()
		for i, lv := range levels {
			seed := subSeed(env.seed, fmt.Sprintf("%s/%d", lv.name, r))
			play(s, rep, &plain[i], rate(lv), sh.slices[i], sh.warm, seed, perSlice, nil, nil)
			if env.traced {
				play(ts, rep, &traced[i], rate(lv), sh.slices[i], sh.warm, seed, perSlice, tracer, env.sink)
			}
		}
		if !env.traced {
			capacities = append(capacities, capacitySlice(s, rep, sh.capacity, subSeed(env.seed, fmt.Sprintf("capacity/%d", r))))
		}
	}
	rep.attempted += warm.sent
	rep.failed += warm.failed

	checked := plain
	if env.traced {
		checked = traced
		layers(rep, plain, traced)
		env.keepSpans(rep)
	}
	for i, lr := range checked {
		rep.attempted += plain[i].sent + traced[i].sent
		rep.failed += plain[i].failed + traced[i].failed
		st := summarize(lr.outs)
		name := levels[i].name
		rep.note("p50_ms_"+name, st.p50, "ms")
		rep.note("tail_ms_"+name, st.tail, "ms")
		rep.note("tail_quantile_"+name, st.tailQ, "quantile")
		rep.note("samples_"+name, float64(st.attempted), "count")
		rep.note("fail_ratio_"+name, st.failRatio(), "ratio")
		rep.note("cpu_ms_per_op_"+name, lr.cpu.Seconds()*1e3/float64(max(1, lr.completed)), "ms")
	}
	if !env.traced {
		var cpu time.Duration
		completed := 0
		for _, r := range plain {
			cpu += r.cpu
			completed += r.completed
		}
		// The latency is reported as measured: it is mostly the batch
		// window's fixed wait, which does not change with the host's speed.
		rep.e2e["p50_ms"] = summarize(plain[0].outs).p50
		rep.e2e["cpu_ms_per_op"] = cpu.Seconds() * 1e3 / float64(max(1, completed))
		rep.e2e["ops_per_s"] = median(capacities)
		rep.scaleToReference(meter, "cpu_ms_per_op", "ops_per_s")
	}
	rep.note("rounds", float64(sh.rounds), "count")

	replay, err := newServer(ds, dir, 1, nil)
	if err != nil {
		return nil, err
	}
	defer replay.srv.Close()
	for i, r := range checked {
		for k, body := range r.resps {
			if body == nil {
				continue
			}
			if err := fullCheck(body); err != nil {
				rep.problem("level %s: %v", levels[i].name, err)
				continue
			}
			again := replay.post(r.reqs[k], nil)
			if again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), body) {
				rep.problem("level %s: request %s answered differently without batching (status %d)",
					levels[i].name, r.reqs[k], again.Code)
			}
		}
	}
	return rep, nil
}

// capacitySlice is the rate of 200 responses that capacityClients
// closed-loop clients get over length, after its first tenth. Its
// responses get the quick check too.
func capacitySlice(s *server, rep *report, length time.Duration, seed int64) float64 {
	// Enough distinct requests for any plausible rate; past the end they
	// repeat, long after the response cache has evicted them.
	bodies := requestBodies(seed, int(5*levels[2].rate*length.Seconds()))
	runtime.GC()
	rate, sent, failed := closedLoop(capacityClients, length, length/10, func(i int) int {
		rec := s.post(bodies[i%len(bodies)], nil)
		if rec.Code == http.StatusOK {
			if err := quickCheck(rec.Body.Bytes()); err != nil {
				rep.problem("%s", err)
			}
		}
		return rec.Code
	})
	rep.attempted += sent
	rep.failed += failed
	return rate
}

// layers fills the serving per-layer metrics from the traced levels, with
// the untraced levels as the reference for tracing overhead.
func layers(rep *report, plain, traced [3]levelRun) {
	procs := float64(runtime.GOMAXPROCS(0))
	perOp := func(runs [3]levelRun) float64 {
		var cpu time.Duration
		n := 0
		for _, r := range runs {
			cpu += r.cpu
			n += r.completed
		}
		return cpu.Seconds() / float64(max(1, n))
	}
	rep.layers["trace.overhead"] = perOp(traced)/perOp(plain) - 1

	sum := map[string]float64{}
	var cpu, wall time.Duration
	for i, r := range traced {
		name := levels[i].name
		d := r.delta
		for k, v := range d {
			sum[k] += v
		}
		cpu += r.cpu
		wall += r.wall
		var waits []float64
		requests, httpSum := 0, 0.0
		for _, sp := range r.spans {
			switch sp.Name {
			case "serve.queue_wait":
				waits = append(waits, float64(sp.Dur)/1e6)
			case "bench.http":
				requests++
				httpSum += float64(sp.Dur) / 1e6
			}
		}
		rep.layers["serve.queue_wait_ms_p50_"+name] = median(waits)
		batches := d["gmr_serve_lane_batches_total"]
		rep.layers["serve.lane_fill_"+name] = safeDiv(d["gmr_serve_lane_members_total"], batches*laneWidth)
		rep.layers["serve.launches_per_req_"+name] = safeDiv(batches, float64(r.completed))
		rep.layers["serve.kernel_busy_share_"+name] = d["gmr_serve_kernel_seconds_sum"] / (r.wall.Seconds() * procs)
		// Handler self time: what a request spends in the HTTP layer
		// outside the queue and its cohort's kernel launches, averaged over
		// requests.
		executed := d["gmr_serve_queue_wait_seconds_count"]
		kernelMs := 1e3 * safeDiv(d["gmr_serve_kernel_seconds_sum"], d["gmr_serve_kernel_seconds_count"])
		perCohort := safeDiv(batches, d["gmr_serve_batch_wait_seconds_count"])
		inside := 1e3*d["gmr_serve_queue_wait_seconds_sum"] + executed*kernelMs*perCohort
		rep.layers["serve.handler_self_ms_"+name] = safeDiv(httpSum-inside, float64(requests))
		st := summarize(r.outs)
		rep.layers["serve.shed_ratio_"+name] = safeDiv(float64(st.shed), float64(st.attempted))
		rep.layers["loadgen.late_ms_p99_"+name] = st.lateP99
		rep.spans = append(rep.spans, r.spans...)
	}
	rep.layers["serve.kernel_ms_mean"] = 1e3 * safeDiv(sum["gmr_serve_kernel_seconds_sum"], sum["gmr_serve_kernel_seconds_count"])
	rep.layers["serve.resp_cache_hit_ratio"] = safeDiv(sum["gmr_serve_response_cache_hits_total"],
		sum["gmr_serve_response_cache_hits_total"]+sum["gmr_serve_response_cache_misses_total"])
	rep.layers["serve.plan_cache_hit_ratio"] = safeDiv(sum["gmr_serve_plan_cache_hits_total"],
		sum["gmr_serve_plan_cache_hits_total"]+sum["gmr_serve_plan_cache_misses_total"])
	rep.layers["serve.deadline_drops"] = sum["gmr_serve_deadline_drops_total"]
	rep.layers["process.cpu_util"] = cpu.Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
