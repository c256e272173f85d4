// Command gmrd is the forecast-serving daemon: it loads revised models
// (gmr -export-model bundles or orchestrator checkpoints) from a
// directory and serves forecasts over HTTP with micro-batched execution
// (DESIGN.md §12).
//
//	gmrd serve -models ./models [-addr :8080] [-data nakdong.csv]
//	    [-substeps 2] [-max-batch 8] [-batch-window 2ms]
//	    [-queue 256] [-workers 0] [-cache 1024] [-plan-cache 128]
//	    [-request-timeout 10s] [-drain-timeout 10s]
//
// Endpoints: POST /v2/forecast (point or posterior-ensemble forecasts,
// strict decoding, typed error envelope), GET /v2/models, POST /v2/reload;
// POST /v1/forecast, GET /v1/models, POST /v1/reload (compatibility
// adapters, pinned byte-for-byte to the pre-v2 responses);
// GET /healthz, GET /readyz, GET /metrics (Prometheus text),
// GET /debug/spans (span ring), GET /debug/pprof/* (runtime profiles).
//
// SIGHUP rescans the model directory and hot-swaps the catalog without
// dropping in-flight requests. SIGINT/SIGTERM drain gracefully: readiness
// flips to 503, in-flight requests finish (up to -drain-timeout), then
// the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gmr/internal/dataset"
	"gmr/internal/expr"
	"gmr/internal/obs"
	"gmr/internal/serve"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "serve" {
		fmt.Fprintln(os.Stderr, "usage: gmrd serve [flags] (see gmrd serve -h)")
		os.Exit(2)
	}
	if err := runServe(context.Background(), os.Args[2:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "gmrd:", err)
		os.Exit(1)
	}
}

// runServe is the daemon body, factored for tests: ctx cancellation is
// equivalent to SIGTERM, and announce (if non-nil) receives the bound
// address — pass -addr :0 to serve on a free port.
func runServe(ctx context.Context, args []string, out io.Writer, announce func(addr string)) error {
	fs := flag.NewFlagSet("gmrd serve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address (use :0 for a free port)")
		modelsDir = fs.String("models", "", "model directory: *.json bundles (gmr -export-model) and *.ckpt checkpoints")
		dataPath  = fs.String("data", "", "serving dataset CSV (from datagen); empty = generate synthetic data")
		dataSeed  = fs.Int64("data-seed", 7, "seed for the synthetic dataset when -data is empty")
		subSteps  = fs.Int("substeps", 2, "Euler substeps per day (must match the training regime)")

		maxBatch    = fs.Int("max-batch", 0, "cohort size cap, 1..8 (0 = lane width; 1 disables micro-batching)")
		batchWindow = fs.Duration("batch-window", 2*time.Millisecond, "longest a cohort waits for co-batchable requests; a lone request at low load does not wait")
		queueSize   = fs.Int("queue", 256, "admission queue bound (full queue sheds with 429)")
		workers     = fs.Int("workers", 0, "cohort executor pool size (0 = GOMAXPROCS)")

		cacheSize  = fs.Int("cache", 1024, "response cache entries (negative disables)")
		planCache  = fs.Int("plan-cache", 128, "exogenous-plan cache entries (negative disables)")
		reqTimeout = fs.Duration("request-timeout", 10*time.Second, "end-to-end forecast deadline, queueing included")
		drainFor   = fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline for in-flight requests")

		spanRing = fs.Int("span-ring", 512, "span tracer ring size (0 disables tracing)")
		slowSpan = fs.Duration("slow-span", 0, "log serving-path spans slower than this threshold (0 disables; requires -span-ring above 0)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelsDir == "" {
		return errors.New("-models is required")
	}
	if *subSteps < 1 {
		return errors.New("-substeps must be at least 1")
	}
	if *slowSpan != 0 && *spanRing <= 0 {
		return errors.New("-slow-span requires -span-ring above 0")
	}
	if *maxBatch < 0 || *maxBatch > expr.Lanes {
		return fmt.Errorf("-max-batch must be between 0 and %d", expr.Lanes)
	}

	var ds *dataset.Dataset
	var err error
	if *dataPath == "" {
		fmt.Fprintf(out, "generating synthetic Nakdong dataset (seed %d)...\n", *dataSeed)
		ds, err = dataset.Generate(dataset.Config{Seed: *dataSeed})
	} else {
		var f *os.File
		f, err = os.Open(*dataPath)
		if err == nil {
			ds, err = dataset.ReadCSV(f)
			f.Close()
		}
	}
	if err != nil {
		return err
	}

	// The daemon owns one obs registry and span tracer for its whole life:
	// the server publishes the serving families on it, and the handler mux
	// below adds /debug/spans and /debug/pprof next to /metrics. The
	// registry outliving the server is what keeps hot reloads and restarts
	// single-owner (registration is get-or-create).
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *spanRing > 0 {
		tracer = obs.NewTracer(obs.TracerConfig{
			Ring:          *spanRing,
			SlowThreshold: *slowSpan,
			SlowLog: func(rec obs.SpanRecord) {
				fmt.Fprintf(out, "gmrd: slow span %s: %s\n", rec.Name, rec.Dur)
			},
		})
		tracer.RegisterMetrics(reg)
	}

	cfg := serve.Config{
		Dataset:        ds,
		SubSteps:       *subSteps,
		ModelsDir:      *modelsDir,
		MaxBatch:       *maxBatch,
		BatchWindow:    *batchWindow,
		QueueSize:      *queueSize,
		Workers:        *workers,
		CacheSize:      *cacheSize,
		PlanCacheSize:  *planCache,
		RequestTimeout: *reqTimeout,
		Obs:            reg,
		Tracer:         tracer,
	}
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "gmrd: serving on %s — %s\n", ln.Addr(), catalogSummary(s))
	if announce != nil {
		announce(ln.Addr().String())
	}

	// SIGHUP → hot reload. Registered independently of the termination
	// context so reloads keep working for the daemon's whole life.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if err := s.Reload(); err != nil {
				fmt.Fprintf(out, "gmrd: reload failed: %v\n", err)
				continue
			}
			fmt.Fprintf(out, "gmrd: reloaded — %s\n", catalogSummary(s))
		}
	}()

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The serve handler already exposes /metrics off the shared registry;
	// wrap it in a mux that adds the debug endpoints alongside.
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("/debug/spans", tracer)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop advertising readiness, let in-flight requests
	// finish, then flush the executor. A second signal aborts immediately
	// (NotifyContext unregisters on the first).
	fmt.Fprintln(out, "gmrd: draining...")
	s.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	err = hs.Shutdown(sctx)
	s.Close()
	if err != nil {
		return fmt.Errorf("drain incomplete after %s: %v", *drainFor, err)
	}
	fmt.Fprintln(out, "gmrd: stopped")
	return nil
}

func catalogSummary(s *serve.Server) string {
	models := s.Registry().Models()
	ready := 0
	for _, m := range models {
		if m.Ready() {
			ready++
		}
	}
	name := "none"
	if champ, _ := s.Registry().Lookup(""); champ != nil {
		name = champ.ID
	}
	return fmt.Sprintf("%d models (%d ready), champion %s", len(models), ready, name)
}
