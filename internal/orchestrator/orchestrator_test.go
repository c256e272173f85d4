package orchestrator

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gmr/internal/expr"
	"gmr/internal/gp"
	"gmr/internal/stats"
	"gmr/internal/tag"
)

// testGrammar builds a small symbolic-regression grammar: start from the
// constant 1 (labeled Exp), grow with β: Exp → (Exp* + R↓), R ∈ {0.5, 1, 2}.
// It mirrors the gp package's toy test grammar.
func testGrammar() *tag.Grammar {
	alpha := &tag.ElemTree{Name: "a", Kind: tag.Alpha, RootSym: "Exp",
		Root: expr.NewLit(1).Labeled("Exp")}
	beta := &tag.ElemTree{Name: "b:add", Kind: tag.Beta, RootSym: "Exp",
		Root: expr.Add(expr.NewFoot("Exp"), expr.NewSubSite("R")).Labeled("Exp")}
	return &tag.Grammar{
		Alphas: []*tag.ElemTree{alpha},
		Betas:  map[string][]*tag.ElemTree{"Exp": {beta}},
		Lexemes: map[string]tag.LexemeGen{"R": func(rng *rand.Rand) *tag.LexemeChoice {
			vals := []float64{0.5, 1, 2}
			return &tag.LexemeChoice{Name: "R", Tree: expr.NewLit(vals[rng.Intn(len(vals))])}
		}},
	}
}

// valueEvaluator is a pure fitness function (of structure and params only),
// so orchestrated runs satisfy the bitwise-determinism contract. It has no
// Snapshot method: gen telemetry records omit the cache field entirely.
type valueEvaluator struct {
	target float64
	evals  atomic.Int64
}

func (v *valueEvaluator) BeginBatch() {}
func (v *valueEvaluator) EndBatch()   {}
func (v *valueEvaluator) Evaluate(ind *gp.Individual) {
	v.evals.Add(1)
	derived, err := ind.Deriv.Derive()
	if err != nil {
		ind.Fitness = math.Inf(1)
		ind.Evaluated = true
		return
	}
	val, err := derived.Eval(&expr.Env{})
	if err != nil {
		ind.Fitness = math.Inf(1)
		ind.Evaluated = true
		return
	}
	for _, p := range ind.Params {
		val += p
	}
	ind.Fitness = math.Abs(val - v.target)
	ind.Evaluated = true
	ind.FullEval = true
}

func testConfig(seed int64, maxGen int) Config {
	return Config{
		Islands:        4,
		MigrationEvery: 2,
		Migrants:       1,
		GP: gp.Config{
			PopSize: 16, MaxGen: maxGen, MinSize: 1, MaxSize: 12,
			LocalSearchSteps: 1,
			Priors:           []gp.Prior{{Mean: 0.5, Min: 0, Max: 1}},
			Seed:             seed,
			Workers:          2,
		},
		Grammar:         testGrammar(),
		NewEvaluator:    func(int) gp.Evaluator { return &valueEvaluator{target: 7.25} },
		CheckpointEvery: -1, // only on cancellation/completion
	}
}

// deterministicLines filters a JSONL telemetry stream down to the records the
// determinism contract covers ("gen" and "migration"), optionally keeping only
// generations > after.
func deterministicLines(t *testing.T, stream []byte, after int) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(string(stream)), "\n") {
		if line == "" {
			continue
		}
		var rec struct {
			Type string `json:"type"`
			Gen  int    `json:"gen"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad telemetry line %q: %v", line, err)
		}
		if rec.Type != "gen" && rec.Type != "migration" {
			continue
		}
		if rec.Gen <= after {
			continue
		}
		out = append(out, line)
	}
	return out
}

// cancelAtGen is an io.Writer that tees telemetry into a buffer and cancels
// a context as soon as it sees a "gen" record for the target generation. The
// orchestrator honors cancellation at the next generation barrier, so the run
// stops deterministically right after that generation (and its migration).
type cancelAtGen struct {
	buf    bytes.Buffer
	target int
	cancel context.CancelFunc
}

func (c *cancelAtGen) Write(p []byte) (int, error) {
	n, err := c.buf.Write(p)
	var rec struct {
		Type string `json:"type"`
		Gen  int    `json:"gen"`
	}
	if json.Unmarshal(bytes.TrimSpace(p), &rec) == nil &&
		rec.Type == "gen" && rec.Gen == c.target {
		c.cancel()
	}
	return n, err
}

// TestResumeBitwiseDeterministic is the acceptance test: a 4-island run for G
// generations produces a bitwise-identical best individual and deterministic
// telemetry to the same run checkpointed at G/2 and resumed.
func TestResumeBitwiseDeterministic(t *testing.T) {
	const (
		seed = int64(42)
		G    = 8
	)

	// Continuous reference run.
	var contTele bytes.Buffer
	contCfg := testConfig(seed, G)
	contCfg.Telemetry = &contTele
	contOrch, err := New(contCfg)
	if err != nil {
		t.Fatal(err)
	}
	contRes, err := contOrch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if contRes.Interrupted || contRes.Generations != G {
		t.Fatalf("continuous run: interrupted=%v generations=%d, want complete %d",
			contRes.Interrupted, contRes.Generations, G)
	}

	// Interrupted run: cancel at the G/2 barrier; the final checkpoint then
	// snapshots exactly generation G/2 (post-migration).
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tee := &cancelAtGen{target: G / 2, cancel: cancel}
	halfCfg := testConfig(seed, G)
	halfCfg.CheckpointPath = ckPath
	halfCfg.Telemetry = tee
	halfOrch, err := New(halfCfg)
	if err != nil {
		t.Fatal(err)
	}
	halfRes, err := halfOrch.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !halfRes.Interrupted || halfRes.Generations != G/2 {
		t.Fatalf("interrupted run: interrupted=%v generations=%d, want interrupted at %d",
			halfRes.Interrupted, halfRes.Generations, G/2)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Gen != G/2 {
		t.Fatalf("checkpoint at generation %d, want %d", ck.Gen, G/2)
	}
	// The atomic writer must leave no temp droppings behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s after checkpoint", e.Name())
		}
	}

	// Resumed run: fresh orchestrator, restore, finish the budget.
	var resTele bytes.Buffer
	resCfg := testConfig(seed, G)
	resCfg.Telemetry = &resTele
	resOrch, err := New(resCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resOrch.Resume(ckPath); err != nil {
		t.Fatal(err)
	}
	resRes, err := resOrch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resRes.Interrupted || resRes.Generations != G {
		t.Fatalf("resumed run: interrupted=%v generations=%d, want complete %d",
			resRes.Interrupted, resRes.Generations, G)
	}

	// Best individual: bitwise-identical fitness, same structure, bit-equal
	// parameters, same originating island.
	if got, want := math.Float64bits(resRes.Best.Fitness), math.Float64bits(contRes.Best.Fitness); got != want {
		t.Errorf("best fitness differs: resumed %x (%v) vs continuous %x (%v)",
			got, resRes.Best.Fitness, want, contRes.Best.Fitness)
	}
	if got, want := resRes.Best.Deriv.String(), contRes.Best.Deriv.String(); got != want {
		t.Errorf("best derivation differs:\nresumed   %s\ncontinuous %s", got, want)
	}
	if len(resRes.Best.Params) != len(contRes.Best.Params) {
		t.Fatalf("best params length differs: %d vs %d", len(resRes.Best.Params), len(contRes.Best.Params))
	}
	for i := range resRes.Best.Params {
		if math.Float64bits(resRes.Best.Params[i]) != math.Float64bits(contRes.Best.Params[i]) {
			t.Errorf("best param %d differs: %v vs %v", i, resRes.Best.Params[i], contRes.Best.Params[i])
		}
	}
	if resRes.BestIsland != contRes.BestIsland {
		t.Errorf("best island differs: %d vs %d", resRes.BestIsland, contRes.BestIsland)
	}
	if resRes.Migrations != contRes.Migrations {
		t.Errorf("migration count differs: %d vs %d", resRes.Migrations, contRes.Migrations)
	}

	// Telemetry: the deterministic records ("gen"/"migration") of the
	// interrupted stream (≤ G/2) plus the resumed stream (> G/2) must be
	// byte-identical to the continuous stream's.
	contLines := deterministicLines(t, contTele.Bytes(), -1)
	stitched := append(deterministicLines(t, tee.buf.Bytes(), -1),
		deterministicLines(t, resTele.Bytes(), G/2)...)
	if len(contLines) != len(stitched) {
		t.Fatalf("telemetry line count differs: continuous %d vs stitched %d",
			len(contLines), len(stitched))
	}
	for i := range contLines {
		if contLines[i] != stitched[i] {
			t.Errorf("telemetry line %d differs:\ncontinuous %s\nstitched   %s",
				i, contLines[i], stitched[i])
		}
	}
}

// TestConfigureIslandConcurrent: New runs ConfigureIsland for every island
// at once (each call here returns only after all islands have entered),
// hands each the seed drawn for it in island order, and builds each
// island's engine from that island's returned config.
func TestConfigureIslandConcurrent(t *testing.T) {
	cfg := testConfig(5, 2)
	var entered sync.WaitGroup
	entered.Add(cfg.Islands)
	allIn := make(chan struct{})
	go func() { entered.Wait(); close(allIn) }()
	seeds := make([]int64, cfg.Islands)
	cfg.ConfigureIsland = func(i int, icfg gp.Config) gp.Config {
		entered.Done()
		select {
		case <-allIn:
		case <-time.After(5 * time.Second):
			t.Errorf("island %d: ConfigureIsland calls did not overlap", i)
		}
		seeds[i] = icfg.Seed
		icfg.InitParams = []float64{float64(i) / 10}
		return icfg
	}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, e := range o.engines {
			e.Close()
		}
	}()
	master := stats.NewRNG(cfg.GP.Seed)
	for i, seed := range seeds {
		if want := master.Int63(); seed != want {
			t.Errorf("island %d configured with seed %d, want %d", i, seed, want)
		}
		if err := o.engines[i].Start(); err != nil {
			t.Fatal(err)
		}
		for _, ind := range o.engines[i].Population() {
			if ind.Params[0] != float64(i)/10 {
				t.Fatalf("island %d engine holds params %v, want island %d's InitParams", i, ind.Params, i)
			}
		}
	}
}

func TestMigrationMovesElites(t *testing.T) {
	var tele bytes.Buffer
	cfg := testConfig(7, 6)
	cfg.Islands = 2
	cfg.MigrationEvery = 1
	cfg.Migrants = 2
	cfg.Telemetry = &tele
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 2 islands × migrations after gens 1..5 (not after the final gen).
	if want := 2 * 5; res.Migrations != want {
		t.Errorf("migrations = %d, want %d", res.Migrations, want)
	}
	migs := 0
	for _, line := range strings.Split(strings.TrimSpace(tele.String()), "\n") {
		var rec struct {
			Type  string `json:"type"`
			From  int    `json:"from"`
			To    int    `json:"to"`
			Count int    `json:"count"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad telemetry line %q: %v", line, err)
		}
		if rec.Type != "migration" {
			continue
		}
		migs++
		if rec.To != (rec.From+1)%2 {
			t.Errorf("migration %d→%d is not a ring edge", rec.From, rec.To)
		}
		if rec.Count != 2 {
			t.Errorf("migration carried %d migrants, want 2", rec.Count)
		}
	}
	if migs != res.Migrations {
		t.Errorf("telemetry has %d migration records, result counted %d", migs, res.Migrations)
	}
	if pool := res.PoolModels(); len(pool) == 0 {
		t.Error("PoolModels returned empty pool")
	} else {
		for i := 1; i < len(pool); i++ {
			if pool[i].Fitness < pool[i-1].Fitness {
				t.Errorf("PoolModels not fitness-sorted at %d: %v < %v",
					i, pool[i].Fitness, pool[i-1].Fitness)
			}
		}
	}
}

func TestCorruptCheckpointRejected(t *testing.T) {
	dir := t.TempDir()

	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	cases := []struct {
		name string
		path string
		want string
	}{
		{"missing", filepath.Join(dir, "nope.ckpt"), "no such file"},
		{"garbage", write("garbage.ckpt", "not json at all"), "corrupted or truncated"},
		{"truncated", write("trunc.ckpt", `{"version":1,"gen":5,"islands":[{"ver`), "corrupted or truncated"},
		{"badversion", write("ver.ckpt", `{"version":99,"islands":[{}]}`), "version 99"},
		{"noislands", write("empty.ckpt", `{"version":1}`), "no islands"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadCheckpoint(tc.path)
			if err == nil {
				t.Fatalf("LoadCheckpoint(%s) accepted a bad checkpoint", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			o, err2 := New(testConfig(1, 4))
			if err2 != nil {
				t.Fatal(err2)
			}
			if err := o.Resume(tc.path); err == nil {
				t.Errorf("Resume(%s) accepted a bad checkpoint", tc.name)
			}
		})
	}
}

func TestResumeConfigMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "run.ckpt")
	cfg := testConfig(3, 4)
	cfg.CheckpointPath = ckPath
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Same config resumes (even when already complete).
	same, err := New(testConfig(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := same.Resume(ckPath); err != nil {
		t.Fatalf("identical config refused to resume: %v", err)
	}
	if err := same.Resume(ckPath); err == nil {
		t.Error("double Resume accepted")
	}

	// A different seed is a different run: refuse.
	other, err := New(testConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Resume(ckPath); err == nil {
		t.Error("Resume accepted a checkpoint from a different configuration")
	} else if !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("mismatch error %q does not mention the configuration", err)
	}
}

func TestCancelledRunWritesCheckpointAndResumes(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "run.ckpt")
	cfg := testConfig(11, 6)
	cfg.CheckpointPath = ckPath
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first generation barrier
	res, err := o.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Error("run with cancelled context not marked interrupted")
	}
	if res.Generations != 0 {
		t.Errorf("cancelled run advanced %d generations, want 0", res.Generations)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("cancelled run left no readable checkpoint: %v", err)
	}
	if ck.Gen != 0 {
		t.Errorf("checkpoint generation %d, want 0", ck.Gen)
	}

	// The checkpoint restores and the run completes its budget.
	o2, err := New(testConfig(11, 6))
	if err != nil {
		t.Fatal(err)
	}
	if err := o2.Resume(ckPath); err != nil {
		t.Fatal(err)
	}
	res2, err := o2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Interrupted || res2.Generations != 6 {
		t.Errorf("resumed run: interrupted=%v generations=%d, want complete 6",
			res2.Interrupted, res2.Generations)
	}
	if res2.Best == nil || math.IsInf(res2.Best.Fitness, 1) {
		t.Error("resumed run produced no finite best individual")
	}
}

func TestConfigValidation(t *testing.T) {
	base := testConfig(1, 4)

	bad := base
	bad.Islands = -1
	if _, err := New(bad); err == nil {
		t.Error("negative island count accepted")
	}

	bad = base
	bad.Grammar = nil
	if _, err := New(bad); err == nil {
		t.Error("nil grammar accepted")
	}

	bad = base
	bad.NewEvaluator = nil
	if _, err := New(bad); err == nil {
		t.Error("nil evaluator factory accepted")
	}

	bad = base
	bad.GP.MaxGen = 0
	if _, err := New(bad); err == nil {
		t.Error("zero generation budget accepted")
	}

	bad = base
	bad.Migrants = -2
	if _, err := New(bad); err == nil {
		t.Error("negative migrant count accepted")
	}
}
