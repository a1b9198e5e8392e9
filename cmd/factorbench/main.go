// Command factorbench regenerates the reproduction experiments catalogued
// in EXPERIMENTS.md: every figure, worked example, and complexity claim of
// "Argument Reduction by Factoring".
//
// Usage:
//
//	factorbench                    # run every experiment
//	factorbench -run E2            # run one experiment
//	factorbench -list              # list experiment IDs and titles
//	factorbench -json [-n N]       # machine-readable strategy metrics (BENCH_*.json)
//	factorbench -mutate [-json]    # incremental-vs-scratch view maintenance comparison
//	factorbench -autoplan [-json]  # adaptive optimizer vs every fixed strategy
//	factorbench -pprof-addr :6060  # serve net/http/pprof while running
//
// With -json, factorbench evaluates every strategy over the E1
// transitive-closure workload (a chain of N edges, query from node N/3)
// with engine tracing enabled, and emits one JSON metrics document: per
// strategy, the pipeline stage spans, per-rule and per-round counters, and
// total wall time (schema v10 dropped the workers, worker_stats and strata
// row fields along with the parallel evaluator); since schema v7
// the document also carries a stream_compare block pitting the streaming
// executor against the materializing fixpoint on the layered non-recursive
// join workload, with per-operator row counters from a traced streamed run.
// With -mutate, a mutate_compare block (schema v8) additionally pits
// incremental view maintenance (counting insertion deltas and deletions,
// see docs/INCREMENTAL.md) against from-scratch recomputation under live
// fact ingestion: tail-extension asserts on the chain TC and source-tuple
// retracts on the layered joins, each differentially verified.
// With -autoplan, a schema-v9 autoplan_compare block races the adaptive
// cost-based optimizer (see docs/PLANNER.md) against every fixed candidate
// strategy on three workload families with different best-fixed winners,
// reporting per family the measured wall of each fixed strategy, the
// optimizer's pick with its plan-search overhead, the candidate cost table,
// and the ratio of the auto pick to the best fixed strategy.
// The committed BENCH_*.json files are snapshots of this output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/cost"
	"factorlog/internal/engine"
	"factorlog/internal/experiments"
	"factorlog/internal/obsv"
	"factorlog/internal/parser"
	"factorlog/internal/pipeline"
	"factorlog/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "factorbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("factorbench", flag.ContinueOnError)
	one := fs.String("run", "", "run a single experiment by ID (e.g. E2)")
	list := fs.Bool("list", false, "list experiments")
	jsonOut := fs.Bool("json", false, "emit a JSON metrics document for the strategy sweep")
	mutate := fs.Bool("mutate", false, "with -json, add the incremental-vs-scratch mutate_compare block; alone, print it")
	autoplan := fs.Bool("autoplan", false, "with -json, add the autoplan_compare block; alone, print it")
	n := fs.Int("n", 256, "workload size for -json (chain length)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		go func() {
			fmt.Fprintln(os.Stderr, "factorbench: pprof on", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "factorbench: pprof:", err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}

	if *jsonOut {
		return emitJSON(os.Stdout, *n, *mutate, *autoplan)
	}

	if *autoplan {
		ac, err := compareAutoplan(*n)
		if err != nil {
			return err
		}
		for _, f := range ac.Families {
			fmt.Printf("%s  %s\n", f.Family, f.Query)
			for _, r := range f.Fixed {
				if r.Error != "" {
					fmt.Printf("  %-14s unavailable: %s\n", r.Strategy, r.Error)
					continue
				}
				fmt.Printf("  %-14s %10.3fms  %8d inferences\n",
					r.Strategy, float64(r.WallNS)/1e6, r.Inferences)
			}
			fmt.Printf("  auto -> %s (%.3fms pick overhead), %.2fx best fixed (%s)\n",
				f.Auto.Strategy, float64(f.PickWallNS)/1e6, f.RatioToBest, f.BestFixed)
		}
		fmt.Printf("global best fixed: %s; auto beats it on: %s\n",
			ac.GlobalBestFixed, strings.Join(ac.AutoBeatsGlobalOn, ", "))
		return nil
	}

	if *mutate {
		mc, err := compareMutation(*n, 8)
		if err != nil {
			return err
		}
		for _, ph := range []mutatePhase{mc.Assert, mc.Retract} {
			fmt.Printf("%s (n=%d, %d batches)\n", ph.Workload, ph.N, ph.Batches)
			fmt.Printf("  incremental %10.3fms   scratch %10.3fms   speedup %.1fx\n",
				float64(ph.IncrementalWallNS)/1e6, float64(ph.ScratchWallNS)/1e6, ph.Speedup)
			fmt.Printf("  +%d / -%d derived facts, final epoch %d, verified=%v\n",
				ph.NewFacts, ph.DeletedFacts, ph.FinalEpoch, ph.Verified)
		}
		return nil
	}

	if *one != "" {
		e, ok := experiments.ByID(*one)
		if !ok {
			return fmt.Errorf("no experiment %q (try -list)", *one)
		}
		return runOne(e)
	}

	for _, e := range experiments.All() {
		if err := runOne(e); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println()
	}
	return nil
}

func runOne(e experiments.Experiment) error {
	tbl, err := e.Run()
	if err != nil {
		return err
	}
	fmt.Print(tbl.Render())
	return nil
}

// metricsDoc is the envelope of the machine-readable output of -json; the
// committed BENCH_*.json files follow this schema.
type metricsDoc struct {
	Schema   string       `json:"schema"`
	Tool     string       `json:"tool"`
	Workload string       `json:"workload"`
	N        int          `json:"n"`
	Query    string       `json:"query"`
	Runs     []metricsRun `json:"runs"`
	// StageSummary aggregates the pipeline stage spans across all runs: per
	// stage name, how many runs recorded it and the total/max wall and
	// allocation cost. New in schema v6.
	StageSummary []stageSummary `json:"stage_summary"`
	// StreamCompare is the streaming-vs-materializing executor comparison
	// over the join-heavy layered workload. New in schema v7.
	StreamCompare *streamCompare `json:"stream_compare,omitempty"`
	// MutateCompare is the incremental-vs-from-scratch view maintenance
	// comparison (see docs/INCREMENTAL.md), emitted with -mutate. New in
	// schema v8.
	MutateCompare *mutateCompare `json:"mutate_compare,omitempty"`
	// AutoplanCompare races the adaptive cost-based optimizer against every
	// fixed candidate strategy (see docs/PLANNER.md), emitted with
	// -autoplan. New in schema v9.
	AutoplanCompare *autoplanCompare `json:"autoplan_compare,omitempty"`
}

// autoplanCompare is the -autoplan block: per workload family, every fixed
// candidate strategy's measured evaluation against the optimizer's pick.
// The families are chosen so no single fixed strategy wins everywhere —
// the bound chain TC rewards the factored rewrite, the free layered joins
// reward plain semi-naive, and the selective wide-pairs probe rewards a
// sideways-information-passing rewrite — so an adaptive pick must beat any
// one fixed choice somewhere.
type autoplanCompare struct {
	Families []autoplanFamily `json:"families"`
	// GlobalBestFixed is the fixed strategy with the lowest total
	// best-relative wall ratio across the families it can run on all of;
	// AutoBeatsGlobalOn lists the families where the auto pick's measured
	// wall beats that strategy's.
	GlobalBestFixed   string   `json:"global_best_fixed"`
	AutoBeatsGlobalOn []string `json:"auto_beats_global_on"`
}

// autoplanFamily is one workload family's race. Fixed carries every
// candidate strategy's measurement (min wall over reps); Auto is the
// optimizer's pick measured the same way, with the one-time plan-search
// overhead reported separately as PickWallNS.
type autoplanFamily struct {
	Family string        `json:"family"`
	Query  string        `json:"query"`
	Fixed  []autoplanRun `json:"fixed"`
	Auto   autoplanRun   `json:"auto"`
	// PickWallNS is the cost of the plan search itself (statistics
	// snapshot + candidate enumeration), paid once per decision.
	PickWallNS      int64  `json:"pick_wall_ns"`
	BestFixed       string `json:"best_fixed"`
	BestFixedWallNS int64  `json:"best_fixed_wall_ns"`
	// RatioToBest is auto wall over best fixed wall: 1.0 means the
	// optimizer picked (and matched) the per-family winner.
	RatioToBest float64 `json:"ratio_to_best"`
	// Candidates is the optimizer's estimated-cost table for the decision.
	Candidates []pipeline.CandidateInfo `json:"candidates"`
}

// autoplanRun is one (family, strategy) measurement: best wall over the
// reps plus the deterministic work counters from that run.
type autoplanRun struct {
	Strategy   string `json:"strategy"`
	Error      string `json:"error,omitempty"`
	WallNS     int64  `json:"wall_ns"`
	Inferences int    `json:"inferences"`
	Answers    int    `json:"answers"`
}

// autoplanWorkload is one family definition: a pipeline factory and a fresh
// EDB per run.
type autoplanWorkload struct {
	family string
	pl     *pipeline.Pipeline
	load   func() *engine.DB
}

// autoplanWorkloads builds the three families. The chain length n comes
// from -n; the other sizes are fixed so the family shapes (not the flag)
// determine the winners.
func autoplanWorkloads(n int) ([]autoplanWorkload, error) {
	e1, e1load := experiments.E1Pipeline(n)

	const stages = 4
	jprog, err := parser.ParseProgram(workload.LayeredJoinProgram(stages))
	if err != nil {
		return nil, err
	}
	jn := n * 2
	jpl := pipeline.New(jprog, workload.LayeredJoinQuery(stages))
	jload := func() *engine.DB {
		db := engine.NewDB()
		workload.LayeredJoins(db, stages, jn, 2)
		return db
	}

	wprog, err := parser.ParseProgram("hit(X, Y) :- w(X, Y).\nhit2(Y) :- hit(3, Y).")
	if err != nil {
		return nil, err
	}
	wq, err := parser.ParseAtom("hit2(Y)")
	if err != nil {
		return nil, err
	}
	wn := n * 40
	wpl := pipeline.New(wprog, wq)
	wload := func() *engine.DB {
		db := engine.NewDB()
		workload.WidePairs(db, "w", wn, 16)
		return db
	}

	return []autoplanWorkload{
		{family: "chain-tc", pl: e1, load: e1load},
		{family: "layered-joins", pl: jpl, load: jload},
		{family: "wide-pairs", pl: wpl, load: wload},
	}, nil
}

// measureStrategy runs one (family, strategy) cell reps times over fresh
// EDBs and keeps the best wall; the work counters are deterministic across
// reps.
func measureStrategy(w autoplanWorkload, s pipeline.Strategy, reorder bool, reps int) autoplanRun {
	run := autoplanRun{Strategy: s.String()}
	for rep := 0; rep < reps; rep++ {
		r, err := w.pl.Run(s, w.load(), engine.Options{
			MaxFacts: 10_000_000, ReorderJoins: reorder,
		})
		if err != nil {
			return autoplanRun{Strategy: s.String(), Error: err.Error()}
		}
		if wall := r.EvalWall.Nanoseconds(); rep == 0 || wall < run.WallNS {
			run.WallNS = wall
		}
		run.Inferences = r.Inferences
		run.Answers = len(r.Answers)
	}
	return run
}

// compareAutoplan fills the autoplan_compare block: each family measures
// every fixed candidate strategy and the adaptive pick (statistics from the
// same EDB the runs use), then the cross-family summary names the best
// single fixed strategy and where auto beats it.
func compareAutoplan(n int) (*autoplanCompare, error) {
	const reps = 5
	workloads, err := autoplanWorkloads(n)
	if err != nil {
		return nil, err
	}
	ac := &autoplanCompare{}
	// ratioByStrategy accumulates each always-available fixed strategy's
	// wall relative to its family's best, for the global summary.
	ratioByStrategy := map[string]float64{}
	available := map[string]int{}
	for _, w := range workloads {
		fam := autoplanFamily{Family: w.family, Query: w.pl.Query.String()}

		for _, s := range pipeline.AutoCandidateStrategies() {
			run := measureStrategy(w, s, false, reps)
			fam.Fixed = append(fam.Fixed, run)
			if run.Error == "" && (fam.BestFixed == "" || run.WallNS < fam.BestFixedWallNS) {
				fam.BestFixed = run.Strategy
				fam.BestFixedWallNS = run.WallNS
			}
		}
		if fam.BestFixed == "" {
			return nil, fmt.Errorf("%s: no fixed candidate strategy succeeded", w.family)
		}

		t0 := time.Now()
		dec, err := w.pl.AutoPick(cost.SnapshotFromDB(w.load(), 0))
		fam.PickWallNS = time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("%s: auto pick: %w", w.family, err)
		}
		fam.Candidates = dec.Candidates
		// When the pick matches a fixed cell's exact configuration, its
		// measurement IS that cell's — re-racing the same plan would only
		// report timer noise as a ratio.
		fam.Auto = autoplanRun{Error: "unmeasured"}
		if !dec.Reorder {
			for _, run := range fam.Fixed {
				if run.Strategy == dec.Strategy.String() && run.Error == "" {
					fam.Auto = run
				}
			}
		}
		if fam.Auto.Error != "" {
			fam.Auto = measureStrategy(w, dec.Strategy, dec.Reorder, reps)
		}
		if fam.Auto.Error != "" {
			return nil, fmt.Errorf("%s: auto pick %s failed: %s", w.family, dec.Strategy, fam.Auto.Error)
		}
		fam.RatioToBest = float64(fam.Auto.WallNS) / float64(fam.BestFixedWallNS)

		for _, run := range fam.Fixed {
			if run.Error == "" {
				ratioByStrategy[run.Strategy] += float64(run.WallNS) / float64(fam.BestFixedWallNS)
				available[run.Strategy]++
			}
		}
		ac.Families = append(ac.Families, fam)
	}

	// Global best fixed: lowest total relative wall among strategies that
	// ran on every family (deterministic tie-break on candidate order).
	for _, s := range pipeline.AutoCandidateStrategies() {
		name := s.String()
		if available[name] != len(ac.Families) {
			continue
		}
		if ac.GlobalBestFixed == "" || ratioByStrategy[name] < ratioByStrategy[ac.GlobalBestFixed] {
			ac.GlobalBestFixed = name
		}
	}
	for _, fam := range ac.Families {
		for _, run := range fam.Fixed {
			if run.Strategy == ac.GlobalBestFixed && run.Error == "" && fam.Auto.WallNS < run.WallNS {
				ac.AutoBeatsGlobalOn = append(ac.AutoBeatsGlobalOn, fam.Family)
			}
		}
	}
	return ac, nil
}

// mutateCompare measures live fact ingestion both ways: applying each
// mutation batch to a maintained materialization (incremental, counting
// deltas) versus recomputing the fixpoint from the post-batch base
// (scratch). Assert exercises insertion deltas on the recursive chain-TC
// workload; Retract exercises counting-based deletion on the non-recursive
// layered join workload, where a retracted source tuple cascades through
// the derived layers without a rebuild. New in schema v8.
type mutateCompare struct {
	Assert  mutatePhase `json:"assert"`
	Retract mutatePhase `json:"retract"`
}

// mutatePhase is one mutation scenario's paired measurement. Verified
// reports that the incremental answers matched the from-scratch answers
// after the final batch (the run fails loudly if they do not).
type mutatePhase struct {
	Workload          string  `json:"workload"`
	N                 int     `json:"n"`
	Batches           int     `json:"batches"`
	IncrementalWallNS int64   `json:"incremental_wall_ns"`
	ScratchWallNS     int64   `json:"scratch_wall_ns"`
	Speedup           float64 `json:"speedup"`
	FinalEpoch        int64   `json:"final_epoch"`
	NewFacts          int     `json:"new_facts"`
	DeletedFacts      int     `json:"deleted_facts"`
	Verified          bool    `json:"verified"`
}

func intAtom(pred string, a, b int) ast.Atom {
	return ast.NewAtom(pred, ast.C(strconv.Itoa(a)), ast.C(strconv.Itoa(b)))
}

// chainAtoms mirrors workload.Chain as ground atoms: e(1,2) .. e(n-1,n).
func chainAtoms(n int) []ast.Atom {
	out := make([]ast.Atom, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, intAtom("e", i, i+1))
	}
	return out
}

// layeredAtoms mirrors workload.LayeredJoins as ground atoms.
func layeredAtoms(stages, n, fanout int) []ast.Atom {
	var out []ast.Atom
	for k := 0; k <= stages; k++ {
		pred := fmt.Sprintf("s%d", k)
		for i := 0; i < n; i++ {
			for j := 0; j < fanout; j++ {
				out = append(out, intAtom(pred, i, (i*7+k+j*11)%n))
			}
		}
	}
	return out
}

// measureMutation runs one phase: build a materialization over base, apply
// the scripted batches incrementally, then replay the same batch sequence
// from scratch (one full Materialize per post-batch state), and verify the
// final answer sets agree via the pipeline's projection.
func measureMutation(pl *pipeline.Pipeline, base []ast.Atom, batches [][2][]ast.Atom) (*mutatePhase, error) {
	ctx := context.Background()
	ph := &mutatePhase{Batches: len(batches)}

	mat, err := engine.Materialize(pl.Program, base, engine.MaterializeOptions{})
	if err != nil {
		return nil, err
	}
	for _, b := range batches {
		t0 := time.Now()
		st, err := mat.Apply(ctx, b[0], b[1])
		ph.IncrementalWallNS += time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, err
		}
		ph.NewFacts += st.NewFacts
		ph.DeletedFacts += st.DeletedFacts
	}
	ph.FinalEpoch = mat.Epoch()

	// Scratch replays: the base after batch i is the base after batch i-1
	// plus that batch's changes; each state pays a full fixpoint.
	facts := append([]ast.Atom{}, base...)
	var scratch *engine.Materialization
	for _, b := range batches {
		facts = applyToAtoms(facts, b[0], b[1])
		t0 := time.Now()
		scratch, err = engine.Materialize(pl.Program, facts, engine.MaterializeOptions{})
		ph.ScratchWallNS += time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, err
		}
	}
	if ph.IncrementalWallNS > 0 {
		ph.Speedup = float64(ph.ScratchWallNS) / float64(ph.IncrementalWallNS)
	}

	inc, err := pl.ProjectAnswers(mat.DB())
	if err != nil {
		return nil, err
	}
	want, err := pl.ProjectAnswers(scratch.DB())
	if err != nil {
		return nil, err
	}
	if len(inc) != len(want) {
		return nil, fmt.Errorf("mutate differential: incremental %d answers, scratch %d", len(inc), len(want))
	}
	for a := range want {
		if !inc[a] {
			return nil, fmt.Errorf("mutate differential: incremental missing answer %s", a)
		}
	}
	ph.Verified = true
	return ph, nil
}

// applyToAtoms is the scratch side's base bookkeeping: retract then assert,
// by canonical rendering, mirroring Materialization.Apply's order.
func applyToAtoms(facts, assert, retract []ast.Atom) []ast.Atom {
	drop := make(map[string]bool, len(retract))
	for _, a := range retract {
		drop[a.String()] = true
	}
	out := make([]ast.Atom, 0, len(facts)+len(assert))
	present := make(map[string]bool, len(facts)+len(assert))
	for _, a := range facts {
		k := a.String()
		if drop[k] || present[k] {
			continue
		}
		present[k] = true
		out = append(out, a)
	}
	for _, a := range assert {
		k := a.String()
		if present[k] {
			continue
		}
		present[k] = true
		out = append(out, a)
	}
	return out
}

// compareMutation fills the mutate_compare block: tail-extension assert
// churn on the chain TC (each batch appends one edge, the delta derives
// only the new node's paths) and source-tuple retraction on the layered
// joins (counting deletion cascades the dead tuples, no rebuild).
func compareMutation(n, batches int) (*mutateCompare, error) {
	pl, _ := experiments.E1Pipeline(n)
	var assertBatches [][2][]ast.Atom
	for i := 0; i < batches; i++ {
		assertBatches = append(assertBatches,
			[2][]ast.Atom{{intAtom("e", n+i, n+i+1)}, nil})
	}
	assertPhase, err := measureMutation(pl, chainAtoms(n), assertBatches)
	if err != nil {
		return nil, fmt.Errorf("assert phase: %w", err)
	}
	assertPhase.Workload = "E1 transitive closure, chain EDB, tail-extension asserts"
	assertPhase.N = n

	const stages, fanout = 4, 1
	jn := n * 4
	prog, err := parser.ParseProgram(workload.LayeredJoinProgram(stages))
	if err != nil {
		return nil, err
	}
	jpl := pipeline.New(prog, workload.LayeredJoinQuery(stages))
	var retractBatches [][2][]ast.Atom
	for i := 0; i < batches; i++ {
		retractBatches = append(retractBatches,
			[2][]ast.Atom{nil, {intAtom("s0", i, (i*7)%jn)}})
	}
	retractPhase, err := measureMutation(jpl, layeredAtoms(stages, jn, fanout), retractBatches)
	if err != nil {
		return nil, fmt.Errorf("retract phase: %w", err)
	}
	retractPhase.Workload = "layered non-recursive joins, source-tuple retracts"
	retractPhase.N = jn

	return &mutateCompare{Assert: *assertPhase, Retract: *retractPhase}, nil
}

// streamCompare compares the two bottom-up executors over the layered
// non-recursive join family (workload.LayeredJoinProgram): reps evaluations
// per executor over fresh EDBs, reporting each executor's best wall clock
// and smallest per-run heap allocation, the derived ratios, and the
// streamed plan's counters with per-operator row flow (from one extra
// traced streamed run). New in schema v7.
type streamCompare struct {
	Workload string `json:"workload"`
	Stages   int    `json:"stages"`
	N        int    `json:"n"`
	Fanout   int    `json:"fanout"`
	Reps     int    `json:"reps"`
	// Best (minimum) wall time over the reps, per executor.
	MaterializeWallNS int64 `json:"materialize_wall_ns"`
	StreamWallNS      int64 `json:"stream_wall_ns"`
	// Smallest per-run heap allocation over the reps, per executor
	// (runtime.MemStats.TotalAlloc delta around the evaluation).
	MaterializeAllocBytes uint64 `json:"materialize_alloc_bytes"`
	StreamAllocBytes      uint64 `json:"stream_alloc_bytes"`
	// Speedup is materialize wall over stream wall; AllocRatio is stream
	// bytes over materialize bytes (lower is better).
	Speedup    float64 `json:"speedup"`
	AllocRatio float64 `json:"alloc_ratio"`
	// Stream holds the streamed run's counters, including per-operator row
	// counters (ops) from the traced capture run.
	Stream obsv.StreamStats `json:"stream"`
}

// compareExecutors runs the layered join workload under both bottom-up
// executors and fills the stream_compare block.
func compareExecutors(stages, n, fanout, reps int) (*streamCompare, error) {
	prog, err := parser.ParseProgram(workload.LayeredJoinProgram(stages))
	if err != nil {
		return nil, err
	}
	query := workload.LayeredJoinQuery(stages)
	load := func() *engine.DB {
		db := engine.NewDB()
		workload.LayeredJoins(db, stages, n, fanout)
		return db
	}
	sc := &streamCompare{
		Workload: "layered non-recursive joins",
		Stages:   stages, N: n, Fanout: fanout, Reps: reps,
	}
	measure := func(opts engine.Options, wantExec string) (wall int64, alloc uint64, err error) {
		for rep := 0; rep < reps; rep++ {
			db := load()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			r, runErr := pipeline.New(prog, query).Run(pipeline.SemiNaive, db, opts)
			if runErr != nil {
				return 0, 0, runErr
			}
			runtime.ReadMemStats(&after)
			if r.Executor != wantExec {
				return 0, 0, fmt.Errorf("executor = %q, want %q", r.Executor, wantExec)
			}
			if w := r.EvalWall.Nanoseconds(); rep == 0 || w < wall {
				wall = w
			}
			if a := after.TotalAlloc - before.TotalAlloc; rep == 0 || a < alloc {
				alloc = a
			}
		}
		return wall, alloc, nil
	}
	if sc.MaterializeWallNS, sc.MaterializeAllocBytes, err = measure(engine.Options{}, "materialize"); err != nil {
		return nil, err
	}
	streamOpts := engine.Options{Streaming: engine.StreamAuto}
	if sc.StreamWallNS, sc.StreamAllocBytes, err = measure(streamOpts, "stream"); err != nil {
		return nil, err
	}
	if sc.StreamWallNS > 0 {
		sc.Speedup = float64(sc.MaterializeWallNS) / float64(sc.StreamWallNS)
	}
	if sc.MaterializeAllocBytes > 0 {
		sc.AllocRatio = float64(sc.StreamAllocBytes) / float64(sc.MaterializeAllocBytes)
	}
	// One traced streamed run captures the per-operator row counters.
	traced, err := pipeline.New(prog, query).Run(pipeline.SemiNaive, load(),
		engine.Options{Streaming: engine.StreamAuto, Trace: true})
	if err != nil {
		return nil, err
	}
	if traced.Stream != nil {
		sc.Stream = *traced.Stream
	}
	return sc, nil
}

// stageSummary is one pipeline stage aggregated across the sweep's runs.
type stageSummary struct {
	Stage           string `json:"stage"`
	Runs            int    `json:"runs"`
	TotalWallNS     int64  `json:"total_wall_ns"`
	MaxWallNS       int64  `json:"max_wall_ns"`
	TotalAllocs     uint64 `json:"total_allocs"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
}

// summarizeStages folds every run's stage spans into one row per stage
// name, in first-seen order (strategy order is deterministic, so the
// summary is too).
func summarizeStages(runs []metricsRun) []stageSummary {
	index := map[string]int{}
	var out []stageSummary
	for _, r := range runs {
		for _, sp := range r.Spans {
			i, ok := index[sp.Name]
			if !ok {
				i = len(out)
				index[sp.Name] = i
				out = append(out, stageSummary{Stage: sp.Name})
			}
			out[i].Runs++
			out[i].TotalWallNS += sp.Wall.Nanoseconds()
			if w := sp.Wall.Nanoseconds(); w > out[i].MaxWallNS {
				out[i].MaxWallNS = w
			}
			out[i].TotalAllocs += sp.Allocs
			out[i].TotalAllocBytes += sp.AllocBytes
		}
	}
	return out
}

// metricsRun is one strategy's traced evaluation. Strategies whose
// transformation is unavailable for the workload (or that diverge on it)
// report Error and nothing else.
type metricsRun struct {
	Strategy   string            `json:"strategy"`
	Error      string            `json:"error,omitempty"`
	Answers    int               `json:"answers"`
	Inferences int               `json:"inferences"`
	Facts      int               `json:"facts"`
	Iterations int               `json:"iterations"`
	MaxArity   int               `json:"max_idb_arity"`
	WallNS     int64             `json:"wall_ns"`
	Spans      []obsv.Span       `json:"stage_spans,omitempty"`
	Rules      []obsv.RuleStats  `json:"rule_stats,omitempty"`
	Rounds     []obsv.RoundStats `json:"rounds,omitempty"`
	// Storage is the post-evaluation storage shape (arena/index bytes and
	// hash-table load factors); stage spans additionally carry allocs and
	// alloc_bytes since schema v4.
	Storage obsv.StorageStats `json:"storage"`
	// Executor names the bottom-up evaluator that ran ("stream" or
	// "materialize"; empty for top-down strategies) and Stream carries the
	// streaming counters when it is "stream". New in schema v7.
	Executor string            `json:"executor,omitempty"`
	Stream   *obsv.StreamStats `json:"stream,omitempty"`
}

func emitJSON(out *os.File, n int, mutate, autoplan bool) error {
	pl, load := experiments.E1Pipeline(n)
	doc := metricsDoc{
		Schema:   "factorlog/metrics/v10",
		Tool:     "factorbench",
		Workload: "E1 transitive closure, chain EDB",
		N:        n,
		Query:    pl.Query.String(),
	}
	for _, s := range pipeline.AllStrategies() {
		opts := engine.Options{Trace: true, MaxFacts: 10_000_000}
		r, err := pl.Run(s, load(), opts)
		if err != nil {
			doc.Runs = append(doc.Runs, metricsRun{Strategy: s.String(), Error: err.Error()})
			continue
		}
		doc.Runs = append(doc.Runs, metricsRun{
			Strategy:   s.String(),
			Answers:    len(r.Answers),
			Inferences: r.Inferences,
			Facts:      r.Facts,
			Iterations: r.Iterations,
			MaxArity:   r.MaxIDBArity,
			WallNS:     r.EvalWall.Nanoseconds(),
			Spans:      r.Spans,
			Rules:      r.Rules,
			Rounds:     r.Rounds,
			Storage:    r.Storage,
			Executor:   r.Executor,
			Stream:     r.Stream,
		})
	}
	doc.StageSummary = summarizeStages(doc.Runs)
	sc, err := compareExecutors(6, 2000, 1, 5)
	if err != nil {
		return err
	}
	doc.StreamCompare = sc
	if mutate {
		mc, err := compareMutation(n, 8)
		if err != nil {
			return err
		}
		doc.MutateCompare = mc
	}
	if autoplan {
		ac, err := compareAutoplan(n)
		if err != nil {
			return err
		}
		doc.AutoplanCompare = ac
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
