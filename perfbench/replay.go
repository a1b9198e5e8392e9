package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
	"factorlog/internal/pipeline"
	"factorlog/internal/resilience"
	"factorlog/internal/wal"
)

// The replay sends a run's request stream through the functions
// cmd/factorlogd/server.go calls, in the order it calls them, timing each
// call from here: per-layer figures without tracing inside the program.

const strategy = pipeline.FactoredOptimized

// replayWriteEvery interleaves one /facts batch per this many mat-ingest
// queries, close to the served mix (about 520 queries/s beside 40
// batches/s).
const replayWriteEvery = 13

// matReplayFactor multiplies the replayed mat-ingest queries: most are
// registry hits costing microseconds, and the longer stream brings the
// registry to the served run's mix of hits, deltas and builds.
const matReplayFactor = 5

// op is one replayed request: a query, or a mutation batch when write is set.
type op struct {
	node  queryNode
	write *batch
}

// replayOps is the deterministic request stream the replay sends: the
// served run's warm-up, then queries drawn round-robin from each
// connection's generator, with writer batches interleaved for mat-ingest.
func replayOps(w *workload, p params, st *streams, wr *writer) []op {
	var ops []op
	if w.Name == "lookup-hot" {
		for _, q := range st.hot {
			ops = append(ops, op{node: q})
		}
	}
	gens := make([]queryGen, w.QueryConns)
	for i := range gens {
		gens[i] = st.queries(w, i)
	}
	n := p.ReplayQueries
	if w.Materialize {
		n *= matReplayFactor
	}
	for i := 0; i < n; i++ {
		ops = append(ops, op{node: gens[i%len(gens)].next()})
		if w.WriteRate > 0 && i%replayWriteEvery == replayWriteEvery-1 {
			b := wr.next()
			ops = append(ops, op{write: &b})
		}
	}
	return ops
}

// replayServer is the serving state newServer builds, held in-process.
type replayServer struct {
	prog    *ast.Program
	hash    string
	cache   *pipeline.PlanCache
	mat     *pipeline.Materializer
	limiter *resilience.Limiter
	wl      *wal.Log
	every   int64
	tr      *tracer
	req     int // request the next span belongs to
}

// counters are the replay's deterministic counts; two passes over the same
// stream, and two runs with the same seed, must agree on every one.
type counters struct {
	Queries    int            `json:"queries"`
	Writes     int            `json:"writes"`
	Inferences int            `json:"inferences"`
	Facts      int            `json:"facts"`
	Rounds     int            `json:"rounds"`
	MatKinds   map[string]int `json:"mat_kinds"`
	Epoch      int64          `json:"epoch"`
	Wrong      int            `json:"wrong"`
}

// tracedLog is factorlogd's WAL adapter with the append timed.
type tracedLog struct{ s *replayServer }

func (a tracedLog) Append(b pipeline.MutationBatch) error {
	t := a.s.tr.begin()
	err := a.s.wl.Append(wal.Batch{Epoch: b.Epoch, Assert: atomStrings(b.Assert), Retract: atomStrings(b.Retract)})
	a.s.tr.end(a.s.req, "mat_apply", "wal_append", t)
	return err
}

func (a tracedLog) Since(after int64) ([]pipeline.MutationBatch, bool) {
	batches, err := a.s.wl.Since(after)
	if err != nil {
		return nil, false
	}
	out := make([]pipeline.MutationBatch, 0, len(batches))
	for _, b := range batches {
		assert, err := parseAtoms(b.Assert)
		if err != nil {
			return nil, false
		}
		retract, err := parseAtoms(b.Retract)
		if err != nil {
			return nil, false
		}
		out = append(out, pipeline.MutationBatch{Epoch: b.Epoch, Assert: assert, Retract: retract})
	}
	return out, true
}

func atomStrings(atoms []ast.Atom) []string {
	if len(atoms) == 0 {
		return nil
	}
	out := make([]string, len(atoms))
	for i, a := range atoms {
		out[i] = a.String()
	}
	return out
}

func parseAtoms(in []string) ([]ast.Atom, error) {
	out := make([]ast.Atom, 0, len(in))
	for _, f := range in {
		a, err := parser.ParseAtom(strings.TrimSuffix(strings.TrimSpace(f), "."))
		if err != nil {
			return nil, fmt.Errorf("%q: %w", f, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// recoverBase rebuilds the base the way factorlogd's startup does: the
// newest snapshot's facts (or the program's), then the log tail with
// retractions before assertions.
func recoverBase(progFacts []ast.Atom, rec *wal.Recovery) ([]ast.Atom, error) {
	idx := map[string]int{}
	var facts []ast.Atom
	add := func(a ast.Atom) {
		k := a.String()
		if _, ok := idx[k]; ok {
			return
		}
		idx[k] = len(facts)
		facts = append(facts, a)
	}
	del := func(k string) {
		i, ok := idx[k]
		if !ok {
			return
		}
		last := len(facts) - 1
		facts[i] = facts[last]
		idx[facts[i].String()] = i
		facts = facts[:last]
		delete(idx, k)
	}
	if rec.Snapshot != nil {
		snap, err := parseAtoms(rec.Snapshot.Facts)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		for _, a := range snap {
			add(a)
		}
	} else {
		for _, a := range progFacts {
			add(a)
		}
	}
	for _, b := range rec.Batches {
		retract, err := parseAtoms(b.Retract)
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", b.Epoch, err)
		}
		for _, a := range retract {
			del(a.String())
		}
		assert, err := parseAtoms(b.Assert)
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", b.Epoch, err)
		}
		for _, a := range assert {
			add(a)
		}
	}
	return facts, nil
}

// newReplayServer builds the serving state from the program text. For
// mat-ingest it first fills walDir with the setup pass's batches through
// Materializer.Apply, then recovers from it as a restarted server would;
// recoveries times each wal.Open of that recovery.
func newReplayServer(src string, w *workload, p params, wr *writer, walDir string, tr *tracer) (*replayServer, []time.Duration, error) {
	u, err := parser.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	prog := u.Program()
	s := &replayServer{prog: prog, hash: pipeline.HashProgram(prog, nil), cache: pipeline.NewPlanCache(),
		limiter: resilience.NewLimiter(8, 64), every: int64(p.SnapshotEvery), tr: tr}
	opts := pipeline.MaterializerOptions{Entries: p.MatEntries}
	if !w.Durable {
		s.mat, err = pipeline.NewMaterializer(prog, nil, u.Facts, s.cache, opts)
		if err != nil {
			return nil, nil, err
		}
		return s, nil, s.warmup(u.Queries)
	}

	// Setup pass: a fresh log filled through the materializer.
	if s.wl, _, err = wal.Open(wal.Options{Dir: walDir, ProgramHash: s.hash}); err != nil {
		return nil, nil, err
	}
	opts.Durable = tracedLog{s}
	if s.mat, err = pipeline.NewMaterializer(prog, nil, u.Facts, s.cache, opts); err != nil {
		s.wl.Close()
		return nil, nil, err
	}
	s.tr = nil
	for i := 0; i < p.Prefill; i++ {
		if err := s.apply(wr.next()); err != nil {
			s.wl.Close()
			return nil, nil, err
		}
	}
	s.tr = tr
	if err := s.wl.Close(); err != nil {
		return nil, nil, err
	}

	// Recovery, as each timed server start performs it.
	var recoveries []time.Duration
	var rec *wal.Recovery
	for i := 0; i < 3; i++ {
		t := time.Now()
		s.wl, rec, err = wal.Open(wal.Options{Dir: walDir, ProgramHash: s.hash})
		if err != nil {
			return nil, nil, err
		}
		recoveries = append(recoveries, time.Since(t))
		if i < 2 {
			if err := s.wl.Close(); err != nil {
				return nil, nil, err
			}
		}
	}
	base, err := recoverBase(u.Facts, rec)
	if err != nil {
		s.wl.Close()
		return nil, nil, err
	}
	opts.StartEpoch = rec.Epoch
	if s.mat, err = pipeline.NewMaterializer(prog, nil, base, s.cache, opts); err != nil {
		s.wl.Close()
		return nil, nil, err
	}
	return s, recoveries, s.warmup(u.Queries)
}

// warmup compiles the program's declared queries, as factorlogd does
// before it reports ready.
func (s *replayServer) warmup(declared []ast.Atom) error {
	for _, q := range declared {
		if _, _, err := s.cache.Lookup(context.Background(), s.prog, s.hash, nil, q, strategy); err != nil {
			return err
		}
	}
	return nil
}

func (s *replayServer) close() error {
	if s.wl == nil {
		return nil
	}
	return s.wl.Close()
}

// apply is handleFacts after the body is decoded: parse, admit, apply, and
// snapshot when due.
func (s *replayServer) apply(b batch) error {
	tr, req := s.tr, s.req
	root := tr.begin()
	t := tr.begin()
	atoms, err := parseAtoms(b.facts)
	tr.end(req, "facts", "parse_facts", t)
	if err != nil {
		return err
	}
	t = tr.begin()
	release, err := s.limiter.Acquire(context.Background(), 1)
	tr.end(req, "facts", "acquire", t)
	if err != nil {
		return err
	}
	defer release()
	t = tr.begin()
	var res pipeline.BatchResult
	if b.assert {
		res, err = s.mat.Apply(atoms, nil)
	} else {
		res, err = s.mat.Apply(nil, atoms)
	}
	tr.end(req, "facts", "mat_apply", t)
	if err != nil {
		return err
	}
	if res.Asserted+res.Retracted != len(b.facts) {
		return fmt.Errorf("batch %v changed %d facts", b.facts, res.Asserted+res.Retracted)
	}
	if s.wl != nil && s.every > 0 && s.mat.Epoch()-s.wl.SnapshotEpoch() >= s.every {
		t = tr.begin()
		base, epoch := s.mat.BaseSnapshot()
		err = s.wl.WriteSnapshot(wal.Snapshot{Epoch: epoch, ProgramHash: s.hash, Facts: atomStrings(base)})
		tr.end(req, "facts", "snapshot", t)
		if err != nil {
			return err
		}
	}
	tr.end(req, "", "facts", root)
	return nil
}

// replayResponse mirrors the fields of factorlogd's /query body that the
// render layer encodes.
type replayResponse struct {
	QueryID       string   `json:"query_id"`
	Query         string   `json:"query"`
	Strategy      string   `json:"strategy"`
	Answers       []string `json:"answers"`
	AnswerCount   int      `json:"answer_count"`
	Facts         int      `json:"facts"`
	Inferences    int      `json:"inferences"`
	Iterations    int      `json:"iterations"`
	PlanCache     string   `json:"plan_cache"`
	EvalWallNS    int64    `json:"eval_wall_ns"`
	TotalWallNS   int64    `json:"total_wall_ns"`
	Epoch         int64    `json:"epoch"`
	Materialized  string   `json:"materialized,omitempty"`
	RefreshWallNS int64    `json:"refresh_wall_ns,omitempty"`
}

// encode renders a response the way factorlogd's writeJSON does.
func encode(r replayResponse) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// query is handleQuery for one plain query: parse, admit, then either the
// materialized serve or plan lookup, base snapshot, load and run; then
// render. It returns the answers and the epoch they reflect.
func (s *replayServer) query(text string, materialized bool, c *counters) ([]string, int64, error) {
	tr, req := s.tr, s.req
	ctx := context.Background()
	root := tr.begin()
	t := tr.begin()
	atom, err := parser.ParseAtom(strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), "?-")), "."))
	tr.end(req, "query", "parse_atom", t)
	if err != nil {
		return nil, 0, err
	}
	t = tr.begin()
	release, err := s.limiter.Acquire(ctx, 1)
	tr.end(req, "query", "acquire", t)
	if err != nil {
		return nil, 0, err
	}
	defer release()

	var resp replayResponse
	if materialized {
		t = tr.begin()
		mres, err := s.mat.Serve(ctx, atom, strategy)
		if err != nil {
			return nil, 0, err
		}
		tr.end(req, "query", "mat_serve_"+mres.Kind, t)
		c.MatKinds[mres.Kind]++
		t = tr.begin()
		answers := make([]string, 0, len(mres.Answers))
		for a := range mres.Answers {
			answers = append(answers, a)
		}
		sort.Strings(answers)
		resp = replayResponse{Query: atom.String(), Strategy: strategy.String(), Answers: answers,
			AnswerCount: len(answers), Epoch: mres.Epoch, Materialized: mres.Kind}
	} else {
		t = tr.begin()
		plan, hit, err := s.cache.Lookup(ctx, s.prog, s.hash, nil, atom, strategy)
		if err != nil {
			return nil, 0, err
		}
		if hit {
			tr.end(req, "query", "plan_lookup_hit", t)
		} else {
			tr.end(req, "query", "plan_lookup_miss", t)
		}
		t = tr.begin()
		base, epoch := s.mat.BaseSnapshot()
		tr.end(req, "query", "base_snapshot", t)
		t = tr.begin()
		db := engine.NewDB()
		err = engine.LoadFacts(db, base)
		tr.end(req, "query", "load", t)
		if err != nil {
			return nil, 0, err
		}
		t = tr.begin()
		res, err := plan.Run(db, engine.Options{Workers: 1, Context: ctx})
		tr.end(req, "query", "run", t)
		if err != nil {
			return nil, 0, err
		}
		c.Inferences += res.Inferences
		c.Facts += res.Facts
		c.Rounds += res.Iterations
		t = tr.begin()
		resp = replayResponse{Query: atom.String(), Strategy: strategy.String(),
			Answers: pipeline.SortedAnswers(res), AnswerCount: len(res.Answers), Facts: res.Facts,
			Inferences: res.Inferences, Iterations: res.Iterations, Epoch: epoch}
	}
	err = encode(resp)
	tr.end(req, "query", "encode", t)
	tr.end(req, "", "query", root)
	return resp.Answers, resp.Epoch, err
}

// pass is one replay of the stream over fresh serving state.
type pass struct {
	srv        *replayServer
	counts     counters
	wall       time.Duration // the request stream alone
	allocBytes uint64
	gcCycles   uint32
	recoveries []time.Duration
	ext        []int // each chain's extension count after the stream
}

func runPass(src string, w *workload, p params, seed int64, walDir string, tr *tracer) (*pass, error) {
	st := newStreams(p.Shape, seed)
	wr := st.writer()
	srv, recoveries, err := newReplayServer(src, w, p, wr, walDir, tr)
	if err != nil {
		return nil, err
	}
	hist := newHistory(srv.mat.Epoch(), wr.ext)
	ops := replayOps(w, p, st, wr)
	ps := &pass{srv: srv, recoveries: recoveries, counts: counters{MatKinds: map[string]int{}}}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, o := range ops {
		srv.req = i
		if o.write != nil {
			if err := srv.apply(*o.write); err != nil {
				srv.close()
				return nil, err
			}
			if err := hist.commit(srv.mat.Epoch(), *o.write); err != nil {
				srv.close()
				return nil, err
			}
			ps.counts.Writes++
			continue
		}
		answers, epoch, err := srv.query(o.node.text(p.Shape), w.Materialize, &ps.counts)
		if err != nil {
			srv.close()
			return nil, err
		}
		ps.counts.Queries++
		if ext, ok := hist.extAt(o.node.chain, epoch); !ok ||
			answerDigest(answers) != answerDigest(p.Shape.expected(o.node, ext)) {
			ps.counts.Wrong++
		}
	}
	ps.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	ps.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ps.gcCycles = m1.NumGC - m0.NumGC
	ps.counts.Epoch = srv.mat.Epoch()
	ps.ext = wr.ext
	return ps, nil
}

// matWait measures how long materialized serves wait beyond their own
// refresh while a concurrent writer applies batches at the workload's rate:
// Serve wall time minus RefreshWall, for d of back-to-back serves.
// ext is each chain's extension count in srv's base.
func matWait(srv *replayServer, ext []int, w *workload, p params, seed int64, d time.Duration) ([]float64, error) {
	st := newStreams(p.Shape, seed)
	wr := st.writer()
	copy(wr.ext, ext)
	gen := st.queries(w, 0)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Duration(float64(time.Second) / w.WriteRate))
		defer tick.Stop()
		for {
			select {
			case <-stop:
				errc <- nil
				return
			case <-tick.C:
				b := wr.next()
				atoms, err := parseAtoms(b.facts)
				if err != nil {
					errc <- err
					return
				}
				var aerr error
				if b.assert {
					_, aerr = srv.mat.Apply(atoms, nil)
				} else {
					_, aerr = srv.mat.Apply(nil, atoms)
				}
				if aerr != nil {
					errc <- aerr
					return
				}
			}
		}
	}()
	var waits []float64
	var serr error
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		atom, err := parser.ParseAtom(gen.next().text(p.Shape))
		if err != nil {
			serr = err
			break
		}
		t := time.Now()
		mres, err := srv.mat.Serve(context.Background(), atom, strategy)
		if err != nil {
			serr = err
			break
		}
		waits = append(waits, ms(time.Since(t)-mres.RefreshWall))
	}
	close(stop)
	wg.Wait()
	if err := <-errc; err != nil {
		return nil, err
	}
	return waits, serr
}

// paperCounts runs every lookup-hot query under Magic and under the
// paper's factored+opt strategy over the initial base: the inference ratio
// of the two, and the IDB arity and rule count factoring leaves.
func paperCounts(src string, st *streams, s shape) (magicOverFactored float64, maxArity, rules int, err error) {
	u, err := parser.Parse(src)
	if err != nil {
		return 0, 0, 0, err
	}
	prog := u.Program()
	var inf [2]int
	for _, q := range st.hot {
		atom, err := parser.ParseAtom(q.text(s))
		if err != nil {
			return 0, 0, 0, err
		}
		for i, strat := range []pipeline.Strategy{pipeline.Magic, strategy} {
			db := engine.NewDB()
			if err := engine.LoadFacts(db, u.Facts); err != nil {
				return 0, 0, 0, err
			}
			res, err := pipeline.New(prog, atom).Run(strat, db, engine.Options{Workers: 1})
			if err != nil {
				return 0, 0, 0, err
			}
			inf[i] += res.Inferences
			if strat == strategy {
				maxArity = max(maxArity, res.MaxIDBArity)
				rules = max(rules, len(res.Program.Rules))
			}
		}
	}
	return ratio(float64(inf[0]), float64(inf[1])), maxArity, rules, nil
}

// replayResult is the traced replay's per-layer figures and the
// deterministic counts it checks.
type replayResult struct {
	layers   []metric
	counts   map[string]float64 // deterministic counters, compared across runs
	problems []string
}

// runReplay replays the stream twice, untraced then traced, each over fresh
// state, and derives the per-layer figures. serverTotalP50 is the served
// run's factorlogd.server_total_ms_p50, which the traced spans should cover.
func runReplay(root, runDir, spanPath string, w *workload, p params, seed int64, serverTotalP50 float64) (*replayResult, error) {
	src, err := programText(root, p.Shape)
	if err != nil {
		return nil, err
	}
	var parses []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, err := parser.Parse(src); err != nil {
			return nil, err
		}
		parses = append(parses, ms(time.Since(t)))
	}

	off, err := runPass(src, w, p, seed, filepath.Join(runDir, "replay-wal-off"), nil)
	if err != nil {
		return nil, err
	}
	if err := off.srv.close(); err != nil {
		return nil, err
	}
	tr := newTracer()
	on, err := runPass(src, w, p, seed, filepath.Join(runDir, "replay-wal-on"), tr)
	if err != nil {
		return nil, err
	}
	var waits []float64
	if w.WriteRate > 0 {
		on.srv.tr = nil
		waits, err = matWait(on.srv, on.ext, w, p, seed, p.WaitPhase)
		if err != nil {
			on.srv.close()
			return nil, err
		}
	}
	if err := on.srv.close(); err != nil {
		return nil, err
	}
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	mof, arity, rules, err := paperCounts(src, newStreams(p.Shape, seed), p.Shape)
	if err != nil {
		return nil, err
	}

	res := &replayResult{}
	if fmt.Sprint(off.counts) != fmt.Sprint(on.counts) {
		res.problems = append(res.problems, fmt.Sprintf("replay counters differ between passes: %+v vs %+v", off.counts, on.counts))
	}
	if on.counts.Wrong+off.counts.Wrong > 0 {
		res.problems = append(res.problems, fmt.Sprintf("replay: %d wrong answers", on.counts.Wrong+off.counts.Wrong))
	}
	d := tr.durations()
	medMS := func(name string) float64 { return ms(medianDur(d[name])) }
	medUS := func(name string) float64 { return us(medianDur(d[name])) }
	var recover []float64
	for _, r := range on.recoveries {
		recover = append(recover, ms(r))
	}
	var covered []float64
	for _, c := range tr.childTotals("query") {
		covered = append(covered, ms(c))
	}
	// Materialized serves run no from-scratch evaluation, so the engine
	// counts stay 0 on mat-ingest.
	c := off.counts
	q := float64(c.Queries)
	res.counts = map[string]float64{
		"engine.inferences_per_query":         ratio(float64(c.Inferences), q),
		"engine.facts_per_query":              ratio(float64(c.Facts), q),
		"engine.rounds_per_query":             ratio(float64(c.Rounds), q),
		"engine.facts_per_inference":          ratio(float64(c.Facts), float64(c.Inferences)),
		"core.max_idb_arity":                  float64(arity),
		"core.rules_out":                      float64(rules),
		"core.magic_over_factored_inferences": mof,
	}
	res.layers = []metric{
		{"parser.parse_atom_us", "us", medUS("parse_atom")},
		{"parser.program_ms", "ms", median(parses)},
		{"resilience.acquire_us", "us", medUS("acquire")},
		{"pipeline.lookup_hit_us", "us", medUS("plan_lookup_hit")},
		{"pipeline.compile_ms", "ms", medMS("plan_lookup_miss")},
		{"core.max_idb_arity", "count", res.counts["core.max_idb_arity"]},
		{"core.rules_out", "count", res.counts["core.rules_out"]},
		{"core.magic_over_factored_inferences", "ratio", res.counts["core.magic_over_factored_inferences"]},
		{"engine.snapshot_us", "us", medUS("base_snapshot")},
		{"engine.load_ms", "ms", medMS("load")},
		{"engine.run_ms", "ms", medMS("run")},
		{"engine.inferences_per_query", "count", res.counts["engine.inferences_per_query"]},
		{"engine.facts_per_query", "count", res.counts["engine.facts_per_query"]},
		{"engine.rounds_per_query", "count", res.counts["engine.rounds_per_query"]},
		{"engine.facts_per_inference", "ratio", res.counts["engine.facts_per_inference"]},
		{"runtime.alloc_bytes_per_op", "B", float64(off.allocBytes) / float64(c.Queries+c.Writes)},
		{"runtime.gc_cycles_per_1k", "count/1k", 1000 * float64(off.gcCycles) / float64(c.Queries+c.Writes)},
		{"render.encode_us", "us", medUS("encode")},
		{"pipeline.mat_serve_hit_us", "us", medUS("mat_serve_hit")},
		{"pipeline.mat_delta_ms", "ms", medMS("mat_serve_delta")},
		{"pipeline.mat_rebuild_ms", "ms", medMS("mat_serve_rebuild")},
		{"pipeline.mat_build_ms", "ms", medMS("mat_serve_build")},
		{"pipeline.mat_wait_ms_p99", "ms", quantile(waits, 0.99)},
		{"pipeline.mat_apply_ms", "ms", medMS("mat_apply")},
		{"wal.append_ms", "ms", medMS("wal_append")},
		{"wal.recover_ms", "ms", median(recover)},
		{"trace.covered_ratio", "ratio", ratio(median(covered), serverTotalP50)},
		{"trace.overhead_ratio", "ratio", ratio(on.wall.Seconds(), off.wall.Seconds())},
	}
	return res, nil
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}
