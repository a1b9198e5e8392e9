package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	Name string
	// Materialize selects materialized serving; otherwise every query
	// evaluates from scratch over a fresh copy of the base.
	Materialize bool
	// Durable runs the server over a write-ahead log that an untimed setup
	// pass filled through /facts, so each timed start recovers it.
	Durable    bool
	QueryConns int
	// WriteRate is the open-loop writer's batches per second during the
	// window (0 = no writer; the lookup workloads probe /facts instead).
	WriteRate float64
	// Processes is the number of serving processes the window is split
	// across; it divides subWindows.
	Processes int
}

var workloads = []*workload{
	{Name: "lookup-hot", QueryConns: 2, Processes: 1},
	{Name: "lookup-cold", QueryConns: 2, Processes: 1},
	// Materialized serving slows as a process ages under writes (delta
	// refreshes grow), so each fifth of the window runs on a freshly
	// recovered server.
	{Name: "mat-ingest", Materialize: true, Durable: true, QueryConns: 1, WriteRate: 40, Processes: 5},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (lookup-hot, lookup-cold, mat-ingest)", name)
}

// params sizes one run. The defaults are the benchmark's; the smoke test
// shrinks them.
type params struct {
	Shape         shape         `json:"shape"`
	Starts        int           `json:"server_starts"` // setup_s is the median over these
	Warm          time.Duration `json:"warm_ns"`       // untimed load before the window
	Window        time.Duration `json:"window_ns"`
	Prefill       int           `json:"prefill_batches"` // mat-ingest: batches logged by the setup pass
	SnapshotEvery int           `json:"snapshot_every"`
	MatEntries    int           `json:"mat_entries"`
	ProbeBatches  int           `json:"probe_batches"` // lookup-*: closed-loop /facts batches per server start
	ReplayQueries int           `json:"replay_queries"`
	WaitPhase     time.Duration `json:"wait_phase_ns"` // mat-ingest replay: serves beside a concurrent writer
}

func defaultParams(seconds int) params {
	return params{
		Shape:         defaultShape,
		Starts:        11,
		Warm:          5 * time.Second,
		Window:        time.Duration(seconds) * time.Second,
		Prefill:       320,
		SnapshotEvery: 256,
		MatEntries:    64,
		ProbeBatches:  300,
		ReplayQueries: 400,
		WaitPhase:     2 * time.Second,
	}
}

func (w *workload) serverArgs(p params, program, walDir string) []string {
	args := []string{"-program", program, "-strategy", "factored+opt"}
	if !w.Materialize {
		return append(args, "-materialize=false")
	}
	return append(args, "-wal-dir", walDir, "-fsync-interval", "0",
		"-snapshot-every", strconv.Itoa(p.SnapshotEvery), "-mat-entries", strconv.Itoa(p.MatEntries))
}

// subWindows is the number of equal slices of the window that rates and
// medians are taken over.
const subWindows = 5

// slicedQuantile is the median over slices of each slice's q-quantile when
// every slice holds at least ten samples beyond it, else the q-quantile of
// all samples pooled.
func slicedQuantile(slices [][]float64, q float64) float64 {
	var per, all []float64
	for _, sl := range slices {
		per = append(per, quantile(sl, q))
		all = append(all, sl...)
	}
	for _, sl := range slices {
		if float64(len(sl))*(1-q) < 10 {
			return quantile(all, q)
		}
	}
	return median(per)
}

// metric is one reported figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// loadResult is what the served run measured.
type loadResult struct {
	endToEnd  []metric
	layers    []metric
	attempted int
	failed    int
	problems  []string // reasons the run's output is not correct
	args      []string
}

// runLoad builds the inputs, runs factorlogd through setup, warm-up and the
// timed window, checks every answer, and shuts the server down.
func runLoad(bin, root, runDir string, w *workload, p params, seed int64) (*loadResult, error) {
	src, err := programText(root, p.Shape)
	if err != nil {
		return nil, err
	}
	program := filepath.Join(runDir, "program.dl")
	if err := os.WriteFile(program, []byte(src), 0o644); err != nil {
		return nil, err
	}
	walDir := filepath.Join(runDir, "wal")
	logPath := filepath.Join(runDir, "factorlogd.log")
	res := &loadResult{args: w.serverArgs(p, program, walDir)}

	// At most nproc (2) connections, as the workloads declare.
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()
	st := newStreams(p.Shape, seed)
	wr := st.writer()
	hist := newHistory(0, wr.ext)
	var writes []writeSample

	if w.Durable {
		// Untimed setup pass: fill the WAL through the server's own /facts,
		// past one snapshot, so each timed start loads a snapshot and
		// replays a log tail.
		srv, err := startServer(client, bin, res.args, logPath)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for i := 0; i < p.Prefill; i++ {
			writes = append(writes, writeNext(context.Background(), client, srv.base, wr, hist, t0, time.Now()))
		}
		if err := srv.stop(); err != nil {
			res.problems = append(res.problems, err.Error())
		}
	}

	var setups []float64
	var probes [][]writeSample
	var srv *serverProc
	for i := 0; i < p.Starts; i++ {
		s, err := startServer(client, bin, res.args, logPath)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.ready.Seconds())
		if w.WriteRate == 0 {
			// Without a writer, /facts is timed by a probe on each freshly
			// started server; its tail varies from process to process, so
			// the figure pools every start.
			probes = append(probes, runProbe(client, s.base, 0, p.ProbeBatches))
		}
		if i == p.Starts-1 {
			srv = s
			break
		}
		// These starts only time set-up. factorlogd installs its SIGTERM
		// handler just after it starts serving, so a SIGTERM sent the
		// moment /readyz answers can kill it undrained; the serving start's
		// shutdown below checks the clean exit.
		s.kill()
	}
	gens := make([]queryGen, w.QueryConns)
	for i := range gens {
		gens[i] = st.queries(w, i)
	}
	if w.WriteRate == 0 {
		// The lookup oracle starts at the epoch the probe left behind; the
		// probe's edge lies outside the forest.
		hist = newHistory(int64(p.ProbeBatches), wr.ext)
	}

	// The timed window runs on w.Processes serving processes in turn (the
	// first is the last set-up start), each taking an equal share of the
	// warm-up and the window and then stopped with SIGTERM.
	var (
		queries []querySample // every response, for the oracle
		windows []*phase
		cpu     time.Duration
		rss     float64
		deltas  = map[string]float64{} // /metrics counters over the windows
	)
	procs := time.Duration(w.Processes)
	serve := func(srv *serverProc) error {
		ok := false
		defer func() {
			if !ok {
				srv.kill()
			}
		}()
		if w.Name == "lookup-hot" {
			// Compile every hot plan once, as a warmed-up service would have.
			for _, q := range st.hot {
				queries = append(queries, doQuery(context.Background(), client, srv.base, p.Shape, q))
			}
		}
		warm := runPhase(client, srv.base, p.Shape, gens, wr, hist, w.WriteRate, p.Warm/procs)
		before, err := scrape(client, srv.base)
		if err != nil {
			return err
		}
		cpu0, err := srv.cpuTime()
		if err != nil {
			return err
		}
		win := runPhase(client, srv.base, p.Shape, gens, wr, hist, w.WriteRate, p.Window/procs)
		cpu1, err := srv.cpuTime()
		if err != nil {
			return err
		}
		// The last scrape before shutdown; it must parse too.
		after, err := scrape(client, srv.base)
		if err != nil {
			return err
		}
		hwm, err := srv.peakRSS()
		if err != nil {
			return err
		}
		ok = true
		if err := srv.stop(); err != nil {
			res.problems = append(res.problems, err.Error())
		}
		for name, v := range after {
			deltas[name] += v - before[name]
		}
		cpu += cpu1 - cpu0
		rss = max(rss, hwm)
		for _, ph := range []*phase{warm, win} {
			for _, qs := range ph.queries {
				queries = append(queries, qs...)
			}
			writes = append(writes, ph.writes...)
		}
		windows = append(windows, win)
		return nil
	}
	for i := 0; i < w.Processes; i++ {
		if i > 0 {
			if srv, err = startServer(client, bin, res.args, logPath); err != nil {
				return nil, err
			}
		}
		if err := serve(srv); err != nil {
			return nil, err
		}
	}

	// Check every answer against the oracle at the epoch it reports.
	for _, pr := range probes {
		writes = append(writes, pr...)
	}
	wrong := 0
	want := map[[2]int]uint64{}
	for _, q := range queries {
		res.attempted++
		if q.status != http.StatusOK {
			res.failed++
			continue
		}
		ext, known := hist.extAt(q.node.chain, q.epoch)
		key := [2]int{p.Shape.node(q.node.chain, q.node.pos), ext}
		d, seen := want[key]
		if !seen {
			d = answerDigest(p.Shape.expected(q.node, ext))
			want[key] = d
		}
		if !known || d != q.digest {
			res.failed++
			wrong++
		}
	}
	for _, ws := range writes {
		res.attempted++
		if ws.status != http.StatusOK {
			res.failed++
		}
	}
	if wrong > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d wrong answers", wrong))
	}

	// End-to-end figures over the timed windows. Rates and percentiles are
	// medians over subWindows equal slices of them, so a burst of load from
	// outside the benchmark, or one slow process, moves one slice rather
	// than the result.
	perProc := subWindows / w.Processes
	slice := p.Window / time.Duration(subWindows)
	sliceOf := func(proc int, at time.Duration) int {
		return proc*perProc + min(int(at/slice), perProc-1)
	}
	var lat, total, preEval, eval, transport, lag, factsLat []float64
	slices := make([][]float64, subWindows)
	var factsSlices [][]float64
	if w.WriteRate > 0 {
		factsSlices = make([][]float64, subWindows)
	}
	nWrites := 0
	for k, win := range windows {
		for _, qs := range win.queries {
			for _, q := range qs {
				lat = append(lat, ms(q.lat))
				i := sliceOf(k, q.sent)
				slices[i] = append(slices[i], ms(q.lat))
				if q.status != http.StatusOK {
					continue
				}
				total = append(total, float64(q.totalNS)/1e6)
				eval = append(eval, float64(q.evalNS)/1e6)
				preEval = append(preEval, float64(q.totalNS-q.evalNS)/1e6)
				transport = append(transport, ms(q.lat)-float64(q.totalNS)/1e6)
			}
		}
		// /facts: the writer's windows split into slices like the queries.
		for _, ws := range win.writes {
			lag = append(lag, ms(ws.sent-ws.sched))
			i := sliceOf(k, ws.sched)
			factsSlices[i] = append(factsSlices[i], ms(ws.done-ws.sched))
			factsLat = append(factsLat, ms(ws.done-ws.sched))
		}
		nWrites += len(win.writes)
	}
	var qps []float64
	for _, sl := range slices {
		qps = append(qps, float64(len(sl))/slice.Seconds())
	}
	// The generator fell behind when a batch went out over a second late:
	// the window did not carry the stated rate.
	if maxLag := quantile(lag, 1); maxLag > 1000 {
		res.problems = append(res.problems, fmt.Sprintf("run invalid: writer fell %.0f ms behind its schedule", maxLag))
	}
	// Without a writer, the probed starts give one slice each.
	for _, pr := range probes {
		var sl []float64
		// The first batches a fresh process serves are slower; they are
		// checked but not timed.
		for _, ws := range pr[min(probeWarm, len(pr)):] {
			sl = append(sl, ms(ws.done-ws.sched))
		}
		factsSlices = append(factsSlices, sl)
		factsLat = append(factsLat, sl...)
	}
	ops := float64(len(lat) + nWrites)
	delta := func(name string) float64 { return deltas[name] }
	queriesServed := delta("factorlog_queries_total")
	per1k := func(name string) float64 { return 1000 * ratio(delta(name), queriesServed) }
	matServes := delta("factorlog_mat_refresh_hits_total") + delta("factorlog_mat_refresh_deltas_total") +
		delta("factorlog_mat_refresh_rebuilds_total") + delta("factorlog_mat_refresh_builds_total")

	res.endToEnd = []metric{
		{"setup_s", "s", median(setups)},
		{"query_qps", "1/s", median(qps)},
		{"query_p50_ms", "ms", slicedQuantile(slices, 0.5)},
		{"query_p99_ms", "ms", slicedQuantile(slices, 0.99)},
		{"facts_p50_ms", "ms", slicedQuantile(factsSlices, 0.5)},
		{"facts_p99_ms", "ms", slicedQuantile(factsSlices, 0.99)},
		{"server_cpu_ms_per_op", "ms", ms(cpu) / ops},
		{"server_peak_rss_mb", "MiB", rss},
	}
	res.layers = []metric{
		{"failed_ratio", "ratio", ratio(float64(res.failed), float64(res.attempted))},
		{"factorlogd.query_samples", "count", float64(len(lat))},
		{"factorlogd.facts_samples", "count", float64(len(factsLat))},
		{"factorlogd.server_total_ms_p50", "ms", median(total)},
		{"factorlogd.pre_eval_ms_p50", "ms", median(preEval)},
		{"factorlogd.transport_ms_p50", "ms", median(transport)},
		{"engine.eval_ms_p50", "ms", median(eval)},
		{"pipeline.plan_hit_ratio", "ratio", ratio(delta("factorlog_plan_cache_hits_total"),
			delta("factorlog_plan_cache_hits_total")+delta("factorlog_plan_cache_misses_total"))},
		{"pipeline.plan_evictions_per_1k", "count/1k", per1k("factorlog_plan_cache_evictions_total")},
		{"pipeline.mat_hit_ratio", "ratio", ratio(delta("factorlog_mat_refresh_hits_total"), matServes)},
		{"pipeline.mat_builds_per_1k", "count/1k", per1k("factorlog_mat_refresh_builds_total")},
		{"pipeline.mat_deltas_per_1k", "count/1k", per1k("factorlog_mat_refresh_deltas_total")},
		{"pipeline.mat_rebuilds_per_1k", "count/1k", per1k("factorlog_mat_refresh_rebuilds_total")},
		{"pipeline.mat_evictions_per_1k", "count/1k", per1k("factorlog_mat_evictions_total")},
		{"wal.fsyncs_per_batch", "count", ratio(delta("factorlog_wal_fsyncs_total"), delta("factorlog_wal_batches_logged_total"))},
		// Segments rotate at 4 MiB, far beyond one run's log, so the
		// committed size only grows over the window.
		{"wal.bytes_per_fact", "B", ratio(delta("factorlog_wal_bytes"),
			delta("factorlog_facts_asserted_total")+delta("factorlog_facts_retracted_total"))},
		{"resilience.queued_per_1k", "count/1k", per1k("factorlog_admission_queued_total")},
		{"writer.lag_ms_p99", "ms", quantile(lag, 0.99)},
	}
	return res, nil
}

// probeFacts is the batch the lookup workloads' /facts probe alternately
// asserts and retracts: a chain of probeSize edges outside the forest, so
// it changes no answer. A batch this size costs the server about a
// millisecond of parsing and applying, so the figure tracks that work
// rather than loopback wake-up latency.
var probeFacts = func() []string {
	out := make([]string, probeSize)
	for i := range out {
		out[i] = fmt.Sprintf("e(%d,%d)", 2*extBase+i, 2*extBase+i+1)
	}
	return out
}()

const probeSize = 256

// probeWarm is the number of untimed batches at the start of each probe.
const probeWarm = 10

// runProbe sends n closed-loop probe batches, checking that each advances
// the epoch by one.
func runProbe(client *http.Client, base string, epoch int64, n int) []writeSample {
	var out []writeSample
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ws := sendBatch(context.Background(), client, base, batch{assert: i%2 == 0, facts: probeFacts}, t0, time.Now())
		if ws.status == http.StatusOK {
			if ws.epoch != epoch+1 {
				ws.status = -1
			}
			epoch = ws.epoch
		}
		out = append(out, ws)
	}
	return out
}
