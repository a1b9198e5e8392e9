package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"factorlog/internal/obsv"
)

// queryResponse is the part of factorlogd's /query body the benchmark reads.
type queryResponse struct {
	Answers       []string `json:"answers"`
	Epoch         int64    `json:"epoch"`
	PlanCache     string   `json:"plan_cache"`
	Materialized  string   `json:"materialized"`
	EvalWallNS    int64    `json:"eval_wall_ns"`
	TotalWallNS   int64    `json:"total_wall_ns"`
	RefreshWallNS int64    `json:"refresh_wall_ns"`
}

// querySample is one /query round trip, kept for checking after the window.
type querySample struct {
	sent, lat time.Duration // send time from the phase start; client latency
	node      queryNode
	status    int // 0 = transport error
	epoch     int64
	digest    uint64
	planHit   bool
	kind      string // materialized disposition, "" for from-scratch
	totalNS   int64
	evalNS    int64
}

// writeSample is one /facts round trip of the writer.
type writeSample struct {
	sched, sent, done time.Duration // from the phase start
	b                 batch
	status            int
	epoch             int64
}

// factsResponse is the part of the /facts body the benchmark reads.
type factsResponse struct {
	Epoch     int64 `json:"epoch"`
	Asserted  int   `json:"asserted"`
	Retracted int   `json:"retracted"`
}

func doQuery(ctx context.Context, client *http.Client, base string, s shape, q queryNode) querySample {
	var smp querySample
	smp.node = q
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/query?q="+url.QueryEscape(q.text(s)), nil)
	if err != nil {
		return smp
	}
	resp, err := client.Do(req)
	if err != nil {
		return smp
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return smp
	}
	smp.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		return smp
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		smp.status = -1
		return smp
	}
	smp.epoch, smp.digest = qr.Epoch, answerDigest(qr.Answers)
	smp.planHit, smp.kind = qr.PlanCache == "hit", qr.Materialized
	smp.totalNS, smp.evalNS = qr.TotalWallNS, qr.EvalWallNS
	return smp
}

func doFacts(ctx context.Context, client *http.Client, base string, b batch) (int, factsResponse) {
	var body []byte
	if b.assert {
		body, _ = json.Marshal(map[string][]string{"assert": b.facts})
	} else {
		body, _ = json.Marshal(map[string][]string{"retract": b.facts})
	}
	var fr factsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/facts", bytes.NewReader(body))
	if err != nil {
		return 0, fr
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, fr
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, fr
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &fr); err != nil || fr.Asserted+fr.Retracted != len(b.facts) {
			return -1, fr
		}
	}
	return resp.StatusCode, fr
}

// phase is one timed stretch of load: closed-loop query connections and
// optionally the open-loop writer, all stopping at the same deadline.
type phase struct {
	queries [][]querySample // per connection
	writes  []writeSample
}

// runPhase drives the server for d. Each query connection sends its next
// request only after the previous reply; the writer sends batch i at
// start + i/rate, or as soon as its connection frees up when late.
func runPhase(client *http.Client, base string, s shape, gens []queryGen,
	wr *writer, hist *history, rate float64, d time.Duration) *phase {
	ctx := context.Background()
	ph := &phase{queries: make([][]querySample, len(gens))}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g queryGen) {
			defer wg.Done()
			var out []querySample
			for {
				sent := time.Now()
				if !sent.Before(deadline) {
					break
				}
				smp := doQuery(ctx, client, base, s, g.next())
				smp.sent, smp.lat = sent.Sub(start), time.Since(sent)
				out = append(out, smp)
			}
			ph.queries[i] = out
		}(i, g)
	}
	if wr != nil && rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			interval := time.Duration(float64(time.Second) / rate)
			for i := 0; ; i++ {
				sched := start.Add(time.Duration(i) * interval)
				if !sched.Before(deadline) {
					break
				}
				if wait := time.Until(sched); wait > 0 {
					time.Sleep(wait)
				}
				ph.writes = append(ph.writes, writeNext(ctx, client, base, wr, hist, start, sched))
			}
		}()
	}
	wg.Wait()
	return ph
}

// writeNext draws the writer's next batch, sends it, and records the
// acknowledged epoch in hist.
func writeNext(ctx context.Context, client *http.Client, base string, wr *writer,
	hist *history, start, sched time.Time) writeSample {
	b := wr.next()
	ws := sendBatch(ctx, client, base, b, start, sched)
	if ws.status != http.StatusOK {
		// A refused batch changed nothing; keep the writer's view in step.
		wr.undo(b)
		return ws
	}
	if err := hist.commit(ws.epoch, b); err != nil {
		ws.status = -1
	}
	return ws
}

// sendBatch sends one batch and records its timing.
func sendBatch(ctx context.Context, client *http.Client, base string, b batch, start, sched time.Time) writeSample {
	sent := time.Now()
	status, fr := doFacts(ctx, client, base, b)
	return writeSample{sched: sched.Sub(start), sent: sent.Sub(start), done: time.Since(start),
		b: b, status: status, epoch: fr.Epoch}
}

// promValues validates a /metrics scrape with the server's own parser and
// returns each family's value, summed over label sets.
func promValues(text string) (map[string]float64, error) {
	if _, err := obsv.ParsePromText(text); err != nil {
		return nil, fmt.Errorf("/metrics does not parse: %w", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics sample %q: %w", line, err)
		}
		out[name] += v
	}
	return out, nil
}

func scrape(client *http.Client, base string) (map[string]float64, error) {
	body, err := get(context.Background(), client, base+"/metrics")
	if err != nil {
		return nil, err
	}
	return promValues(string(body))
}
