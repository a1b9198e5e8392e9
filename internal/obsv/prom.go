package obsv

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file renders a ServerStats document in Prometheus text exposition
// format v0.0.4 — the default /metrics body — and provides a strict parser
// used by tests and the CI smoke check (cmd/promcheck) to keep the
// exposition scrape-able. Only the subset of the format we emit is
// supported: HELP/TYPE comments, optionally-labeled samples, cumulative
// histogram buckets.

// PromExposition renders s as Prometheus text format v0.0.4. Counter,
// gauge, and histogram families carry # HELP and # TYPE headers; latency
// histograms are exported in seconds (the Prometheus base unit), one series
// per strategy.
func PromExposition(s ServerStats) string {
	var b strings.Builder

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, promFloat(v))
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("factorlog_uptime_seconds", "Seconds since the server started.", s.UptimeSeconds)
	counter("factorlog_queries_total", "Completed /query requests, successes and failures.", s.Queries)
	counter("factorlog_query_errors_total", "/query requests that returned an error.", s.Errors)
	gauge("factorlog_inflight_queries", "Queries currently evaluating.", float64(s.InFlight))

	counter("factorlog_plan_cache_hits_total", "Plan-cache lookups that reused a compiled plan.", s.PlanCache.Hits)
	counter("factorlog_plan_cache_misses_total", "Plan-cache lookups that compiled a new plan.", s.PlanCache.Misses)
	counter("factorlog_plan_cache_evictions_total", "Plans evicted to respect the cache bound.", s.PlanCache.Evictions)
	gauge("factorlog_plan_cache_entries", "Compiled plans currently cached.", float64(s.PlanCache.Entries))

	// Query latency: one histogram series per strategy, sharing the family.
	if len(s.Latency) > 0 {
		names := make([]string, 0, len(s.Latency))
		for name := range s.Latency {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "# HELP factorlog_query_duration_seconds Query latency by evaluation strategy.\n")
		fmt.Fprintf(&b, "# TYPE factorlog_query_duration_seconds histogram\n")
		for _, name := range names {
			writeDurationHistogram(&b, "factorlog_query_duration_seconds",
				fmt.Sprintf("strategy=%q", name), s.Latency[name])
		}
	}

	if s.Rounds != nil {
		writeValueHistogram(&b, "factorlog_query_rounds",
			"Fixpoint rounds per query, summed across strata.", s.Rounds)
	}
	if s.ArenaBytes != nil {
		writeValueHistogram(&b, "factorlog_query_storage_bytes",
			"Per-query storage footprint (arena plus index bytes).", s.ArenaBytes)
	}
	counter("factorlog_slow_queries_total", "Queries slower than the slow-query threshold.", s.SlowQueries)
	counter("factorlog_traced_queries_total", "Queries that recorded a span trace.", s.TracedQueries)

	a := s.Resilience.Admission
	gauge("factorlog_admission_capacity", "Total concurrent weight the limiter admits.", float64(a.Capacity))
	gauge("factorlog_admission_in_use", "Weight currently admitted.", float64(a.InUse))
	gauge("factorlog_admission_queue_depth", "Requests currently waiting for admission.", float64(a.QueueDepth))
	gauge("factorlog_admission_queue_limit", "Queue length at which requests are shed.", float64(a.QueueLimit))
	counter("factorlog_admission_admitted_total", "Requests admitted, immediately or after queueing.", a.Admitted)
	counter("factorlog_admission_queued_total", "Requests that waited before admission or failure.", a.Queued)
	counter("factorlog_admission_shed_total", "Requests rejected because the queue was full.", a.Shed)
	counter("factorlog_admission_queue_timeouts_total", "Requests whose context ended while queued.", a.QueueTimeouts)

	counter("factorlog_eval_panics_total", "Evaluations that ended in a recovered panic.", s.Resilience.Panics)
	counter("factorlog_memory_budget_stops_total", "Evaluations stopped by the memory budget.", s.Resilience.MemoryBudgetStops)
	counter("factorlog_drained_requests_total", "Requests refused because the server was draining.", s.Resilience.Drained)

	gauge("factorlog_storage_high_water_bytes",
		"Largest per-request storage footprint seen since startup.",
		float64(s.StorageHighWater.ArenaBytes+s.StorageHighWater.IndexBytes))

	m := s.Mutation
	gauge("factorlog_epoch", "Current mutation epoch (one per effective /facts batch).", float64(m.Epoch))
	gauge("factorlog_base_facts", "Live EDB facts in the mutable base.", float64(m.BaseFacts))
	counter("factorlog_fact_batches_total", "Effective mutation batches applied.", m.Batches)
	counter("factorlog_facts_asserted_total", "EDB facts asserted (noop entries excluded).", m.FactsAsserted)
	counter("factorlog_facts_retracted_total", "EDB facts retracted (noop entries excluded).", m.FactsRetracted)
	gauge("factorlog_materializations", "Live materializations in the registry.", float64(m.Entries))
	counter("factorlog_mat_evictions_total", "Materializations evicted to respect the registry bound.", m.Evictions)
	counter("factorlog_mat_refresh_hits_total", "Materialized serves answered at the current epoch with no refresh.", m.Hits)
	counter("factorlog_mat_refresh_deltas_total", "Materialized serves caught up incrementally from logged batches.", m.Deltas)
	counter("factorlog_mat_refresh_wal_deltas_total", "Delta refreshes whose batches came from the durable log after the in-memory log trimmed them.", m.WalDeltas)
	counter("factorlog_mat_refresh_rebuilds_total", "Materialized serves recomputed from the base EDB.", m.Rebuilds)
	counter("factorlog_mat_refresh_builds_total", "Materializations computed for the first time.", m.Builds)
	if m.RefreshWall != nil {
		writeDurationFamily(&b, "factorlog_mat_refresh_seconds",
			"Wall time of non-hit materialization refreshes.", m.RefreshWall)
	}
	if m.ChangeRatio != nil {
		writeValueHistogram(&b, "factorlog_mat_change_ratio",
			"Changed facts over total facts per non-hit refresh.", m.ChangeRatio)
	}

	p := s.PlanSearch
	counter("factorlog_autoplan_picks", "First-time Auto strategy decisions.", p.Picks)
	counter("factorlog_autoplan_recosts", "Shadow re-costing passes over served Auto plans.", p.Recosts)
	counter("factorlog_autoplan_repicks", "Re-costing passes that invalidated the incumbent plan.", p.Repicks)
	counter("factorlog_autoplan_wins", "Re-costing passes the incumbent plan survived.", p.Wins)
	if len(p.PicksByStrategy) > 0 {
		names := make([]string, 0, len(p.PicksByStrategy))
		for name := range p.PicksByStrategy {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "# HELP factorlog_autoplan_picks_by_strategy Auto decisions per winning strategy.\n")
		fmt.Fprintf(&b, "# TYPE factorlog_autoplan_picks_by_strategy counter\n")
		for _, name := range names {
			fmt.Fprintf(&b, "factorlog_autoplan_picks_by_strategy{strategy=%q} %d\n",
				name, p.PicksByStrategy[name])
		}
	}
	if p.RecostWall != nil {
		writeDurationFamily(&b, "factorlog_plan_recost_seconds",
			"Wall time of shadow re-costing passes.", p.RecostWall)
	} else {
		writeDurationFamily(&b, "factorlog_plan_recost_seconds",
			"Wall time of shadow re-costing passes.", NewHistogram())
	}

	// Durability families are emitted unconditionally (zeros when the
	// server runs without -wal-dir) so scrapers see a stable schema.
	d := s.Durability
	enabled := 0.0
	if d.Enabled {
		enabled = 1
	}
	gauge("factorlog_wal_enabled", "1 when a write-ahead log is attached, 0 otherwise.", enabled)
	gauge("factorlog_wal_epoch", "Epoch of the last durably committed batch.", float64(d.WalEpoch))
	gauge("factorlog_wal_first_available_epoch", "Earliest batch epoch the log still holds after retention.", float64(d.FirstAvailableEpoch))
	counter("factorlog_wal_batches_logged_total", "Batches durably appended to the write-ahead log.", d.BatchesLogged)
	counter("factorlog_wal_fsyncs_total", "Write-ahead log fsyncs; one may acknowledge many group-committed batches.", d.Fsyncs)
	gauge("factorlog_wal_segments", "Current write-ahead log segment files.", float64(d.Segments))
	gauge("factorlog_wal_bytes", "Committed bytes across all log segments.", float64(d.WalBytes))
	counter("factorlog_wal_replayed_batches_total", "Log records replayed during startup recovery.", d.ReplayedBatches)
	counter("factorlog_wal_truncated_tail_records_total", "Torn-tail truncations performed by recovery.", d.TruncatedTailRecords)
	if d.GroupCommitWall != nil {
		writeDurationFamily(&b, "factorlog_wal_group_commit_seconds",
			"Append-to-acknowledge latency: time a batch waited for its fsync.", d.GroupCommitWall)
	} else {
		writeDurationFamily(&b, "factorlog_wal_group_commit_seconds",
			"Append-to-acknowledge latency: time a batch waited for its fsync.", NewHistogram())
	}
	gauge("factorlog_snapshot_epoch", "Epoch of the newest base snapshot (0 when none exists).", float64(d.LastSnapshotEpoch))
	counter("factorlog_snapshots_written_total", "Base snapshots written since startup.", d.SnapshotsWritten)
	return b.String()
}

// writeDurationFamily emits an unlabeled duration histogram family (buckets
// in seconds, headers included).
func writeDurationFamily(b *strings.Builder, name, help string, h *Histogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	bounds := h.bounds()
	for i, n := range h.BucketCounts {
		cum += n
		le := "+Inf"
		if i < len(bounds) {
			le = promFloat(bounds[i].Seconds())
		}
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(b, "%s_sum %s\n", name, promFloat(h.Sum.Seconds()))
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count)
}

// writeDurationHistogram emits one labeled histogram series (buckets in
// seconds, cumulative, with +Inf, _sum, _count) under an already-written
// family header.
func writeDurationHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	var cum int64
	bounds := h.bounds()
	for i, n := range h.BucketCounts {
		cum += n
		le := "+Inf"
		if i < len(bounds) {
			le = promFloat(bounds[i].Seconds())
		}
		fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
	}
	fmt.Fprintf(b, "%s_sum{%s} %s\n", name, labels, promFloat(h.Sum.Seconds()))
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, h.Count)
}

// writeValueHistogram emits an unlabeled histogram family for a
// ValueHistogram, headers included.
func writeValueHistogram(b *strings.Builder, name, help string, h *ValueHistogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, n := range h.BucketCounts {
		cum += n
		le := "+Inf"
		if i < len(h.Bounds) {
			le = promFloat(h.Bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(b, "%s_sum %s\n", name, promFloat(h.Sum))
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count)
}

// promFloat renders a float the way Prometheus expects: shortest exact
// decimal, +Inf/-Inf/NaN spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// ParsePromText validates a Prometheus text-format v0.0.4 exposition,
// returning the number of samples parsed. It checks lexical validity
// (metric and label names, label quoting, float values), that every sample
// belongs to a # TYPE-declared family, and histogram integrity per series:
// a +Inf bucket exists, bucket counts are cumulative (non-decreasing in le
// order), the +Inf bucket equals _count, and _sum/_count are present.
func ParsePromText(text string) (samples int, err error) {
	samples, _, err = parsePromText(text)
	return samples, err
}

// PromFamilies validates text like ParsePromText and additionally returns
// the set of declared metric families (TYPE-comment names). cmd/promcheck
// uses it to assert that required families are present in a scrape.
func PromFamilies(text string) (map[string]string, error) {
	_, types, err := parsePromText(text)
	return types, err
}

func parsePromText(text string) (samples int, families map[string]string, err error) {
	types := map[string]string{}
	var parsed []promSample
	for i, line := range strings.Split(text, "\n") {
		lineNo := i + 1
		line = strings.TrimRight(line, " \t\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, ok := parsePromComment(line)
			if !ok {
				continue // free-form comment
			}
			if !validPromName(name) {
				return 0, nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			if kind == "TYPE" {
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return 0, nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, rest)
				}
				if _, dup := types[name]; dup {
					return 0, nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				types[name] = rest
			}
			continue
		}
		s, perr := parsePromSample(line)
		if perr != nil {
			return 0, nil, fmt.Errorf("line %d: %v", lineNo, perr)
		}
		s.line = lineNo
		if familyType(types, s.name) == "" {
			return 0, nil, fmt.Errorf("line %d: sample %q has no # TYPE declaration", lineNo, s.name)
		}
		parsed = append(parsed, s)
	}
	if err := checkPromHistograms(types, parsed); err != nil {
		return 0, nil, err
	}
	return len(parsed), types, nil
}

// parsePromComment splits "# TYPE name rest" / "# HELP name rest".
func parsePromComment(line string) (kind, name, rest string, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", false
	}
	if fields[1] != "TYPE" && fields[1] != "HELP" {
		return "", "", "", false
	}
	return fields[1], fields[2], strings.Join(fields[3:], " "), true
}

// parsePromSample parses `name{l="v",...} value` (labels optional).
func parsePromSample(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if !validPromName(s.name) {
		return s, fmt.Errorf("invalid metric name %q", s.name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parsePromLabels(rest[1:end], s.labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return s, fmt.Errorf("expected value after %q", s.name)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return s, err
	}
	s.value = v
	return s, nil
}

// parsePromLabels parses `k="v",k2="v2"` into out. Escapes (\\, \", \n) are
// honored; empty label sets are allowed.
func parsePromLabels(body string, out map[string]string) error {
	body = strings.TrimSpace(body)
	for body != "" {
		eq := strings.Index(body, "=")
		if eq < 0 {
			return fmt.Errorf("label without '=' in %q", body)
		}
		name := strings.TrimSpace(body[:eq])
		if !validPromLabelName(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		body = strings.TrimSpace(body[eq+1:])
		if !strings.HasPrefix(body, `"`) {
			return fmt.Errorf("label %s value is not quoted", name)
		}
		var val strings.Builder
		i := 1
		for ; i < len(body); i++ {
			c := body[i]
			if c == '\\' {
				if i+1 >= len(body) {
					return fmt.Errorf("dangling escape in label %s", name)
				}
				i++
				switch body[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return fmt.Errorf("bad escape \\%c in label %s", body[i], name)
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(body) {
			return fmt.Errorf("unterminated label value for %s", name)
		}
		out[name] = val.String()
		body = strings.TrimSpace(body[i+1:])
		if strings.HasPrefix(body, ",") {
			body = strings.TrimSpace(body[1:])
		} else if body != "" {
			return fmt.Errorf("expected ',' between labels near %q", body)
		}
	}
	return nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	return v, nil
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validPromLabelName(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return validPromName(s)
}

// familyType resolves a sample name to its declared family type, peeling
// the _bucket/_sum/_count suffixes histogram and summary samples use.
func familyType(types map[string]string, name string) string {
	if t, ok := types[name]; ok {
		return t
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if t := types[base]; t == "histogram" || t == "summary" {
			return t
		}
	}
	return ""
}

// histSeries aggregates one histogram series (family + labels minus le).
type histSeries struct {
	buckets  []promSample // _bucket samples in exposition order
	hasSum   bool
	count    float64
	hasCount bool
}

// checkPromHistograms validates each histogram series' bucket discipline.
func checkPromHistograms(types map[string]string, samples []promSample) error {
	series := map[string]*histSeries{}
	get := func(family string, s promSample) *histSeries {
		keys := make([]string, 0, len(s.labels))
		for k, v := range s.labels {
			if k == "le" {
				continue
			}
			keys = append(keys, k+"="+v)
		}
		sort.Strings(keys)
		id := family + "{" + strings.Join(keys, ",") + "}"
		hs := series[id]
		if hs == nil {
			hs = &histSeries{}
			series[id] = hs
		}
		return hs
	}
	order := make([]string, 0)
	for _, s := range samples {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			family := strings.TrimSuffix(s.name, suffix)
			if family == s.name || types[family] != "histogram" {
				continue
			}
			hs := get(family, s)
			switch suffix {
			case "_bucket":
				if _, ok := s.labels["le"]; !ok {
					return fmt.Errorf("line %d: %s without le label", s.line, s.name)
				}
				if len(hs.buckets) == 0 && !containsStr(order, family) {
					order = append(order, family)
				}
				hs.buckets = append(hs.buckets, s)
			case "_sum":
				hs.hasSum = true
			case "_count":
				hs.count, hs.hasCount = s.value, true
			}
			break
		}
	}
	for id, hs := range series {
		if len(hs.buckets) == 0 {
			return fmt.Errorf("histogram series %s has no buckets", id)
		}
		if !hs.hasSum || !hs.hasCount {
			return fmt.Errorf("histogram series %s missing _sum or _count", id)
		}
		prevLe := math.Inf(-1)
		prevCum := -1.0
		sawInf := false
		for _, b := range hs.buckets {
			le, err := parsePromValue(b.labels["le"])
			if err != nil {
				return fmt.Errorf("line %d: bad le %q", b.line, b.labels["le"])
			}
			if le <= prevLe {
				return fmt.Errorf("line %d: %s buckets out of le order", b.line, id)
			}
			if b.value < prevCum {
				return fmt.Errorf("line %d: %s bucket counts not cumulative", b.line, id)
			}
			prevLe, prevCum = le, b.value
			if math.IsInf(le, 1) {
				sawInf = true
				if b.value != hs.count {
					return fmt.Errorf("line %d: %s +Inf bucket %v != count %v", b.line, id, b.value, hs.count)
				}
			}
		}
		if !sawInf {
			return fmt.Errorf("histogram series %s lacks a +Inf bucket", id)
		}
	}
	return nil
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// RoundsBucketBounds are the default bounds for the per-query rounds
// histogram: 1..~256 rounds doubling.
var RoundsBucketBounds = ExponentialValueBounds(1, 2, 9)

// ArenaBucketBounds are the default bounds for the per-query storage
// histogram: 4KiB..~256MiB, factor 4.
var ArenaBucketBounds = ExponentialValueBounds(4096, 4, 9)
