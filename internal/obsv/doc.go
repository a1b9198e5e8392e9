// Package obsv is the observability layer: plain record types shared by the
// engine (per-rule, per-round and per-stratum evaluation counters), the pipeline (stage spans), and the command-line and server
// surfaces (plan-cache counters, latency histograms), plus text renderers
// for each. It is deliberately dependency-free and knows nothing about
// Datalog — producers fill the records, obsv formats them.
//
// None of the record types synchronize internally: single-threaded
// producers (the evaluator) write them directly, and concurrent producers
// (the query server's request handlers) guard shared records with their
// own lock.
//
// The JSON tags define the schemas of the machine-readable metrics
// documents: `factorbench -json` emits the evaluation records (schema
// factorlog/metrics/v4, committed as BENCH_*.json), and factorlogd's
// /metrics endpoint emits ServerStats (also factorlog/metrics/v4; v4
// added StorageStats and the Span allocation counters).
package obsv
