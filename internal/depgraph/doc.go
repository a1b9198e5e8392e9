// Package depgraph analyzes the predicate dependency graph of a program:
// which IDB predicates feed which rules. It condenses the graph into
// strongly connected components (Tarjan) and emits a topologically ordered
// stratum schedule, the backbone of stratified evaluation: rules in a
// non-recursive stratum run exactly once, rules in a recursive stratum run
// a local fixpoint, and no stratum starts before the strata it reads from
// are complete.
//
// The schedule is purely syntactic — it depends only on which predicates
// appear in rule heads and bodies — so it is computed once per compiled
// program and shared by every evaluation. The streaming executor
// (internal/stream) walks the schedule stratum by stratum, and incremental
// maintenance (internal/engine) uses it to tell recursive strata apart;
// the per-stratum records the streaming executor emits (obsv.StratumStats)
// are indexed by the schedule order computed here.
package depgraph
