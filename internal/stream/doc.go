// Package stream is the streaming relational-algebra executor: it compiles
// the non-recursive strata of a program to composed pull-based σ/π/⋈
// iterator pipelines and runs each of their rules exactly once, in
// topological stratum order, instead of pushing them through the
// materializing semi-naive fixpoint.
//
// The fixpoint evaluator is the right tool for recursion, but on a
// non-recursive stratum it pays for machinery it does not need: the round-0
// pass derives every fact, and the following delta round re-joins every
// rule whose body mentions an IDB predicate against the full relation again
// just to discover there is nothing new — roughly doubling the join work —
// while building persistent column indexes that outlive their single use.
// The §4/§5 reductions of "Argument Reduction by Factoring" deliberately
// manufacture such strata: magic seed predicates and the low-arity bp/fp
// cleanup products are cheap to stream and die after one join.
//
// The executor reuses the engine's rule compiler (engine.CompileProgram),
// so both executors agree exactly on slot numbering, bound/free column
// splits, and join order; the differential suite pins that the two produce
// identical relations. Constant selections are pushed into the source scan
// (or into an existing index probe), join equalities are pushed into hash
// probe keys, and probes are served either by a relation's persistent index
// when one already exists or by a transient build table pre-sized from the
// relation's storage statistics and discarded when the evaluation ends —
// streamed strata never grow the database's retained index footprint.
// Recursive strata fall back to engine.Eval over the stratum's subprogram
// (inheriting budgets and cancellation), and every stratum output
// is materialized at its recursion/consumption boundary so later strata and
// the answer projection read ordinary relations.
//
// Opting in: engine.Options.Streaming (StreamAuto), the facade's
// WithStreaming, the CLI's run -stream, the REPL's :stream, and
// factorlogd's stream=1 all route here; docs/STREAMING.md documents the
// iterator contract, the pushdown rules, the planner decision, and the
// failure semantics (a streamed stratum that panics is isolated exactly
// like a fixpoint one, via faultinject.StreamNext in the chaos suite).
package stream
