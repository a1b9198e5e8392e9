// Package trace implements query-scoped execution tracing: a bounded,
// structured span tree that follows one query from the server's HTTP
// handler through the rewrite pipeline (adorn, magic, factor, optimize)
// and into engine evaluation (strata, rounds, rules).
//
// The package is built around two rules that let the hot path stay hot:
//
//   - A nil *Context and a nil *Span are valid no-op tracers. Every method
//     nil-checks its receiver, so untraced code paths pay a single branch
//     and allocate nothing — the same discipline engine.Options.Trace uses.
//   - Spans are created per stage, stratum, round, and rule pass — never
//     per tuple. The per-query span count is bounded (DefaultSpanLimit);
//     once the limit is hit, Child returns nil and the drop is counted, so
//     one pathological query cannot hold unbounded trace memory.
//
// A Context is owned by exactly one query. Within it, spans may be created
// and ended from multiple goroutines, guarded by the Context's lock; each span's attribute fields are written only by
// the goroutine that created it, between Child and End. Rendering (JSON,
// Profile) is meant for finished traces — the server publishes a trace to
// its rings only after Finish.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSpanLimit bounds the spans recorded per query. Stage + stratum +
// round + rule-pass spans for realistic programs are well under it; a
// divergent fixpoint hits the cap and keeps running untraced.
const DefaultSpanLimit = 4096

// idPrefix distinguishes processes: two servers restarted back to back must
// not mint colliding query IDs, or their logs would cross-correlate.
var idPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000"
	}
	return hex.EncodeToString(b[:])
}()

var idCounter atomic.Uint64

// NewID returns a process-unique query ID, e.g. "q-9f2c1a7b-42".
func NewID() string {
	return fmt.Sprintf("q-%s-%d", idPrefix, idCounter.Add(1))
}

// Context is one query's trace: an ID, a start time, and a span tree rooted
// at Root. The zero value is unusable; a nil *Context is a no-op tracer.
type Context struct {
	id      string
	started time.Time // wall clock, for the slow-query log
	start   time.Time // monotonic base for span offsets

	mu      sync.Mutex
	root    *Span
	n       int // spans recorded (including the root)
	limit   int
	dropped int
	wall    time.Duration // set by Finish
	done    bool
}

// New returns a trace for one query, rooted at a span named "query".
func New(id string) *Context { return NewLimit(id, DefaultSpanLimit) }

// NewLimit is New with an explicit span cap (limit <= 0 uses the default).
func NewLimit(id string, limit int) *Context {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	now := time.Now()
	c := &Context{id: id, started: now, start: now, limit: limit}
	c.root = &Span{ctx: c, Name: "query", Rule: -1, Stratum: -1, Round: -1, start: now}
	c.n = 1
	return c
}

// ID returns the query ID ("" for a nil Context).
func (c *Context) ID() string {
	if c == nil {
		return ""
	}
	return c.id
}

// StartedAt returns the wall-clock time the trace began.
func (c *Context) StartedAt() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c.started
}

// Root returns the root span (nil for a nil Context).
func (c *Context) Root() *Span {
	if c == nil {
		return nil
	}
	return c.root
}

// Finish ends the root span and freezes the trace's total wall time.
// Calling Finish more than once keeps the first measurement.
func (c *Context) Finish() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done {
		c.done = true
		c.wall = time.Since(c.start)
		c.root.wall = c.wall
		c.root.ended = true
	}
}

// Wall returns the total traced duration: frozen by Finish, live otherwise.
func (c *Context) Wall() time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return c.wall
	}
	return time.Since(c.start)
}

// Spans returns the number of spans recorded; Dropped the number refused by
// the cap.
func (c *Context) Spans() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *Context) Dropped() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// newSpan allocates a child under parent, enforcing the span cap.
func (c *Context) newSpan(parent *Span, name string) *Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n >= c.limit {
		c.dropped++
		return nil
	}
	now := time.Now()
	s := &Span{
		ctx:      c,
		Name:     name,
		Rule:     -1,
		Stratum:  -1,
		Round:    -1,
		start:    now,
		startOff: now.Sub(c.start),
	}
	parent.children = append(parent.children, s)
	c.n++
	return s
}

// Span is one node of the trace tree. Name identifies what ran (a pipeline
// stage, "eval", "stratum", "round", "rule"); the -1-defaulted index
// fields locate it (rule index, stratum index, round number); TuplesIn/TuplesOut carry the stage's data volume (candidates
// examined / new facts); Allocs and AllocBytes the heap delta where the
// producer sampled it. Attribute fields are written by the creating
// goroutine between Child and End — use the nil-safe Set helpers so untraced
// paths need no branches.
type Span struct {
	ctx *Context

	Name       string
	Rule       int // rule index in the evaluated program; -1 when n/a
	Stratum    int // stratum index in the topological schedule; -1 when n/a
	Round      int // fixpoint round; -1 when n/a
	TuplesIn   int64
	TuplesOut  int64
	Allocs     uint64
	AllocBytes uint64
	// Cached marks a span replayed from a memoized computation (a plan-cache
	// hit's compile stages): its wall time was paid by an earlier query.
	Cached bool
	// Note carries free-form context (predicate list, rule text, error).
	Note string

	start    time.Time
	startOff time.Duration
	wall     time.Duration
	ended    bool
	children []*Span
}

// Child starts a new span under s. It returns nil — a no-op span — when s
// is nil or the trace's span cap is reached.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.ctx.newSpan(s, name)
}

// AddFinished attaches a child whose duration was measured elsewhere (e.g.
// a memoized pipeline stage re-attached to a later query's trace).
func (s *Span) AddFinished(name string, wall time.Duration) *Span {
	c := s.Child(name)
	if c != nil {
		c.wall = wall
		c.ended = true
	}
	return c
}

// End freezes the span's duration. Ending twice keeps the first measurement.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.ctx.mu.Lock()
	if !s.ended {
		s.ended = true
		s.wall = time.Since(s.start)
	}
	s.ctx.mu.Unlock()
}

// Wall returns the span's duration (frozen once ended).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.ctx.mu.Lock()
	defer s.ctx.mu.Unlock()
	if s.ended {
		return s.wall
	}
	return time.Since(s.start)
}

// Children snapshots the span's children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.ctx.mu.Lock()
	defer s.ctx.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// The Set helpers are nil-safe and return the receiver for chaining, so
// instrumentation reads as one expression and costs one branch when the
// trace is off: sp := parent.Child("round").SetRound(r).
func (s *Span) SetRule(i int) *Span {
	if s != nil {
		s.Rule = i
	}
	return s
}

func (s *Span) SetStratum(i int) *Span {
	if s != nil {
		s.Stratum = i
	}
	return s
}

func (s *Span) SetRound(r int) *Span {
	if s != nil {
		s.Round = r
	}
	return s
}

func (s *Span) SetTuples(in, out int64) *Span {
	if s != nil {
		s.TuplesIn, s.TuplesOut = in, out
	}
	return s
}

func (s *Span) AddTuplesOut(n int64) *Span {
	if s != nil {
		s.TuplesOut += n
	}
	return s
}

func (s *Span) SetAllocs(allocs, bytes uint64) *Span {
	if s != nil {
		s.Allocs, s.AllocBytes = allocs, bytes
	}
	return s
}

func (s *Span) SetCached(on bool) *Span {
	if s != nil {
		s.Cached = on
	}
	return s
}

func (s *Span) SetNote(note string) *Span {
	if s != nil {
		s.Note = note
	}
	return s
}

// spanJSON is the wire shape of a span; optional attributes are pointers so
// unset fields disappear instead of serializing -1 sentinels.
type spanJSON struct {
	Name       string     `json:"name"`
	StartNS    int64      `json:"start_ns"`
	WallNS     int64      `json:"wall_ns"`
	Rule       *int       `json:"rule,omitempty"`
	Stratum    *int       `json:"stratum,omitempty"`
	Round      *int       `json:"round,omitempty"`
	TuplesIn   int64      `json:"tuples_in,omitempty"`
	TuplesOut  int64      `json:"tuples_out,omitempty"`
	Allocs     uint64     `json:"allocs,omitempty"`
	AllocBytes uint64     `json:"alloc_bytes,omitempty"`
	Cached     bool       `json:"cached,omitempty"`
	Note       string     `json:"note,omitempty"`
	Children   []spanJSON `json:"children,omitempty"`
}

func optInt(v int) *int {
	if v < 0 {
		return nil
	}
	return &v
}

// jsonTree converts the subtree under the context lock (callers hold it).
func (s *Span) jsonTree() spanJSON {
	out := spanJSON{
		Name:       s.Name,
		StartNS:    s.startOff.Nanoseconds(),
		WallNS:     s.wall.Nanoseconds(),
		Rule:       optInt(s.Rule),
		Stratum:    optInt(s.Stratum),
		Round:      optInt(s.Round),
		TuplesIn:   s.TuplesIn,
		TuplesOut:  s.TuplesOut,
		Allocs:     s.Allocs,
		AllocBytes: s.AllocBytes,
		Cached:     s.Cached,
		Note:       s.Note,
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.jsonTree())
	}
	return out
}

// ContextJSON is the wire shape of a whole trace.
type ContextJSON struct {
	ID        string    `json:"id"`
	StartedAt time.Time `json:"started_at"`
	WallNS    int64     `json:"wall_ns"`
	Spans     int       `json:"spans"`
	Dropped   int       `json:"dropped,omitempty"`
	Root      spanJSON  `json:"root"`
}

// Snapshot converts the trace to its JSON shape. Meant for finished traces;
// a live trace snapshots consistently but with in-progress durations.
func (c *Context) Snapshot() ContextJSON {
	if c == nil {
		return ContextJSON{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	wall := c.wall
	if !c.done {
		wall = time.Since(c.start)
	}
	return ContextJSON{
		ID:        c.id,
		StartedAt: c.started,
		WallNS:    wall.Nanoseconds(),
		Spans:     c.n,
		Dropped:   c.dropped,
		Root:      c.root.jsonTree(),
	}
}

// MarshalJSON renders the trace via Snapshot.
func (c *Context) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Snapshot())
}

// Profile renders the trace as an indented text tree, one line per span:
//
//	trace q-ab12-1 (wall 1.23ms, 17 spans)
//	  adorn  32µs  (cached)  rules 4→9
//	  eval  920µs
//	    stratum 0 [m_t_bf,ft]  400µs  out 123
//	      round 0  80µs  out 10
func (c *Context) Profile() string {
	if c == nil {
		return ""
	}
	snap := c.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (wall %s, %d spans", snap.ID,
		time.Duration(snap.WallNS).Round(time.Microsecond), snap.Spans)
	if snap.Dropped > 0 {
		fmt.Fprintf(&b, ", %d dropped", snap.Dropped)
	}
	b.WriteString(")\n")
	for _, child := range snap.Root.Children {
		writeProfileLine(&b, child, 1)
	}
	return b.String()
}

func writeProfileLine(b *strings.Builder, s spanJSON, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(s.Name)
	if s.Stratum != nil {
		fmt.Fprintf(b, " %d", *s.Stratum)
	}
	if s.Round != nil {
		fmt.Fprintf(b, " %d", *s.Round)
	}
	if s.Rule != nil {
		fmt.Fprintf(b, " #%d", *s.Rule)
	}
	fmt.Fprintf(b, "  %s", time.Duration(s.WallNS).Round(time.Microsecond))
	if s.TuplesIn > 0 || s.TuplesOut > 0 {
		fmt.Fprintf(b, "  in %d out %d", s.TuplesIn, s.TuplesOut)
	}
	if s.Allocs > 0 {
		fmt.Fprintf(b, "  allocs %d", s.Allocs)
	}
	if s.Cached {
		b.WriteString("  (cached)")
	}
	if s.Note != "" {
		fmt.Fprintf(b, "  %s", s.Note)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		writeProfileLine(b, c, depth+1)
	}
}

// Sampler decides which queries get a trace: one in every N. It is safe for
// concurrent use; a nil Sampler never samples.
type Sampler struct {
	every uint64
	n     atomic.Uint64
}

// NewSampler returns a sampler tracing one query in every (every > 0); with
// every <= 0 it never samples, with every == 1 it samples all queries.
func NewSampler(every int) *Sampler {
	if every <= 0 {
		return &Sampler{}
	}
	return &Sampler{every: uint64(every)}
}

// Sample reports whether the next query should be traced.
func (s *Sampler) Sample() bool {
	if s == nil || s.every == 0 {
		return false
	}
	return s.n.Add(1)%s.every == 0
}
