package engine

import (
	"fmt"
	"sort"

	"factorlog/internal/faultinject"
	"factorlog/internal/obsv"
)

// Relation is a set of tuples of fixed arity, with hash indexes built on
// demand for the column subsets the evaluator probes. Each tuple carries
// the fixpoint round it was inserted in (0 for base facts), which the
// semi-naive evaluator uses to distinguish P_{r-1}, the delta, and P_r
// without copying relations.
//
// Storage is a flat arena: row i occupies arena[i*arity : (i+1)*arity], so
// the whole relation is one contiguous []Val. Membership (present) and
// every column index are open-addressed hash tables over 64-bit hashes of
// the Val words, resolved against the arena on collision — no tuple is
// ever varint-encoded into a string key, and an insert allocates only when
// the arena or a table doubles. Rows are immutable once written, which
// makes every read-side operation (Tuple, Contains, Round, ProbeIndexed)
// safe for concurrent readers while the relation is frozen between
// mutations.
//
// Deletion (incremental maintenance) never moves rows: Delete removes the
// tuple from the membership table and stamps rounds[row] = -1, the dead
// sentinel. Index postings keep the dead row id — every evaluator reads a
// row only through a round window whose lower bound is ≥ 0, so dead rows
// are filtered at the same branch that implements semi-naive deltas, and
// postings buckets never need compaction. The arena slot itself is leaked
// until the next full rebuild, which is the usual arena trade.
//
// In counted mode (EnableCounts, used by Materialization) each row also
// carries a derivation count — how many immediate derivations currently
// support the fact — and the epoch it was first inserted in. Both columns
// are absent (nil) outside counted mode, so fresh-DB evaluation pays
// nothing for them.
type Relation struct {
	arity   int
	arena   []Val   // row-major tuple storage; rows never move or change
	rounds  []int32 // insertion round per row; -1 = deleted (dead sentinel)
	present tupleSet
	indexes map[uint32]*index // key: bitmask of indexed columns

	dead     int     // rows with rounds[row] < 0
	counted  bool    // counts/epochs columns maintained
	counts   []int32 // per-row derivation count (counted mode only)
	epochs   []int32 // per-row insertion epoch (counted mode only)
	curEpoch int32   // epoch stamped on subsequent inserts (counted mode)
}

// tupleSet is the open-addressed membership table: hash of the full tuple
// -> row id, with linear probing and full arena comparison on collision.
// Slots store emptySlot when never used and tombSlot after a removal;
// lookups probe past tombstones but stop at empties, so removal never
// breaks a probe chain. The stored hashes make probe misses cheap and
// growth rehash-free; growth drops tombstones.
type tupleSet struct {
	hashes []uint64
	rows   []int32
	n      int // live entries
	used   int // live entries + tombstones (growth trigger)
}

const (
	emptySlot = -1
	tombSlot  = -2
)

func (s *tupleSet) lookup(r *Relation, h uint64, tuple []Val) (int32, bool) {
	if len(s.rows) == 0 {
		return -1, false
	}
	mask := uint64(len(s.rows) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		row := s.rows[i]
		if row == emptySlot {
			return -1, false
		}
		if row == tombSlot {
			continue
		}
		if s.hashes[i] == h && r.rowEquals(row, tuple) {
			return row, true
		}
	}
}

// add places a row known to be absent, growing at 3/4 load. The first
// negative slot on the probe path is reused — a tombstone if one is
// passed, the terminating empty otherwise.
func (s *tupleSet) add(h uint64, row int32) {
	if (s.used+1)*4 > len(s.rows)*3 {
		s.grow()
	}
	mask := uint64(len(s.rows) - 1)
	i := h & mask
	for s.rows[i] >= 0 {
		i = (i + 1) & mask
	}
	if s.rows[i] == emptySlot {
		s.used++
	}
	s.hashes[i], s.rows[i] = h, row
	s.n++
}

// remove tombstones the slot holding row (found by hash + arena compare).
// It reports whether the row was present.
func (s *tupleSet) remove(r *Relation, h uint64, tuple []Val) bool {
	if len(s.rows) == 0 {
		return false
	}
	mask := uint64(len(s.rows) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		row := s.rows[i]
		if row == emptySlot {
			return false
		}
		if row == tombSlot {
			continue
		}
		if s.hashes[i] == h && r.rowEquals(row, tuple) {
			s.rows[i] = tombSlot
			s.n--
			return true
		}
	}
}

func (s *tupleSet) grow() {
	size := 2 * len(s.rows)
	if size == 0 {
		size = 16
	}
	oldHashes, oldRows := s.hashes, s.rows
	s.hashes = make([]uint64, size)
	s.rows = make([]int32, size)
	for i := range s.rows {
		s.rows[i] = emptySlot
	}
	mask := uint64(size - 1)
	for j, row := range oldRows {
		if row < 0 {
			continue
		}
		i := oldHashes[j] & mask
		for s.rows[i] >= 0 {
			i = (i + 1) & mask
		}
		s.hashes[i], s.rows[i] = oldHashes[j], row
	}
	s.used = s.n
}

// index maps the projection of a tuple onto cols to the rows sharing that
// key: an open-addressed table of key hashes whose slots name postings
// lists of row ids. Collisions compare the probe key against the bucket's
// first row in the arena.
type index struct {
	cols     []int // sorted ascending
	hashes   []uint64
	slots    []int32 // postings bucket ids; -1 = empty
	n        int     // distinct keys
	postings [][]int32
}

func (ix *index) addRow(r *Relation, row int32) {
	h := r.hashRowCols(row, ix.cols)
	if (ix.n+1)*4 > len(ix.slots)*3 {
		ix.grow()
	}
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		b := ix.slots[i]
		if b < 0 {
			ix.hashes[i] = h
			ix.slots[i] = int32(len(ix.postings))
			ix.postings = append(ix.postings, []int32{row})
			ix.n++
			return
		}
		if ix.hashes[i] == h && r.rowsEqualOnCols(ix.postings[b][0], row, ix.cols) {
			ix.postings[b] = append(ix.postings[b], row)
			return
		}
	}
}

func (ix *index) grow() {
	size := 2 * len(ix.slots)
	if size == 0 {
		size = 16
	}
	oldHashes, oldSlots := ix.hashes, ix.slots
	ix.hashes = make([]uint64, size)
	ix.slots = make([]int32, size)
	for i := range ix.slots {
		ix.slots[i] = -1
	}
	mask := uint64(size - 1)
	for j, b := range oldSlots {
		if b < 0 {
			continue
		}
		i := oldHashes[j] & mask
		for ix.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		ix.hashes[i], ix.slots[i] = oldHashes[j], b
	}
}

// probe returns the postings of the key (aligned with ix.cols), or nil.
// It is a pure read: safe for concurrent use while the relation is frozen.
func (ix *index) probe(r *Relation, key []Val) []int32 {
	if ix.n == 0 {
		return nil
	}
	h := hashVals(key)
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		b := ix.slots[i]
		if b < 0 {
			return nil
		}
		if ix.hashes[i] == h && r.rowMatchesKey(ix.postings[b][0], ix.cols, key) {
			return ix.postings[b]
		}
	}
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{arity: arity, indexes: make(map[uint32]*index)}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of arena rows, including dead (deleted) ones.
// Scans over [0, Len) must skip positions where Round(pos) < 0; the
// evaluator's round windows do this implicitly. Use Live for the number
// of facts.
func (r *Relation) Len() int { return len(r.rounds) }

// Live returns the number of live tuples (arena rows minus deletions).
func (r *Relation) Live() int { return len(r.rounds) - r.dead }

// Tuple returns the tuple at position pos: a view into the arena, valid
// forever (rows are immutable) but not to be modified by the caller.
func (r *Relation) Tuple(pos int32) []Val {
	base := int(pos) * r.arity
	return r.arena[base : base+r.arity : base+r.arity]
}

// rowEquals reports whether the row equals tuple.
func (r *Relation) rowEquals(row int32, tuple []Val) bool {
	base := int(row) * r.arity
	for i, v := range tuple {
		if r.arena[base+i] != v {
			return false
		}
	}
	return true
}

// rowMatchesKey reports whether the row's projection on cols equals key.
func (r *Relation) rowMatchesKey(row int32, cols []int, key []Val) bool {
	base := int(row) * r.arity
	for i, c := range cols {
		if r.arena[base+c] != key[i] {
			return false
		}
	}
	return true
}

// rowsEqualOnCols reports whether two rows agree on cols.
func (r *Relation) rowsEqualOnCols(a, b int32, cols []int) bool {
	ba, bb := int(a)*r.arity, int(b)*r.arity
	for _, c := range cols {
		if r.arena[ba+c] != r.arena[bb+c] {
			return false
		}
	}
	return true
}

// Insert adds tuple to the relation at round 0; it reports whether the
// tuple was new. The tuple is copied into the arena.
func (r *Relation) Insert(tuple []Val) bool { return r.InsertRound(tuple, 0) }

// InsertRound adds tuple with an explicit insertion round.
func (r *Relation) InsertRound(tuple []Val, round int32) bool {
	if len(tuple) != r.arity {
		panic(fmt.Sprintf("engine: inserting tuple of len %d into relation of arity %d", len(tuple), r.arity))
	}
	h := hashVals(tuple)
	if _, ok := r.present.lookup(r, h, tuple); ok {
		return false
	}
	if len(r.arena)+len(tuple) > cap(r.arena) {
		// The arena is about to reallocate — the moment storage failures
		// surface. The injection point sits before any mutation, so a fired
		// fault leaves the relation consistent.
		faultinject.Hit(faultinject.ArenaGrow)
	}
	row := int32(len(r.rounds))
	r.arena = append(r.arena, tuple...)
	r.rounds = append(r.rounds, round)
	if r.counted {
		r.counts = append(r.counts, 1)
		r.epochs = append(r.epochs, r.curEpoch)
	}
	r.present.add(h, row)
	for _, ix := range r.indexes {
		ix.addRow(r, row)
	}
	return true
}

// EnableCounts switches the relation into counted mode: every row carries
// a derivation count (existing rows start at 1) and an insertion epoch.
// Used by Materialization; idempotent.
func (r *Relation) EnableCounts() {
	if r.counted {
		return
	}
	r.counted = true
	r.counts = make([]int32, len(r.rounds))
	r.epochs = make([]int32, len(r.rounds))
	for i := range r.counts {
		r.counts[i] = 1
	}
}

// Counted reports whether the relation maintains derivation counts.
func (r *Relation) Counted() bool { return r.counted }

// DerivCount returns the derivation count of the row (counted mode only).
func (r *Relation) DerivCount(pos int32) int32 { return r.counts[pos] }

// addCount adjusts the row's derivation count and returns the new value.
func (r *Relation) addCount(pos, delta int32) int32 {
	r.counts[pos] += delta
	return r.counts[pos]
}

// RowEpoch returns the epoch the row was inserted in (counted mode only).
func (r *Relation) RowEpoch(pos int32) int32 { return r.epochs[pos] }

// setEpoch sets the epoch stamped on subsequent inserts (counted mode).
func (r *Relation) setEpoch(e int32) { r.curEpoch = e }

// findRow returns the arena row holding tuple, if present (dead rows are
// not present — Delete removes them from the membership table).
func (r *Relation) findRow(tuple []Val) (int32, bool) {
	return r.present.lookup(r, hashVals(tuple), tuple)
}

// deleteRow kills a live arena row: removed from the membership table,
// stamped with the dead sentinel, count zeroed. Index postings keep the
// row id — round windows (lower bound ≥ 0) filter it on every probe.
func (r *Relation) deleteRow(row int32) {
	tuple := r.Tuple(row)
	if !r.present.remove(r, hashVals(tuple), tuple) {
		return
	}
	r.rounds[row] = -1
	if r.counted {
		r.counts[row] = 0
	}
	r.dead++
}

// Delete removes tuple from the relation, reporting whether it was
// present. The arena slot is leaked (rows never move); see the type
// comment for how dead rows stay invisible to the evaluators.
func (r *Relation) Delete(tuple []Val) bool {
	row, ok := r.findRow(tuple)
	if !ok {
		return false
	}
	r.deleteRow(row)
	return true
}

// Round returns the insertion round of the tuple at pos.
func (r *Relation) Round(pos int32) int32 { return r.rounds[pos] }

// Contains reports whether tuple is in the relation. It is a pure read:
// safe for concurrent use while the relation is frozen.
func (r *Relation) Contains(tuple []Val) bool {
	_, ok := r.present.lookup(r, hashVals(tuple), tuple)
	return ok
}

func colMask(cols []int) uint32 {
	var m uint32
	for _, c := range cols {
		m |= 1 << uint(c)
	}
	return m
}

// ensureIndex builds (or returns) the index on the given columns.
func (r *Relation) ensureIndex(cols []int) *index {
	mask := colMask(cols)
	if ix, ok := r.indexes[mask]; ok {
		return ix
	}
	sorted := append([]int(nil), cols...)
	sort.Ints(sorted)
	ix := &index{cols: sorted}
	for row := int32(0); row < int32(r.Len()); row++ {
		ix.addRow(r, row)
	}
	r.indexes[mask] = ix
	return ix
}

// Probe returns the positions of tuples whose projection on cols equals
// key (a slice of Vals aligned with cols). An index on cols is built on
// first use; callers should not pass empty cols. Like the rest of the
// mutating surface it is single-threaded; concurrent readers use
// ProbeIndexed.
func (r *Relation) Probe(cols []int, key []Val) []int32 {
	faultinject.Hit(faultinject.IndexProbe)
	ix := r.ensureIndex(cols)
	if len(cols) != len(ix.cols) {
		panic("engine: probe column count mismatch")
	}
	if !sort.IntsAreSorted(cols) {
		// Rare direct-API path: align key to the index's sorted column
		// order (the compiler always emits bound columns already sorted).
		aligned := make([]Val, len(key))
		perm := append([]int(nil), cols...)
		sort.Ints(perm)
		for i, c := range perm {
			for j, oc := range cols {
				if oc == c {
					aligned[i] = key[j]
					break
				}
			}
		}
		key = aligned
	}
	return ix.probe(r, key)
}

// HasIndex reports whether an index on cols has already been built. The
// streaming executor uses it to reuse a persistent index when one exists
// and otherwise build its own transient table, so streamed strata never
// grow the relation's retained index footprint.
func (r *Relation) HasIndex(cols []int) bool {
	_, ok := r.indexes[colMask(cols)]
	return ok
}

// ProbeIndexed probes a previously built index on cols without building
// one: a pure read over frozen state, returning ok=false when no such
// index exists. cols must be sorted ascending (the compiler emits bound
// columns in column order).
func (r *Relation) ProbeIndexed(cols []int, key []Val) ([]int32, bool) {
	ix := r.indexes[colMask(cols)]
	if ix == nil {
		return nil, false
	}
	faultinject.Hit(faultinject.IndexProbe)
	return ix.probe(r, key), true
}

// StorageFootprint reports the relation's memory shape: arena bytes
// (tuples + round stamps), index bytes (hash slots + postings), and the
// load factors of the membership table and the indexes.
func (r *Relation) StorageFootprint() (arenaBytes, indexBytes int64, presentLoad, indexLoad float64, nIndexes int) {
	const valSize, roundSize, hashSize, slotSize = 4, 4, 8, 4
	arenaBytes = int64(cap(r.arena))*valSize + int64(cap(r.rounds))*roundSize
	arenaBytes += int64(cap(r.counts))*roundSize + int64(cap(r.epochs))*roundSize
	indexBytes = int64(cap(r.present.hashes))*hashSize + int64(cap(r.present.rows))*slotSize
	if len(r.present.rows) > 0 {
		presentLoad = float64(r.present.n) / float64(len(r.present.rows))
	}
	loadSum := 0.0
	for _, ix := range r.indexes {
		indexBytes += int64(cap(ix.hashes))*hashSize + int64(cap(ix.slots))*slotSize
		for _, p := range ix.postings {
			indexBytes += int64(cap(p)) * slotSize
		}
		if len(ix.slots) > 0 {
			loadSum += float64(ix.n) / float64(len(ix.slots))
		}
		nIndexes++
	}
	if nIndexes > 0 {
		indexLoad = loadSum / float64(nIndexes)
	}
	return arenaBytes, indexBytes, presentLoad, indexLoad, nIndexes
}

// DB maps predicate names to relations. Predicates are identified by name
// alone; using one name at two arities is an error surfaced at insert.
type DB struct {
	Store     *Store
	relations map[string]*Relation
}

// NewDB returns an empty database over a fresh store.
func NewDB() *DB { return NewDBWith(NewStore()) }

// NewDBWith returns an empty database over the given store.
func NewDBWith(store *Store) *DB {
	return &DB{Store: store, relations: make(map[string]*Relation)}
}

// Rel returns the relation for pred, creating it with the given arity on
// first use. It returns an error on arity conflicts.
func (db *DB) Rel(pred string, arity int) (*Relation, error) {
	if r, ok := db.relations[pred]; ok {
		if r.arity != arity {
			return nil, fmt.Errorf("predicate %s used with arity %d and %d", pred, r.arity, arity)
		}
		return r, nil
	}
	r := NewRelation(arity)
	db.relations[pred] = r
	return r, nil
}

// Lookup returns the relation for pred, or nil if none exists.
func (db *DB) Lookup(pred string) *Relation { return db.relations[pred] }

// Preds returns the predicate names present, sorted.
func (db *DB) Preds() []string {
	out := make([]string, 0, len(db.relations))
	for p := range db.relations {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Insert adds a fact. It reports whether the fact was new.
func (db *DB) Insert(pred string, tuple ...Val) (bool, error) {
	r, err := db.Rel(pred, len(tuple))
	if err != nil {
		return false, err
	}
	return r.Insert(tuple), nil
}

// MustInsert is Insert, panicking on arity conflict; for tests and loaders.
func (db *DB) MustInsert(pred string, tuple ...Val) bool {
	ok, err := db.Insert(pred, tuple...)
	if err != nil {
		panic(err)
	}
	return ok
}

// Count returns the number of live facts for pred (0 if absent).
func (db *DB) Count(pred string) int {
	if r := db.relations[pred]; r != nil {
		return r.Live()
	}
	return 0
}

// TotalFacts returns the total number of live facts across all relations.
func (db *DB) TotalFacts() int {
	n := 0
	for _, r := range db.relations {
		n += r.Live()
	}
	return n
}

// setEpoch sets the epoch stamped on subsequent inserts in every relation
// (counted mode); Materialization advances it per mutation batch.
func (db *DB) setEpoch(e int32) {
	for _, r := range db.relations {
		r.setEpoch(e)
	}
}

// StorageStats aggregates every relation's StorageFootprint into one
// database-wide record: total arena and index bytes, plus load factors
// averaged over non-empty tables.
func (db *DB) StorageStats() obsv.StorageStats {
	var st obsv.StorageStats
	presentSum, presentN := 0.0, 0
	indexSum, indexN := 0.0, 0
	for _, r := range db.relations {
		arenaBytes, indexBytes, presentLoad, indexLoad, nIndexes := r.StorageFootprint()
		st.Relations++
		st.Facts += r.Live()
		st.ArenaBytes += arenaBytes
		st.IndexBytes += indexBytes
		st.Indexes += nIndexes
		if r.Len() > 0 {
			presentSum += presentLoad
			presentN++
		}
		if nIndexes > 0 {
			indexSum += indexLoad
			indexN++
		}
	}
	if presentN > 0 {
		st.PresentLoad = presentSum / float64(presentN)
	}
	if indexN > 0 {
		st.IndexLoad = indexSum / float64(indexN)
	}
	return st
}

// resetRounds zeroes every live row's insertion-round stamp, turning all
// current facts into base state for a fresh fixpoint. Incremental
// maintenance uses it before each wave loop: stamps left by earlier
// evaluations would otherwise fall outside the loop's round windows and
// break completeness. Dead rows keep their -1 sentinel — zeroing it would
// resurrect deleted facts.
func (db *DB) resetRounds() {
	for _, r := range db.relations {
		for i := range r.rounds {
			if r.rounds[i] >= 0 {
				r.rounds[i] = 0
			}
		}
	}
}

// Clone returns a DB sharing the store but with independent relations
// holding the live tuples (dead arena rows are not carried over).
func (db *DB) Clone() *DB {
	out := NewDBWith(db.Store)
	for pred, r := range db.relations {
		nr := NewRelation(r.arity)
		for pos := int32(0); pos < int32(r.Len()); pos++ {
			if r.rounds[pos] < 0 {
				continue
			}
			nr.Insert(r.Tuple(pos))
		}
		out.relations[pred] = nr
	}
	return out
}
