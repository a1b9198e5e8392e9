package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Differential tests pinning the arena-backed Relation to a trivially
// correct model: a map-based set plus linear-scan probes. Any divergence in
// Insert return values, Contains answers, round stamps, or index-probe
// result sets over randomized tuple streams (duplicate-heavy, with
// out-of-order round stamps) is a storage-layer bug.

// modelRelation is the reference implementation.
type modelRelation struct {
	arity  int
	seen   map[string]int32 // tuple key -> round of first insertion
	tuples [][]Val
	rounds []int32
}

func newModelRelation(arity int) *modelRelation {
	return &modelRelation{arity: arity, seen: map[string]int32{}}
}

func modelKey(tuple []Val) string { return fmt.Sprint(tuple) }

func (m *modelRelation) insertRound(tuple []Val, round int32) bool {
	k := modelKey(tuple)
	if _, ok := m.seen[k]; ok {
		return false
	}
	m.seen[k] = round
	cp := make([]Val, len(tuple))
	copy(cp, tuple)
	m.tuples = append(m.tuples, cp)
	m.rounds = append(m.rounds, round)
	return true
}

func (m *modelRelation) contains(tuple []Val) bool {
	_, ok := m.seen[modelKey(tuple)]
	return ok
}

// probe returns the model keys of all tuples matching key on cols.
func (m *modelRelation) probe(cols []int, key []Val) []string {
	var out []string
	for _, t := range m.tuples {
		match := true
		for i, c := range cols {
			if t[c] != key[i] {
				match = false
				break
			}
		}
		if match {
			out = append(out, modelKey(t))
		}
	}
	sort.Strings(out)
	return out
}

// randTuple draws from a small domain so duplicates and probe collisions
// are common.
func randTuple(rng *rand.Rand, arity, domain int) []Val {
	t := make([]Val, arity)
	for i := range t {
		t[i] = Val(rng.Intn(domain))
	}
	return t
}

func probeToKeys(r *Relation, positions []int32) []string {
	out := make([]string, 0, len(positions))
	for _, pos := range positions {
		out = append(out, modelKey(r.Tuple(pos)))
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRelationDifferential(t *testing.T) {
	for _, cfg := range []struct {
		arity, domain, inserts int
	}{
		{1, 8, 200},
		{2, 6, 800},
		{3, 5, 1500},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("arity=%d", cfg.arity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + cfg.arity)))
			rel := NewRelation(cfg.arity)
			model := newModelRelation(cfg.arity)

			// Declare some indexes up front and some mid-stream, covering
			// lazily built and incrementally maintained paths.
			rel.ensureIndex([]int{0})
			var indexCols [][]int
			indexCols = append(indexCols, []int{0})
			if cfg.arity >= 2 {
				indexCols = append(indexCols, []int{1}, []int{0, 1})
			}

			for i := 0; i < cfg.inserts; i++ {
				// Rounds arrive out of order: semi-naive evaluation stamps
				// monotonically, but the storage layer must not rely on it.
				round := int32(rng.Intn(7))
				tuple := randTuple(rng, cfg.arity, cfg.domain)
				got := rel.InsertRound(tuple, round)
				want := model.insertRound(tuple, round)
				if got != want {
					t.Fatalf("insert %v round %d: got %v, model %v", tuple, round, got, want)
				}
				// Mutating the caller's slice must not affect the relation.
				for j := range tuple {
					tuple[j] = -99
				}

				if i == cfg.inserts/2 && cfg.arity >= 2 {
					rel.ensureIndex([]int{cfg.arity - 1})
					indexCols = append(indexCols, []int{cfg.arity - 1})
				}

				// Periodically cross-check membership, rounds, and probes.
				if i%16 != 0 {
					continue
				}
				probe := randTuple(rng, cfg.arity, cfg.domain)
				if got, want := rel.Contains(probe), model.contains(probe); got != want {
					t.Fatalf("contains %v: got %v, model %v", probe, got, want)
				}
				for _, cols := range indexCols {
					key := make([]Val, len(cols))
					for k, c := range cols {
						key[k] = probe[c]
					}
					got := probeToKeys(rel, rel.Probe(cols, key))
					want := model.probe(cols, key)
					if !equalStrings(got, want) {
						t.Fatalf("probe cols=%v key=%v:\n got  %v\n want %v", cols, key, got, want)
					}
				}
			}

			// Full sweep: every model tuple present with the right stamp,
			// relation enumeration matches the model set exactly.
			if rel.Len() != len(model.tuples) {
				t.Fatalf("Len = %d, model has %d", rel.Len(), len(model.tuples))
			}
			for pos := int32(0); pos < int32(rel.Len()); pos++ {
				tup := rel.Tuple(pos)
				k := modelKey(tup)
				round, ok := model.seen[k]
				if !ok {
					t.Fatalf("relation holds %v, model does not", tup)
				}
				if rel.Round(pos) != round {
					t.Fatalf("round of %v: got %d, model %d", tup, rel.Round(pos), round)
				}
				if !rel.Contains(tup) {
					t.Fatalf("relation does not Contain its own tuple %v", tup)
				}
			}
		})
	}
}

// TestRelationFrozenProbeRace hammers a frozen relation's read paths
// (Contains and ProbeIndexed) from 8 goroutines while checking results.
// Under -race this pins the claim that the arena design removed all shared
// probe scratch, so readers may share a relation between mutations.
func TestRelationFrozenProbeRace(t *testing.T) {
	const n = 4096
	rel := NewRelation(2)
	for i := 0; i < n; i++ {
		rel.Insert([]Val{Val(i / 8), Val(i)})
	}
	rel.ensureIndex([]int{0})
	rel.ensureIndex([]int{1})

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			probe := make([]Val, 2)
			key := make([]Val, 1)
			for i := 0; i < 20000; i++ {
				x := (i*31 + g*977) % n
				probe[0], probe[1] = Val(x/8), Val(x)
				if !rel.Contains(probe) {
					done <- fmt.Errorf("goroutine %d: missing %v", g, probe)
					return
				}
				probe[1] = Val(n + x)
				if rel.Contains(probe) {
					done <- fmt.Errorf("goroutine %d: phantom %v", g, probe)
					return
				}
				key[0] = Val(x / 8)
				if got, _ := rel.ProbeIndexed([]int{0}, key); len(got) != 8 {
					done <- fmt.Errorf("goroutine %d: probe col0 %v returned %d rows, want 8", g, key, len(got))
					return
				}
				key[0] = Val(x)
				if got, _ := rel.ProbeIndexed([]int{1}, key); len(got) != 1 {
					done <- fmt.Errorf("goroutine %d: probe col1 %v returned %d rows, want 1", g, key, len(got))
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
