package pipeline

import (
	"context"
	"errors"
	"testing"

	"factorlog/internal/parser"
)

// fakeDurable is an in-memory DurableLog: append-only, with switchable
// failure and Since availability, mirroring the wal package's contract.
type fakeDurable struct {
	batches  []MutationBatch
	failNext error
	noServe  bool
}

func (f *fakeDurable) Append(b MutationBatch) error {
	if f.failNext != nil {
		err := f.failNext
		f.failNext = nil
		return err
	}
	f.batches = append(f.batches, b)
	return nil
}

func (f *fakeDurable) Since(after int64) ([]MutationBatch, bool) {
	if f.noServe {
		return nil, false
	}
	var out []MutationBatch
	for _, b := range f.batches {
		if b.Epoch > after {
			out = append(out, b)
		}
	}
	return out, true
}

// TestDurableAppendBeforeAck pins the write-ahead contract: every effective
// batch reaches the durable log with the epoch it commits as, and noop
// batches never do.
func TestDurableAppendBeforeAck(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	d := &fakeDurable{}
	m, err := NewMaterializer(p, nil, edgeAtoms(t, [2]int{1, 2}), nil,
		MaterializerOptions{Durable: d})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(edgeAtoms(t, [2]int{2, 3}), nil); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if _, err := m.Apply(edgeAtoms(t, [2]int{1, 2}), nil); err != nil { // noop
		t.Fatalf("noop apply: %v", err)
	}
	if _, err := m.Apply(nil, edgeAtoms(t, [2]int{1, 2})); err != nil {
		t.Fatalf("retract apply: %v", err)
	}
	if len(d.batches) != 2 {
		t.Fatalf("durable log has %d batches, want 2 (noop excluded)", len(d.batches))
	}
	if d.batches[0].Epoch != 1 || len(d.batches[0].Assert) != 1 {
		t.Fatalf("batch 1 = %+v", d.batches[0])
	}
	if d.batches[1].Epoch != 2 || len(d.batches[1].Retract) != 1 {
		t.Fatalf("batch 2 = %+v", d.batches[1])
	}
	if got := m.Epoch(); got != 2 {
		t.Fatalf("epoch %d, want 2", got)
	}
}

// TestDurableAppendFailureUnwinds proves a batch that cannot be logged is
// not acknowledged: the error surfaces, the base and epoch are unchanged,
// and the same batch succeeds on retry.
func TestDurableAppendFailureUnwinds(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	diskFull := errors.New("disk full")
	d := &fakeDurable{}
	m, err := NewMaterializer(p, nil, edgeAtoms(t, [2]int{1, 2}, [2]int{2, 3}), nil,
		MaterializerOptions{Durable: d})
	if err != nil {
		t.Fatal(err)
	}
	before := len(m.BaseFacts())

	d.failNext = diskFull
	res, err := m.Apply(edgeAtoms(t, [2]int{3, 4}), edgeAtoms(t, [2]int{1, 2}))
	if !errors.Is(err, diskFull) {
		t.Fatalf("apply with failing log: %v, want disk full", err)
	}
	if res.Changed() || res.Epoch != 0 {
		t.Fatalf("failed apply reported %+v, want unchanged at epoch 0", res)
	}
	if got := m.Epoch(); got != 0 {
		t.Fatalf("epoch %d after failed append, want 0", got)
	}
	if got := m.BaseFacts(); len(got) != before {
		t.Fatalf("base has %d facts after unwind, want %d", len(got), before)
	}
	// The unwound base must serve the pre-batch answers.
	want := scratchAnswers(t, p, mustAtom(t, "t(1, Y)"), SemiNaive, m.BaseFacts())
	resv, err := m.Serve(context.Background(), mustAtom(t, "t(1, Y)"), SemiNaive)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if diff := diffAnswers(resv.Answers, want); diff != "" {
		t.Fatalf("answers after unwind: %s", diff)
	}

	// Retrying the identical batch commits the epoch the failure skipped.
	res, err = m.Apply(edgeAtoms(t, [2]int{3, 4}), edgeAtoms(t, [2]int{1, 2}))
	if err != nil {
		t.Fatalf("retry apply: %v", err)
	}
	if res.Epoch != 1 || len(d.batches) != 1 || d.batches[0].Epoch != 1 {
		t.Fatalf("retry committed %+v with log %+v, want epoch 1", res, d.batches)
	}
}

// TestWalDeltaRefreshAfterTrim is the LogLimit fix: when the in-memory log
// has trimmed batches the durable log still holds, a stale entry refreshes
// by replaying from the WAL instead of rebuilding from scratch.
func TestWalDeltaRefreshAfterTrim(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	query := mustAtom(t, "t(1, Y)")
	ctx := context.Background()
	run := func(d *fakeDurable) (*Materializer, *MatResult) {
		t.Helper()
		m, err := NewMaterializer(p, nil, edgeAtoms(t, [2]int{1, 2}), nil,
			MaterializerOptions{LogLimit: 1, Durable: d})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Serve(ctx, query, SemiNaive); err != nil {
			t.Fatalf("build serve: %v", err)
		}
		// Three effective batches: the in-memory log (LogLimit 1) keeps
		// only the last, so the entry at epoch 0 is beyond its reach.
		for i := 2; i <= 4; i++ {
			if _, err := m.Apply(edgeAtoms(t, [2]int{i, i + 1}), nil); err != nil {
				t.Fatalf("apply %d: %v", i, err)
			}
		}
		res, err := m.Serve(ctx, query, SemiNaive)
		if err != nil {
			t.Fatalf("refresh serve: %v", err)
		}
		return m, res
	}

	m, res := run(&fakeDurable{})
	if res.Kind != "delta" || res.Batches != 3 {
		t.Fatalf("refresh with WAL = %q over %d batches, want delta over 3", res.Kind, res.Batches)
	}
	if st := m.Stats(); st.WalDeltas != 1 || st.Deltas != 1 {
		t.Fatalf("stats = deltas %d, wal deltas %d; want 1 and 1", st.Deltas, st.WalDeltas)
	}
	want := scratchAnswers(t, p, query, SemiNaive, m.BaseFacts())
	if diff := diffAnswers(res.Answers, want); diff != "" {
		t.Fatalf("wal-delta answers: %s", diff)
	}

	// Control: a durable log that cannot serve history forces the old
	// rebuild path, proving the delta really came from the WAL.
	m2, res2 := run(&fakeDurable{noServe: true})
	if res2.Kind != "rebuild" {
		t.Fatalf("refresh without WAL history = %q, want rebuild", res2.Kind)
	}
	if st := m2.Stats(); st.WalDeltas != 0 {
		t.Fatalf("control counted %d wal deltas", st.WalDeltas)
	}
}

// TestMaterializerStartEpoch pins recovery seeding: a materializer built at
// StartEpoch E numbers its first batch E+1 and logs it durably as such.
func TestMaterializerStartEpoch(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	d := &fakeDurable{}
	m, err := NewMaterializer(p, nil, edgeAtoms(t, [2]int{1, 2}), nil,
		MaterializerOptions{StartEpoch: 41, Durable: d})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(); got != 41 {
		t.Fatalf("start epoch %d, want 41", got)
	}
	res, err := m.Apply(edgeAtoms(t, [2]int{2, 3}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 42 || len(d.batches) != 1 || d.batches[0].Epoch != 42 {
		t.Fatalf("first batch committed as %d (logged %+v), want 42", res.Epoch, d.batches)
	}
	// Serving at the recovered epoch works like any other epoch.
	resv, err := m.Serve(context.Background(), mustAtom(t, "t(1, Y)"), SemiNaive)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if resv.Epoch != 42 {
		t.Fatalf("served epoch %d, want 42", resv.Epoch)
	}
}
