package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"factorlog/internal/parser"
)

// shape sizes the generated input. The defaults are the benchmark's; the
// smoke test shrinks them.
type shape struct {
	Chains   int     `json:"chains"`    // disjoint e-chains in the base EDB
	ChainLen int     `json:"chain_len"` // e edges per chain
	HotNodes int     `json:"hot_nodes"` // lookup-hot working set
	MaxExt   int     `json:"max_ext"`   // extensions a chain may carry past its base tail
	ZipfS    float64 `json:"zipf_s"`    // Zipf exponent for mat-ingest chain choice
}

var defaultShape = shape{Chains: 256, ChainLen: 32, HotNodes: 64, MaxExt: 4, ZipfS: 1.4}

// extBase numbers extension nodes apart from every base node.
const extBase = 1_000_000

// node is the id of position pos (0..ChainLen) on chain c.
func (s shape) node(c, pos int) int { return c*(s.ChainLen+1) + pos }

// extNode is the id of chain c's m-th extension node (m >= 1).
func (s shape) extNode(c, m int) int { return extBase + c*(s.MaxExt+1) + m }

// tail is the last node of chain c when it carries ext extensions.
func (s shape) tail(c, ext int) int {
	if ext == 0 {
		return s.node(c, s.ChainLen)
	}
	return s.extNode(c, ext)
}

// queryNode is a start node of t(c,Y): a chain and a position with at least
// one edge after it.
type queryNode struct{ chain, pos int }

func (q queryNode) text(s shape) string { return fmt.Sprintf("t(%d,Y)", s.node(q.chain, q.pos)) }

// expected renders the answers of t(node(c,pos),Y) when chain c carries ext
// extensions, sorted the way the server sorts them.
func (s shape) expected(q queryNode, ext int) []string {
	out := make([]string, 0, s.ChainLen-q.pos+ext)
	for p := q.pos + 1; p <= s.ChainLen; p++ {
		out = append(out, fmt.Sprintf("(%d)", s.node(q.chain, p)))
	}
	for m := 1; m <= ext; m++ {
		out = append(out, fmt.Sprintf("(%d)", s.extNode(q.chain, m)))
	}
	sort.Strings(out)
	return out
}

// answerDigest fingerprints a sorted answer list so responses can be kept
// for checking after the timed window without holding every answer.
func answerDigest(answers []string) uint64 {
	h := fnv.New64a()
	for _, a := range answers {
		h.Write([]byte(a))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// programText is testdata/tc3.dl with its facts removed, followed by the
// forest: chains of e edges.
func programText(root string, s shape) (string, error) {
	src, err := os.ReadFile(filepath.Join(root, "testdata", "tc3.dl"))
	if err != nil {
		return "", err
	}
	u, err := parser.Parse(string(src))
	if err != nil {
		return "", fmt.Errorf("tc3.dl: %w", err)
	}
	var b strings.Builder
	for _, r := range u.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for _, q := range u.Queries {
		fmt.Fprintf(&b, "?- %s.\n", q)
	}
	for c := 0; c < s.Chains; c++ {
		for p := 0; p < s.ChainLen; p++ {
			fmt.Fprintf(&b, "e(%d,%d).\n", s.node(c, p), s.node(c, p+1))
		}
	}
	return b.String(), nil
}

// streams derives every input of one run from the seed: the chain ranking
// that Zipf ranks map to, the lookup-hot working set, and one query
// generator per connection plus the writer.
type streams struct {
	s         shape
	seed      int64
	rank      []int       // mat-ingest query Zipf rank -> chain
	writeRank []int       // writer Zipf rank -> chain
	hot       []queryNode // lookup-hot working set
}

func newStreams(s shape, seed int64) *streams {
	r := rand.New(rand.NewSource(seed))
	st := &streams{s: s, seed: seed, rank: r.Perm(s.Chains)}
	// The writer ranks chains independently of the queries, so hot entries
	// replay a mix of batches on their own chain and on others.
	st.writeRank = r.Perm(s.Chains)
	// The hot set covers every chain position equally often, so its cost
	// mix is the same under every seed; the seed picks the chains.
	chains := r.Perm(s.Chains)
	for i := 0; i < s.HotNodes; i++ {
		st.hot = append(st.hot, queryNode{chain: chains[i%s.Chains], pos: i % s.ChainLen})
	}
	return st
}

// queryGen draws the start nodes of one connection's closed loop.
type queryGen struct {
	next func() queryNode
}

// queries returns connection conn's query stream for workload w.
func (st *streams) queries(w *workload, conn int) queryGen {
	r := rand.New(rand.NewSource(st.seed*7919 + int64(conn) + 1))
	s := st.s
	switch w.Name {
	case "lookup-hot":
		return queryGen{func() queryNode { return st.hot[r.Intn(len(st.hot))] }}
	case "lookup-cold":
		return queryGen{func() queryNode {
			return queryNode{chain: r.Intn(s.Chains), pos: r.Intn(s.ChainLen)}
		}}
	default:
		z := rand.NewZipf(r, s.ZipfS, 1, uint64(s.Chains-1))
		return queryGen{func() queryNode { return queryNode{chain: st.rank[z.Uint64()], pos: 0} }}
	}
}

// batch is one /facts mutation. The writer's batches assert a single edge
// past a chain's tail or retract the chain's latest extension.
type batch struct {
	chain  int
	ext    int // the chain's extension count once the batch applies
	assert bool
	facts  []string
}

// writer generates mutation batches and tracks the extension count each
// chain reaches, so the base stays bounded.
type writer struct {
	s   shape
	r   *rand.Rand
	z   *rand.Zipf
	st  *streams
	ext []int
}

func (st *streams) writer() *writer {
	r := rand.New(rand.NewSource(st.seed*104729 + 17))
	return &writer{s: st.s, r: r, z: rand.NewZipf(r, st.s.ZipfS, 1, uint64(st.s.Chains-1)),
		st: st, ext: make([]int, st.s.Chains)}
}

// next draws the next batch and applies it to the writer's view. undo
// reverts it when the server refuses the batch.
func (wr *writer) next() batch {
	c := wr.st.writeRank[wr.z.Uint64()]
	e := wr.ext[c]
	extend := e == 0 || (e < wr.s.MaxExt && wr.r.Intn(2) == 0)
	var b batch
	if extend {
		b = batch{chain: c, ext: e + 1, assert: true,
			facts: []string{fmt.Sprintf("e(%d,%d)", wr.s.tail(c, e), wr.s.extNode(c, e+1))}}
	} else {
		b = batch{chain: c, ext: e - 1,
			facts: []string{fmt.Sprintf("e(%d,%d)", wr.s.tail(c, e-1), wr.s.extNode(c, e))}}
	}
	wr.ext[c] = b.ext
	return b
}

func (wr *writer) undo(b batch) {
	if b.assert {
		wr.ext[b.chain] = b.ext - 1
	} else {
		wr.ext[b.chain] = b.ext + 1
	}
}

// history records each chain's extension count per epoch, so a response is
// checked against the base at the epoch it reports.
type history struct {
	start   int64
	initial []int
	byChain map[int][]epochExt
	last    int64
}

type epochExt struct {
	epoch int64
	ext   int
}

func newHistory(start int64, ext []int) *history {
	return &history{start: start, initial: append([]int(nil), ext...),
		byChain: map[int][]epochExt{}, last: start}
}

// commit records an acknowledged batch; epochs must arrive consecutively.
func (h *history) commit(epoch int64, b batch) error {
	if epoch != h.last+1 {
		return fmt.Errorf("batch acknowledged at epoch %d, want %d", epoch, h.last+1)
	}
	h.last = epoch
	h.byChain[b.chain] = append(h.byChain[b.chain], epochExt{epoch, b.ext})
	return nil
}

// extAt is chain c's extension count at epoch e; ok is false for an epoch
// no acknowledged batch produced.
func (h *history) extAt(c int, e int64) (int, bool) {
	if e < h.start || e > h.last {
		return 0, false
	}
	ext := h.initial[c]
	for _, x := range h.byChain[c] {
		if x.epoch > e {
			break
		}
		ext = x.ext
	}
	return ext, true
}
