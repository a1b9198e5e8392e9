package engine

// Tuple hashing for the arena-backed relation storage. Keys are sequences
// of Val words (int32 handles into the hash-consed Store), hashed with
// FNV-1a over the words and finished with a 64-bit avalanche so the low
// bits — the only ones the power-of-two tables use — depend on every word.
// No strings or byte buffers are materialized anywhere on this path; on a
// hash collision callers compare the candidate row against the arena
// directly.

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// mix64 is the splitmix64 finalizer: a full-avalanche permutation of the
// accumulated FNV state.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hashVals hashes a key given as a Val slice.
func hashVals(key []Val) uint64 {
	h := uint64(fnvOffset)
	for _, v := range key {
		h = (h ^ uint64(uint32(v))) * fnvPrime
	}
	return mix64(h)
}

// hashRowCols hashes the projection of an arena row onto cols, word for
// word identical to hashVals over the projected key — the two must agree
// for index probes to find rows inserted via addRow.
func (r *Relation) hashRowCols(row int32, cols []int) uint64 {
	base := int(row) * r.arity
	h := uint64(fnvOffset)
	for _, c := range cols {
		h = (h ^ uint64(uint32(r.arena[base+c]))) * fnvPrime
	}
	return mix64(h)
}

// hashPredTuple hashes a (predicate, tuple) pair: the fact identity used by
// provenance, replacing the old pred + "\x00" + varint-encoded string keys.
func hashPredTuple(pred string, tuple []Val) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(pred); i++ {
		h = (h ^ uint64(pred[i])) * fnvPrime
	}
	h = (h ^ 0xff) * fnvPrime // separates the name from the value words
	for _, v := range tuple {
		h = (h ^ uint64(uint32(v))) * fnvPrime
	}
	return mix64(h)
}
