package witness

// This file defines the ring-position space shared by the consistent-hash
// router (internal/shard) and the migration machinery (internal/cluster):
// a key's ring position is Mix64(KeyHash(key)), and a migration moves the
// keys whose positions fall in a set of HashRange arcs. Both layers must
// agree on the mapping bit for bit, so it lives here next to KeyHash.

// Mix64 is the murmur3 64-bit finalizer. FNV-1a (KeyHash) mixes low bits
// well but gives the trailing bytes of sequential labels ("user:1",
// "user:2", vnode names) only one multiply of high-bit avalanche, which
// clusters ring positions badly; the finalizer restores uniform placement
// while keeping the key hash itself shared with the commutativity path.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// RingPoint returns key's position on the 64-bit ring circle.
func RingPoint(key []byte) uint64 { return Mix64(KeyHash(key)) }

// RingPointString is RingPoint for string keys, avoiding a copy.
func RingPointString(key string) uint64 { return Mix64(KeyHashString(key)) }

// HashRange is one arc (Lo, Hi] of the 64-bit ring circle, the unit of key
// migration. Lo == Hi is never produced (it would be ambiguous between the
// empty arc and the full circle); Lo > Hi denotes an arc wrapping past the
// top of the ring.
type HashRange struct {
	Lo, Hi uint64
}

// Contains reports whether ring position h lies in the arc.
func (r HashRange) Contains(h uint64) bool {
	if r.Lo < r.Hi {
		return r.Lo < h && h <= r.Hi
	}
	return h > r.Lo || h <= r.Hi
}

// RangesContain reports whether any arc in ranges contains ring position h.
func RangesContain(ranges []HashRange, h uint64) bool {
	for _, r := range ranges {
		if r.Contains(h) {
			return true
		}
	}
	return false
}

// RangesContainHash reports whether any arc contains the ring position of a
// commutativity key hash (the KeyHash value requests carry).
func RangesContainHash(ranges []HashRange, keyHash uint64) bool {
	return RangesContain(ranges, Mix64(keyHash))
}

// MergeRanges appends the arcs in add that dst does not already hold
// (exact match), returning the extended slice. Migration bookkeeping is
// re-applied on retries and recoveries; merging keeps the lists — which
// hot read paths scan linearly — from growing with duplicates.
func MergeRanges(dst, add []HashRange) []HashRange {
	for _, r := range add {
		dup := false
		for _, have := range dst {
			if have == r {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, r)
		}
	}
	return dst
}

// RemoveRanges deletes the exactly-matching arcs from dst in place and
// returns the filtered slice.
func RemoveRanges(dst, remove []HashRange) []HashRange {
	keep := dst[:0]
	for _, have := range dst {
		dropped := false
		for _, r := range remove {
			if have == r {
				dropped = true
				break
			}
		}
		if !dropped {
			keep = append(keep, have)
		}
	}
	return keep
}
