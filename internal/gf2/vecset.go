package gf2

// VecSet deduplicates bit vectors by content, assigning each distinct
// vector a dense id (0, 1, 2, ... in first-insertion order). It replaces
// the Vec.String()-keyed maps of earlier designs: keys are 64-bit content
// hashes (Vec.Hash) verified with word-level equality on hash collisions,
// so no per-insert string or bucket slice is ever allocated.
//
// The zero value is not usable; call NewVecSet. VecSet is not safe for
// concurrent use; callers that share one across goroutines must serialize
// access.
type VecSet struct {
	// heads maps a content hash to the newest id carrying it, and next[id]
	// chains each id to the previous id with the same hash (-1 ends the
	// chain), so an insert allocates no per-hash bucket slice.
	heads map[uint64]int32
	next  []int32
	vecs  []Vec
}

// NewVecSet returns an empty set.
func NewVecSet() *VecSet {
	return &VecSet{heads: make(map[uint64]int32)}
}

// Len returns the number of distinct vectors in the set.
func (s *VecSet) Len() int { return len(s.vecs) }

// Vec returns the stored vector with the given id. The vector is shared
// with the set; treat it as read-only.
func (s *VecSet) Vec(id int) Vec { return s.vecs[id] }

// Add inserts v and returns its dense id, with existed reporting whether an
// equal vector was already present. The set stores v itself (no clone); the
// caller must not mutate it afterwards.
func (s *VecSet) Add(v Vec) (id int, existed bool) {
	return s.AddWithHash(v.Hash(), v)
}

// AddWithHash is Add with the content hash already in hand. Equal vectors
// must be given equal hashes (v.Hash(), or any function of the content); a
// mismatched hash silently duplicates entries.
func (s *VecSet) AddWithHash(h uint64, v Vec) (id int, existed bool) {
	for j := s.chain(h); j >= 0; j = s.next[j] {
		if s.vecs[j].Equal(v) {
			return int(j), true
		}
	}
	return s.insert(h, v), false
}

// chain returns the newest id stored under hash h, or -1.
func (s *VecSet) chain(h uint64) int32 {
	if j, ok := s.heads[h]; ok {
		return j
	}
	return -1
}

func (s *VecSet) insert(h uint64, v Vec) int {
	id := len(s.vecs)
	s.vecs = append(s.vecs, v)
	s.next = append(s.next, s.chain(h))
	s.heads[h] = int32(id)
	return id
}
