package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"xhybrid"
	"xhybrid/internal/obs"
)

// planDigest returns the cache key for one (X-map, options) pair: a sha256
// over the canonical binary serialization of the decoded in-memory map
// (records and pattern gaps ascending, so logically equal maps digest
// equally regardless of insertion order or which wire format — text, JSON
// or binary — the request arrived in) followed by every plan-shaping
// option. The key used to hash the canonical JSON encoding instead, which
// meant every request paid a full JSON re-encode of the map just to probe
// the cache; the binary encoding is the same digest semantics at a fraction
// of the cost. Options.Workers and Options.Stats are excluded on purpose:
// the engine is byte-identical for any worker count, and the recorder never
// shapes the plan, so requests differing only there share a cache entry.
func planDigest(x *xhybrid.XLocations, opt xhybrid.Options) (string, error) {
	h := sha256.New()
	if err := x.WriteBinary(h); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "m=%d;q=%d;strategy=%s;seed=%d;maxRounds=%d",
		opt.MISRSize, opt.Q, opt.Strategy, opt.Seed, opt.MaxRounds)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// packedPlan is a cached plan at rest: the scalar accounting and the round
// trace as computed, with every partition's Patterns and MaskedCells and its
// MaskedX packed into one byte slice. An index list is stored as its length
// plus one (0 for a nil list, so a rebuilt plan serializes exactly like the
// original) followed by zigzag-varint deltas from the previous index. The
// lists are ascending, so a typical index costs one byte instead of eight —
// what keeps a serving process's memory flat as fresh plans pile up in the
// cache.
type packedPlan struct {
	// head is the plan with Partitions nil; its Rounds are shared with no
	// caller (get hands out copies).
	head xhybrid.Plan
	// parts is len(Partitions)+1, 0 for a nil Partitions slice.
	parts int
	// ints is the total index count across parts, so unpack allocates one
	// backing array.
	ints int
	data []byte
}

// packPlan packs p; p itself is left untouched.
func packPlan(p *xhybrid.Plan) *packedPlan {
	pp := &packedPlan{head: *p}
	pp.head.Partitions = nil
	pp.head.Rounds = cloneRounds(p.Rounds)
	if p.Partitions != nil {
		pp.parts = len(p.Partitions) + 1
	}
	for i := range p.Partitions {
		pi := &p.Partitions[i]
		pp.data = appendIndices(pp.data, pi.Patterns)
		pp.data = appendIndices(pp.data, pi.MaskedCells)
		pp.data = binary.AppendVarint(pp.data, int64(pi.MaskedX))
		pp.ints += len(pi.Patterns) + len(pi.MaskedCells)
	}
	return pp
}

// appendIndices appends one index list in the packed form.
func appendIndices(b []byte, idx []int) []byte {
	if idx == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(idx))+1)
	prev := 0
	for _, v := range idx {
		b = binary.AppendVarint(b, int64(v-prev))
		prev = v
	}
	return b
}

// unpack rebuilds a fresh plan equal to the packed one.
func (pp *packedPlan) unpack() *xhybrid.Plan {
	p := pp.head
	p.Rounds = cloneRounds(pp.head.Rounds)
	if pp.parts == 0 {
		return &p
	}
	p.Partitions = make([]xhybrid.PartitionInfo, pp.parts-1)
	backing := make([]int, pp.ints)
	data := pp.data
	for i := range p.Partitions {
		pi := &p.Partitions[i]
		pi.Patterns, backing, data = readIndices(backing, data)
		pi.MaskedCells, backing, data = readIndices(backing, data)
		v, n := binary.Varint(data)
		pi.MaskedX, data = int(v), data[n:]
	}
	return &p
}

// readIndices reads one packed index list into the front of backing and
// returns it with the unused backing and data.
func readIndices(backing []int, data []byte) (idx, restBacking []int, rest []byte) {
	n1, k := binary.Uvarint(data)
	data = data[k:]
	if n1 == 0 {
		return nil, backing, data
	}
	n := int(n1 - 1)
	idx = backing[:n:n]
	prev := 0
	for i := range idx {
		d, k := binary.Varint(data)
		data = data[k:]
		prev += int(d)
		idx[i] = prev
	}
	return idx, backing[n:], data
}

// cloneRounds copies a round trace, keeping nil nil.
func cloneRounds(r []xhybrid.RoundInfo) []xhybrid.RoundInfo {
	if r == nil {
		return nil
	}
	return append(make([]xhybrid.RoundInfo, 0, len(r)), r...)
}

// cost approximates the entry's resident size in bytes: a fixed overhead
// for the scalar accounting, slice headers and key bookkeeping, the packed
// index bytes and the round trace. The cache budget is enforced against
// this estimate, so a handful of 100k-cell plans weigh in at what they
// hold instead of counting the same as a 20-cell toy plan — the old
// plan-counted LRU let giant entries pin unbounded memory while tiny ones
// evicted each other.
func (pp *packedPlan) cost() int64 {
	return 640 + int64(len(pp.data)) + 48*int64(len(pp.head.Rounds))
}

// resultCache is a mutex-guarded, byte-weighted LRU of computed plans,
// held packed (packedPlan); every hit unpacks a fresh plan.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	entries   *obs.Counter
	sizeGauge *obs.Counter
}

type cacheEntry struct {
	key  string
	plan *packedPlan
	cost int64
}

// newResultCache returns an LRU holding up to maxBytes of plans (weighted
// by packedPlan.cost); maxBytes <= 0 disables caching (every lookup misses, every
// store is dropped), which keeps the handler logic branch-free.
func newResultCache(maxBytes int64, rec *obs.Recorder) *resultCache {
	return &resultCache{
		maxBytes:  maxBytes,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		hits:      rec.Counter("server.cache.hits"),
		misses:    rec.Counter("server.cache.misses"),
		evictions: rec.Counter("server.cache.evictions"),
		entries:   rec.Counter("server.cache.entries"),
		sizeGauge: rec.Counter("server.cache.bytes"),
	}
}

// get returns the cached plan for key, promoting it to most recently used.
func (c *resultCache) get(key string) (*xhybrid.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry).plan.unpack(), true
}

// put stores the plan under key, evicting least recently used entries
// until the byte budget holds. A plan costing more than the whole budget
// is not cached at all (it would only evict everything else on its way to
// being the next eviction). Re-storing an existing key re-weighs it and
// promotes it.
func (c *resultCache) put(key string, plan *xhybrid.Plan) {
	if c.maxBytes <= 0 {
		return
	}
	packed := packPlan(plan)
	cost := packed.cost()
	if cost > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bytes += cost - e.cost
		e.plan, e.cost = packed, cost
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, plan: packed, cost: cost})
		c.bytes += cost
	}
	for c.bytes > c.maxBytes {
		oldest := c.ll.Back()
		e := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= e.cost
		c.evictions.Inc()
	}
	c.entries.Set(int64(c.ll.Len()))
	c.sizeGauge.Set(c.bytes)
}

// len returns the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// size returns the current byte total of the cached plans.
func (c *resultCache) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
