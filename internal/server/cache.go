package server

import (
	"container/list"
	"crypto/sha256"
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

// planCost approximates a plan's resident size in bytes from its shape:
// a fixed overhead for the scalar accounting plus the per-partition index
// slices (8 bytes per pattern/cell index) and the round trace. The cache
// budget is enforced against this estimate, so a handful of 100k-cell
// plans weigh in at megabytes each instead of counting the same as a
// 20-cell toy plan — the old plan-counted LRU let giant entries pin
// unbounded memory while tiny ones evicted each other.
func planCost(p *xhybrid.Plan) int64 {
	cost := int64(640) // struct scalars + slice headers + key bookkeeping
	for i := range p.Partitions {
		cost += 64 + 8*int64(len(p.Partitions[i].Patterns)+len(p.Partitions[i].MaskedCells))
	}
	cost += 96 * int64(len(p.Rounds))
	return cost
}

// resultCache is a mutex-guarded, byte-weighted LRU of computed plans.
// Entries are shared across requests and must be treated as immutable by
// every reader — the handlers only serialize them.
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
	plan *xhybrid.Plan
	cost int64
}

// newResultCache returns an LRU holding up to maxBytes of plans (weighted
// by planCost); maxBytes <= 0 disables caching (every lookup misses, every
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
	return el.Value.(*cacheEntry).plan, true
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
	cost := planCost(plan)
	if cost > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bytes += cost - e.cost
		e.plan, e.cost = plan, cost
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, plan: plan, cost: cost})
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
