package docstore

import (
	"container/list"
	"encoding/binary"
	"math"
	"strconv"
	"sync"

	"repro/internal/feature"
	"repro/internal/telemetry"
)

// defaultQueryCacheSize bounds the query-result cache when Options leaves it
// zero.
const defaultQueryCacheSize = 128

// queryCache is a generation-tagged LRU fronting SearchText and
// SearchTextGlobal. A hybrid ask is not cached: it blends its concept with
// a profile, so no two asks repeat a key.
// Every entry was computed against one epoch, the cache's; any write bumps
// the store epoch, so a lookup at a later one misses, and the first entry
// put at a later one drops them all, with no scan on the write path. A
// stale entry is not kept until the LRU evicts it: a cached hit keeps alive
// the index it was found in (see Hit), which a merge may since have
// retired. Cached hits hold snapshot-owned documents — immutable by the
// snapshot contract — and are returned shared: search results are
// read-only, so a cache hit costs a lookup and an LRU splice, never a deep
// copy or an allocation. Lookup keys arrive as scratch byte slices and are only
// materialized into strings when an entry is first inserted.
type queryCache struct {
	mu      sync.Mutex
	cap     int
	epoch   uint64     // what every entry was computed against
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses *telemetry.Counter
	size         *telemetry.Gauge
}

type cacheEntry struct {
	key string
	raw []Hit // snapshot-owned documents; returned shared, read-only
}

// newQueryCache returns nil (fully disabled) for cap < 0.
func newQueryCache(cap int, reg *telemetry.Registry) *queryCache {
	if cap < 0 {
		return nil
	}
	if cap == 0 {
		cap = defaultQueryCacheSize
	}
	c := &queryCache{cap: cap, ll: list.New(), entries: make(map[string]*list.Element)}
	if reg != nil {
		c.hits = reg.Counter("docstore.cache.hits")
		c.misses = reg.Counter("docstore.cache.misses")
		c.size = reg.Gauge("docstore.cache.entries")
	}
	return c
}

// get returns the cached (shared, read-only) result for key at epoch. The
// key is a scratch buffer: the map lookup converts it without allocating.
func (c *queryCache) get(key []byte, epoch uint64) ([]Hit, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[string(key)]
	if !ok || epoch != c.epoch {
		c.mu.Unlock()
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	raw := el.Value.(*cacheEntry).raw
	c.mu.Unlock()
	c.hits.Inc()
	return raw, true
}

// put stores raw (snapshot-owned hits) for key at epoch, evicting from the
// LRU tail past capacity; an epoch later than the cache's drops every entry
// first. An earlier epoch stores nothing, and neither does a key a
// concurrent miss at the same epoch stored first, with the same answer. The
// key buffer is copied into a string here — the miss path is the only place
// a key allocates.
func (c *queryCache) put(key []byte, epoch uint64, raw []Hit) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if epoch > c.epoch {
		c.ll.Init()
		clear(c.entries)
		c.epoch = epoch
	}
	if _, ok := c.entries[string(key)]; ok || epoch < c.epoch {
		c.mu.Unlock()
		return
	}
	k := string(key) //lint:allow hotalloc miss path only: the key must outlive the caller's scratch buffer
	//lint:allow hotalloc miss path only: the entry is retained by the LRU list
	c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, raw: raw})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.entries, el.Value.(*cacheEntry).key)
	}
	c.size.Set(float64(len(c.entries)))
	c.mu.Unlock()
}

func (c *queryCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Cache keys are exact encodings — no hashing, so distinct queries can
// never collide into each other's results. Float parameters are encoded as
// raw IEEE-754 bits. Keys are appended into a pooled scratch buffer so the
// steady-state lookup allocates nothing.

// appendTextKey encodes a text ask. The local key (gs == nil) is the
// query, a NUL and k in decimal, unchanged since the cache was added. A
// global ask scores under figures the router supplied, so its key carries
// every one of them — document total, then each term with its frequency —
// with a length before every string: {"ab"},{1} and {"a","b"},{1,…} can
// never encode alike. The first byte keeps the two families apart. What the
// router assumed of this store goes last, each array under its own length:
// an entry is found again only under the assumption it was checked for.
func appendTextKey(dst []byte, query string, k int, gs *GlobalStats) []byte {
	if gs == nil {
		dst = append(dst, 't', 0)
		dst = append(dst, query...)
		dst = append(dst, 0)
		return strconv.AppendInt(dst, int64(k), 10)
	}
	dst = append(dst, 'g')
	dst = binary.AppendUvarint(dst, uint64(len(query)))
	dst = append(dst, query...)
	dst = binary.AppendVarint(dst, int64(k))
	dst = binary.AppendUvarint(dst, gs.TotalDocs)
	dst = binary.AppendUvarint(dst, uint64(len(gs.Terms)))
	for i, t := range gs.Terms {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		dst = append(dst, t...)
		dst = binary.AppendUvarint(dst, gs.dfAt(i))
	}
	if a := gs.Assumed; a != nil {
		dst = binary.AppendUvarint(dst, a.Docs)
		dst = binary.AppendUvarint(dst, uint64(len(a.DF)))
		for _, df := range a.DF {
			dst = binary.AppendUvarint(dst, df)
		}
		dst = binary.AppendUvarint(dst, uint64(len(a.MaxRatio)))
		for _, r := range a.MaxRatio {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r))
		}
	}
	return dst
}

// tokenMemoCap bounds the tokenization memo.
const tokenMemoCap = 256

// tokenMemo caches Tokenize results for repeated query strings. Token
// slices are returned shared and must be treated as read-only — every
// consumer (searchCompiled) only reads them. Eviction drops an arbitrary
// entry: the memo is a small hot-set cache, not an LRU.
type tokenMemo struct {
	mu   sync.Mutex
	m    map[string][]string
	hits *telemetry.Counter
}

func newTokenMemo(reg *telemetry.Registry) *tokenMemo {
	tm := &tokenMemo{m: make(map[string][]string)}
	if reg != nil {
		tm.hits = reg.Counter("docstore.tokens.memo.hits")
	}
	return tm
}

func (tm *tokenMemo) tokenize(query string) []string {
	tm.mu.Lock()
	if toks, ok := tm.m[query]; ok {
		tm.mu.Unlock()
		tm.hits.Inc()
		return toks
	}
	tm.mu.Unlock()
	toks := feature.Tokenize(query)
	tm.mu.Lock()
	if len(tm.m) >= tokenMemoCap {
		for k := range tm.m {
			delete(tm.m, k)
			break
		}
	}
	tm.m[query] = toks
	tm.mu.Unlock()
	return toks
}
