package diskstore

import (
	"container/list"
	"strings"
	"sync"

	"hana/internal/value"
)

type cacheKey struct {
	table string
	chunk int
	col   int
}

// chunkCache is a small LRU cache of decoded column chunks — the extended
// store's buffer cache. Capacity is in chunks, not bytes, which is accurate
// enough for fixed chunk sizes. A cached vector is shared by every batch
// that reads its chunk, and nobody writes to it.
type chunkCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	vec *value.Vec
}

func newChunkCache(capacity int) *chunkCache {
	return &chunkCache{cap: capacity, ll: list.New(), items: map[cacheKey]*list.Element{}}
}

func (c *chunkCache) get(k cacheKey) (*value.Vec, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).vec, true
}

func (c *chunkCache) put(k cacheKey, vec *value.Vec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).vec = vec
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: k, vec: vec})
	c.items[k] = el
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// dropTable evicts every chunk of a table (after drop or compaction).
func (c *chunkCache) dropTable(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, el := range c.items {
		if strings.EqualFold(k.table, table) {
			c.ll.Remove(el)
			delete(c.items, k)
		}
	}
}
