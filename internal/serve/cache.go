package serve

import (
	"sync"

	"repro/internal/apps"
)

// appCache is the LRU of built applications (synthesized scene plus
// constructed app), keyed by JobSpec.ModelKey. The serving assumption
// is many users, few distinct models, so sequential jobs against the
// same model should pay scene synthesis and app construction once. It
// does not cache compiled potential tables: every app's Model()
// returns a fresh *mrf.Model, so core.Solve compiles on every job.
//
// Instances are *checked out*, not shared: a Get removes the instance
// from the cache and hands the caller exclusive ownership for the
// duration of the solve (models carry mutable compiled-table state —
// anneal retunes the rate LUT in place — so concurrent sharing would
// race). Put returns it. Two concurrent jobs on the same model simply
// build a second instance; the steady-state win is the sequential case.
type appCache struct {
	mu      sync.Mutex
	max     int
	idle    map[string][]apps.App
	order   []string // key LRU, least recent first; one entry per idle instance
	hits    int64
	misses  int64
	evicted int64
}

func newAppCache(max int) *appCache {
	return &appCache{max: max, idle: map[string][]apps.App{}}
}

// Get checks out an idle instance for key, or returns nil on a miss.
func (c *appCache) Get(key string) apps.App {
	if c == nil || c.max <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pool := c.idle[key]
	if len(pool) == 0 {
		c.misses++
		return nil
	}
	app := pool[len(pool)-1]
	c.idle[key] = pool[:len(pool)-1]
	c.removeOrderEntry(key)
	c.hits++
	return app
}

// Put checks an instance back in, evicting the least-recently-used
// instance past capacity.
func (c *appCache) Put(key string, app apps.App) {
	if c == nil || c.max <= 0 || app == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idle[key] = append(c.idle[key], app)
	c.order = append(c.order, key)
	for len(c.order) > c.max {
		victim := c.order[0]
		c.order = c.order[1:]
		pool := c.idle[victim]
		if len(pool) == 0 {
			continue
		}
		c.idle[victim] = pool[:len(pool)-1]
		c.evicted++
	}
}

// removeOrderEntry drops one LRU entry for key (the most recent one —
// Get pops the most recently returned instance).
func (c *appCache) removeOrderEntry(key string) {
	for i := len(c.order) - 1; i >= 0; i-- {
		if c.order[i] == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// Stats returns cumulative hit/miss/eviction counts.
func (c *appCache) Stats() (hits, misses, evicted int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted
}
