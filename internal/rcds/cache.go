package rcds

import (
	"context"
	"errors"
	"hash/maphash"
	"sync"
	"time"
)

// Read-cache coherence (see DESIGN.md):
//
// A watch goroutine rides the server's Wait long-poll. While the watch
// is healthy the cache serves Get/Values/FirstValue locally. Each poll
// reply names the URIs that changed since the previous one — any write,
// anywhere in the replica group, that reached our server — and exactly
// those URIs are evicted; the next read of one refetches. The whole
// cache is flushed instead when the reply cannot vouch for its list:
// the server's change ring no longer reaches back to the previous
// version, the version went backwards, or the cache was disabled since
// the last poll (the first poll, a watch error, a failover: a new
// replica's version numbering is not comparable to the old one's).
// A watch error or a replica failover empties the cache and disables
// it until the watch re-establishes, so a partitioned client never
// serves stale reads forever. Reads are therefore stale by at most one
// Wait notification latency, and a read issued after the watch has
// seen a write's version reflects that write.
//
// Fills are guarded: a response that was in flight across an eviction
// of its URI, or across a flush, must not repopulate the cache with
// older data. Each fill carries a token read when the request was
// issued — the flush epoch and the generation of the URI's slot in a
// fixed, URI-hashed table that every eviction bumps — and is discarded
// if either moved. Slots are shared, so an eviction may also discard an
// unrelated fill; it never lets a stale one through.

// watchPoll is the server-side long-poll window of the watch loop.
const watchPoll = 2 * time.Second

// watchRetry is how long the watch backs off after an error before
// re-establishing.
const watchRetry = 100 * time.Millisecond

// maxCacheEntries bounds the number of reads the cache holds; a fill at
// the bound evicts an arbitrary cached URI to make room.
const maxCacheEntries = 4096

// fillGuards is the size of the URI-hashed generation table guarding
// fills.
const fillGuards = 1024

type cacheKind uint8

const (
	kindGet cacheKind = iota
	kindValues
	kindFirst
)

// cacheKey names one cached read of a URI.
type cacheKey struct {
	kind cacheKind
	name string
}

type cacheVal struct {
	assertions []Assertion // kindGet
	values     []string    // kindValues
	value      string      // kindFirst
	ok         bool        // kindFirst: value present
}

type cachedRead struct {
	key cacheKey
	val cacheVal
}

// fillToken is what a fill must still match when it is stored.
type fillToken struct {
	epoch uint64
	gen   uint64
}

// guardSeed keys the fill-guard hash; any seed works, one per process.
var guardSeed = maphash.MakeSeed()

func guardSlot(uri string) int { return int(maphash.String(guardSeed, uri) % fillGuards) }

// readCache is the client-side read cache, indexed by URI. valid is
// true only while the watch loop is confirming coherence; epoch moves
// on every whole-cache flush and gens[guardSlot(uri)] on every eviction
// of uri, so fills that straddle either are discarded.
type readCache struct {
	mu      sync.Mutex
	valid   bool
	epoch   uint64
	gens    [fillGuards]uint64
	entries map[string][]cachedRead // uri → its cached reads
	n       int                     // reads held across all URIs
}

func newReadCache() *readCache {
	return &readCache{entries: make(map[string][]cachedRead)}
}

// flushLocked empties the cache and discards every in-flight fill.
// Caller holds rc.mu.
func (rc *readCache) flushLocked() {
	rc.epoch++
	rc.entries = make(map[string][]cachedRead)
	rc.n = 0
}

// dropLocked forgets uri's cached reads. Caller holds rc.mu.
func (rc *readCache) dropLocked(uri string) {
	rc.n -= len(rc.entries[uri])
	delete(rc.entries, uri)
}

// evictLocked invalidates uri: its cached reads and every fill of it
// already in flight. Caller holds rc.mu.
func (rc *readCache) evictLocked(uri string) {
	rc.gens[guardSlot(uri)]++
	rc.dropLocked(uri)
}

// invalidateAll empties and disables the cache until the watch loop
// re-enables it (watch error, replica failover).
func (rc *readCache) invalidateAll() {
	rc.mu.Lock()
	rc.flushLocked()
	rc.valid = false
	rc.mu.Unlock()
}

// invalidateURI drops every cached read of uri (a write through this
// client), preserving read-your-writes ahead of the watch notification.
func (rc *readCache) invalidateURI(uri string) {
	rc.mu.Lock()
	rc.evictLocked(uri)
	rc.mu.Unlock()
}

// advance applies one successful watch poll that asked from since and
// re-enables serving: it evicts the URIs the reply names, or flushes
// everything when the reply cannot vouch for its list. A cache that is
// not valid — never enabled, or disabled since the last poll — is
// always flushed: a fill issued meanwhile may have read another
// replica, whose changes a list relative to since does not describe.
func (rc *readCache) advance(since uint64, r waitReply) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if !rc.valid || r.version < since || !r.complete {
		rc.flushLocked()
	} else {
		for _, uri := range r.uris {
			rc.evictLocked(uri)
		}
	}
	rc.valid = true
}

// lookup returns the cached read k of uri, or on a miss the token the
// fill must carry; the caller issues its remote read after this.
func (rc *readCache) lookup(uri string, k cacheKey) (cacheVal, fillToken, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.valid {
		for _, r := range rc.entries[uri] {
			if r.key == k {
				return r.val, fillToken{}, true
			}
		}
	}
	return cacheVal{}, fillToken{rc.epoch, rc.gens[guardSlot(uri)]}, false
}

func (rc *readCache) store(uri string, k cacheKey, v cacheVal, tok fillToken) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if !rc.valid || tok != (fillToken{rc.epoch, rc.gens[guardSlot(uri)]}) {
		return
	}
	reads := rc.entries[uri]
	for i := range reads {
		if reads[i].key == k {
			reads[i].val = v
			return
		}
	}
	for rc.n >= maxCacheEntries {
		for victim := range rc.entries { // map order: an arbitrary URI
			rc.dropLocked(victim)
			break
		}
	}
	rc.entries[uri] = append(rc.entries[uri], cachedRead{key: k, val: v})
	rc.n++
}

func (rc *readCache) lookupGet(uri string) ([]Assertion, fillToken, bool) {
	v, tok, ok := rc.lookup(uri, cacheKey{kind: kindGet})
	if !ok {
		return nil, tok, false
	}
	return append([]Assertion(nil), v.assertions...), tok, true
}

func (rc *readCache) storeGet(uri string, as []Assertion, tok fillToken) {
	rc.store(uri, cacheKey{kind: kindGet},
		cacheVal{assertions: append([]Assertion(nil), as...)}, tok)
}

func (rc *readCache) lookupValues(uri, name string) ([]string, fillToken, bool) {
	v, tok, ok := rc.lookup(uri, cacheKey{kind: kindValues, name: name})
	if !ok {
		return nil, tok, false
	}
	return append([]string(nil), v.values...), tok, true
}

func (rc *readCache) storeValues(uri, name string, vals []string, tok fillToken) {
	rc.store(uri, cacheKey{kind: kindValues, name: name},
		cacheVal{values: append([]string(nil), vals...)}, tok)
}

func (rc *readCache) lookupFirst(uri, name string) (string, bool, fillToken, bool) {
	v, tok, ok := rc.lookup(uri, cacheKey{kind: kindFirst, name: name})
	if !ok {
		return "", false, tok, false
	}
	return v.value, v.ok, tok, true
}

func (rc *readCache) storeFirst(uri, name, value string, present bool, tok fillToken) {
	rc.store(uri, cacheKey{kind: kindFirst, name: name},
		cacheVal{value: value, ok: present}, tok)
}

// watchLoop keeps one replica group's read cache coherent: it
// long-polls that group's catalog version and evicts the group's cached
// reads of every URI that changed (see advance). The poll itself
// multiplexes over the group's shared connection, so watching costs no
// dedicated connection and never blocks lookups. Under shard routing
// every group runs its own watchLoop — the coherence rule is per
// group, matching the per-group version streams.
func (c *Client) watchLoop(ctx context.Context, g *replicaGroup) {
	defer c.wg.Done()
	var since uint64
	for {
		if ctx.Err() != nil {
			return
		}
		pollCtx, cancel := context.WithTimeout(ctx, watchPoll+c.pollTimeout())
		r, err := c.waitOn(pollCtx, g, since, watchPoll, maxWatchURIs)
		cancel()
		if err != nil {
			// Cannot confirm coherence; stop serving cached reads until
			// the watch re-establishes.
			g.cache.invalidateAll()
			if errors.Is(err, ErrClientClosed) {
				// Close() or a map change has begun retiring this group;
				// don't redial while the client waits on wg.
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(watchRetry):
			}
			continue
		}
		g.cache.advance(since, r)
		since = r.version
	}
}

func (c *Client) pollTimeout() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timeout
}
