package rcds

import (
	"context"
	"fmt"
	"testing"
	"time"

	"snipe/internal/testutil"
)

// cacheCounter reads one of c's cache counters.
func cacheCounter(c *Client, name string) uint64 {
	return c.MetricsSnapshot().Counters[name]
}

// warmCached reads (uri, name) through c until a read is served from
// the cache, failing if the value is ever not want.
func warmCached(t *testing.T, c *Client, uri, name, want string) {
	t.Helper()
	testutil.WaitFor(t, 5*time.Second, func() bool {
		before := cacheCounter(c, "cache_hits")
		v, ok, err := c.FirstValue(context.Background(), uri, name)
		if err != nil || !ok || v != want {
			t.Fatalf("FirstValue(%s) = %q %v %v, want %q", uri, v, ok, err, want)
		}
		return cacheCounter(c, "cache_hits") > before
	}, "read of "+uri+" never served from the cache")
}

// waitValue reads (uri, name) through c until it returns want.
func waitValue(t *testing.T, c *Client, uri, name, want string) {
	t.Helper()
	testutil.WaitFor(t, 5*time.Second, func() bool {
		v, _, err := c.FirstValue(context.Background(), uri, name)
		if err != nil {
			t.Fatalf("FirstValue(%s): %v", uri, err)
		}
		return v == want
	}, "read of "+uri+" never reached "+want)
}

// TestCacheEvictsOnlyChangedURI: another client's write to A evicts A
// from the reader's cache, and a cached B keeps serving hits.
func TestCacheEvictsOnlyChangedURI(t *testing.T) {
	s := startTestServer(t, "evict", 0)
	writer := NewClient([]string{s.Addr()}, nil)
	defer writer.Close()
	reader := NewClient([]string{s.Addr()}, nil, WithReadCache())
	defer reader.Close()
	ctx := context.Background()

	for _, uri := range []string{"urn:a", "urn:b"} {
		if err := writer.Set(ctx, uri, "k", "v1"); err != nil {
			t.Fatal(err)
		}
	}
	warmCached(t, reader, "urn:a", "k", "v1")
	warmCached(t, reader, "urn:b", "k", "v1")

	if err := writer.Set(ctx, "urn:a", "k", "v2"); err != nil {
		t.Fatal(err)
	}
	waitValue(t, reader, "urn:a", "k", "v2")

	misses := cacheCounter(reader, "cache_misses")
	for i := 0; i < 10; i++ {
		if v, _, err := reader.FirstValue(ctx, "urn:b", "k"); err != nil || v != "v1" {
			t.Fatalf("urn:b = %q %v, want v1", v, err)
		}
	}
	if got := cacheCounter(reader, "cache_misses"); got != misses {
		t.Fatalf("write to urn:a cost urn:b its cached read: %d misses, want %d", got, misses)
	}
}

// TestStoreChangeRing checks the store's answer to "what changed since
// v": exact while the ring reaches back to v and the list fits, and
// incomplete once more changes than the ring holds have happened, the
// list outgrows its cap, or v is ahead of the store.
func TestStoreChangeRing(t *testing.T) {
	s := NewStore("ring")
	s.Set("urn:x", "k", "1")
	s.Set("urn:y", "k", "1")
	s.Set("urn:y", "k", "2") // tombstone + new value: two versions, one URI
	v, uris, complete := s.WaitChanges(0, 0, nil, 10)
	if v != 4 || !complete || fmt.Sprint(uris) != "[urn:x urn:y]" {
		t.Fatalf("WaitChanges(0) = %d %v %v, want 4 [urn:x urn:y] complete", v, uris, complete)
	}
	if _, uris, complete := s.WaitChanges(1, 0, nil, 10); !complete || fmt.Sprint(uris) != "[urn:y]" {
		t.Fatalf("WaitChanges(1) = %v %v, want [urn:y] complete", uris, complete)
	}
	if _, _, complete := s.WaitChanges(0, 0, nil, 1); complete {
		t.Fatal("a list longer than max reported complete")
	}
	if _, _, complete := s.WaitChanges(v+1, 0, nil, 10); complete {
		t.Fatal("a since ahead of the store reported complete")
	}

	since := s.Version()
	for i := 0; i <= changeRing; i++ {
		s.Set(fmt.Sprintf("urn:r%d", i), "k", "v")
	}
	if _, _, complete := s.WaitChanges(since, 0, nil, 2*changeRing); complete {
		t.Fatalf("%d changes past since reported complete with a %d-entry ring", changeRing+1, changeRing)
	}
	if _, uris, complete := s.WaitChanges(since+1, 0, nil, 2*changeRing); !complete || len(uris) != changeRing {
		t.Fatalf("exactly a ring of changes: %d URIs complete=%v, want %d complete", len(uris), complete, changeRing)
	}
}

// TestCacheRingOverflowFlushes: when more changes than the server's
// ring holds land between two polls, the watch cannot name them and
// must flush the whole cache — a cached URI the burst did not touch
// misses afterwards — and no read is ever stale.
func TestCacheRingOverflowFlushes(t *testing.T) {
	s := startTestServer(t, "overflow", 0)
	writer := NewClient([]string{s.Addr()}, nil)
	defer writer.Close()
	reader := NewClient([]string{s.Addr()}, nil, WithReadCache())
	defer reader.Close()
	ctx := context.Background()

	for _, uri := range []string{"urn:hot", "urn:idle"} {
		if err := writer.Set(ctx, uri, "k", "v1"); err != nil {
			t.Fatal(err)
		}
	}
	warmCached(t, reader, "urn:hot", "k", "v1")
	warmCached(t, reader, "urn:idle", "k", "v1")

	// One ApplyRemote holds the store lock for the whole burst, so the
	// watch's next poll sees every change at once.
	burst := make([]Assertion, 0, changeRing+2)
	for i := 0; i <= changeRing; i++ {
		burst = append(burst, Assertion{URI: fmt.Sprintf("urn:burst%d", i), Name: "k", Value: "v",
			Clock: uint64(100 + i), Origin: "peer", Seq: uint64(i + 1)})
	}
	burst = append(burst, Assertion{URI: "urn:hot", Name: "k", Value: "v2",
		Clock: uint64(101 + changeRing), Origin: "peer", Seq: uint64(changeRing + 2)})
	if n := s.Store().ApplyRemote(burst); n != len(burst) {
		t.Fatalf("burst applied %d of %d ops", n, len(burst))
	}

	// The reader must converge on urn:hot's new value; every read on
	// the way is either the old value (watch not yet caught up) or the
	// new one, and once the new one is seen it never reverts.
	seen := false
	testutil.WaitFor(t, 5*time.Second, func() bool {
		as, err := reader.Get(ctx, "urn:hot")
		if err != nil {
			t.Fatal(err)
		}
		has := hasLive(as, "k", "v2")
		if seen && !has {
			t.Fatalf("stale read of urn:hot after the new value was seen: %v", as)
		}
		seen = seen || has
		return has
	}, "urn:hot never showed the burst's write")

	misses := cacheCounter(reader, "cache_misses")
	if v, _, err := reader.FirstValue(ctx, "urn:idle", "k"); err != nil || v != "v1" {
		t.Fatalf("urn:idle = %q %v, want v1", v, err)
	}
	if cacheCounter(reader, "cache_misses") == misses {
		t.Fatal("urn:idle still served from the cache after a ring overflow; want a full flush")
	}
}

func hasLive(as []Assertion, name, value string) bool {
	for _, a := range as {
		if a.Name == name && a.Value == value && !a.Deleted {
			return true
		}
	}
	return false
}

// TestCacheDiscardsFillAcrossInvalidation: a fill whose read was issued
// before its URI was invalidated — by the watch or by an own write —
// or before a flush must not be stored; a fill of a URI in another
// guard slot is unaffected.
func TestCacheDiscardsFillAcrossInvalidation(t *testing.T) {
	const uri = "urn:inflight"
	other := ""
	for i := 0; other == ""; i++ {
		if u := fmt.Sprintf("urn:other%d", i); guardSlot(u) != guardSlot(uri) {
			other = u
		}
	}
	stale := []Assertion{{URI: uri, Name: "k", Value: "old"}}
	for _, tc := range []struct {
		name       string
		perURI     bool // evicts uri alone, not the whole cache
		invalidate func(rc *readCache)
	}{
		{"watch eviction", true, func(rc *readCache) { rc.advance(1, waitReply{version: 2, complete: true, uris: []string{uri}}) }},
		{"own write", true, func(rc *readCache) { rc.invalidateURI(uri) }},
		{"incomplete reply", false, func(rc *readCache) { rc.advance(1, waitReply{version: 2}) }},
		{"watch error", false, func(rc *readCache) { rc.invalidateAll(); rc.advance(1, waitReply{version: 1, complete: true}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := newReadCache()
			rc.advance(0, waitReply{version: 1, complete: true})
			_, tok, hit := rc.lookupGet(uri)
			_, otherTok, _ := rc.lookupGet(other)
			if hit {
				t.Fatal("hit in an empty cache")
			}
			tc.invalidate(rc)
			rc.storeGet(uri, stale, tok)
			if as, _, hit := rc.lookupGet(uri); hit {
				t.Fatalf("fill straddling the invalidation was stored: %v", as)
			}
			if tc.perURI {
				rc.storeGet(other, stale, otherTok)
				if _, _, hit := rc.lookupGet(other); !hit {
					t.Fatal("eviction of one URI discarded a fill of a URI in another slot")
				}
			}
			// A fill issued after the invalidation is kept.
			_, tok, _ = rc.lookupGet(uri)
			rc.storeGet(uri, stale, tok)
			if _, _, hit := rc.lookupGet(uri); !hit {
				t.Fatal("fill issued after the invalidation was dropped")
			}
		})
	}
}

// TestCacheAtBound: filling more URIs than the cache holds evicts
// others rather than dropping the new fill, never exceeds the bound,
// and every read stays correct — including after a foreign write to a
// URI that is cached.
func TestCacheAtBound(t *testing.T) {
	rc := newReadCache()
	rc.advance(0, waitReply{version: 1, complete: true})
	for i := 0; i < maxCacheEntries+100; i++ {
		uri := fmt.Sprintf("urn:bound%d", i)
		_, tok, _ := rc.lookupValues(uri, "k")
		rc.storeValues(uri, "k", []string{uri}, tok)
		if vals, _, hit := rc.lookupValues(uri, "k"); !hit || len(vals) != 1 || vals[0] != uri {
			t.Fatalf("fill %d not served: %v %v", i, vals, hit)
		}
		if rc.n > maxCacheEntries || rc.n != countReads(rc) {
			t.Fatalf("after fill %d: n=%d, %d reads held, bound %d", i, rc.n, countReads(rc), maxCacheEntries)
		}
	}

	s := startTestServer(t, "bound", 0)
	writer := NewClient([]string{s.Addr()}, nil)
	defer writer.Close()
	reader := NewClient([]string{s.Addr()}, nil, WithReadCache())
	defer reader.Close()
	ctx := context.Background()
	const n = maxCacheEntries + 500
	for i := 0; i < n; i++ {
		s.Store().Set(fmt.Sprintf("urn:b%d", i), "k", "v1")
	}
	warmCached(t, reader, "urn:b0", "k", "v1")
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			uri := fmt.Sprintf("urn:b%d", i)
			if v, ok, err := reader.FirstValue(ctx, uri, "k"); err != nil || !ok || v != "v1" {
				t.Fatalf("round %d: %s = %q %v %v", round, uri, v, ok, err)
			}
		}
	}
	if hits := cacheCounter(reader, "cache_hits"); hits == 0 {
		t.Fatal("no read served from a cache at its bound")
	}
	last := fmt.Sprintf("urn:b%d", n-1)
	warmCached(t, reader, last, "k", "v1")
	if err := writer.Set(ctx, last, "k", "v2"); err != nil {
		t.Fatal(err)
	}
	waitValue(t, reader, last, "k", "v2")
}

func countReads(rc *readCache) int {
	n := 0
	for _, reads := range rc.entries {
		n += len(reads)
	}
	return n
}
