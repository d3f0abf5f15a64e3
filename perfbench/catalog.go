package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"snipe/internal/core"
	"snipe/internal/rcds"
)

const (
	attrOwner      = "owner" // preloaded, never written by the workload
	attrLoad       = "load"  // the attribute the workload's Sets write
	preloadWriters = 16
)

// catalogCluster is a sharded catalog of spec.groups groups of 2
// master–master replicas, reached through the production client
// (shard routing plus read cache) that core.Universe builds.
type catalogCluster struct {
	spec workloadSpec
	seed int64
	u    *core.Universe
	rc   *rcds.Client
	perm []int // Zipf rank → URI index

	mu      sync.Mutex
	written map[string]map[int]string // uri → caller → last value it wrote
}

func catURI(i int) string { return fmt.Sprintf("snipe://files/perfbench/%08d", i) }

// ownerOf is the preloaded owner attribute of URI i under seed.
func ownerOf(seed int64, i int) string {
	return fmt.Sprintf("host-%d", (int64(i)*7919+seed)%977)
}

func newCatalogCluster(spec workloadSpec, seed int64) (cluster, error) {
	u, err := core.New(core.Config{RCServers: 2, RCShardGroups: spec.groups})
	if err != nil {
		return nil, err
	}
	c := &catalogCluster{
		spec: spec, seed: seed, u: u, rc: catalogClient(u),
		perm:    rankOrder(seed, spec.uris, u.ShardMap()),
		written: make(map[string]map[int]string),
	}
	if err := c.preload(); err != nil {
		c.close()
		return nil, err
	}
	if err := c.converge(60 * time.Second); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// rankOrder maps Zipf ranks to URI indexes. Ranks alternate between
// the shard groups, so every seed loads each group alike; the seed picks
// which of a group's URIs holds each rank.
func rankOrder(seed int64, uris int, m *rcds.ShardMap) []int {
	rng := rand.New(rand.NewSource(seed))
	byGroup := make([][]int, m.NumShards())
	for i := 0; i < uris; i++ {
		g := m.Owner(catURI(i))
		byGroup[g] = append(byGroup[g], i)
	}
	for _, idx := range byGroup {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	}
	order := make([]int, 0, uris)
	for r := 0; len(order) < uris; r++ {
		for _, idx := range byGroup {
			if r < len(idx) {
				order = append(order, idx[r])
			}
		}
	}
	return order
}

// preload writes every URI's owner attribute through the client.
func (c *catalogCluster) preload() error {
	errs := make(chan error, preloadWriters)
	var wg sync.WaitGroup
	for w := 0; w < preloadWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < c.spec.uris; i += preloadWriters {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				err := c.rc.Set(ctx, catURI(i), attrOwner, ownerOf(c.seed, i))
				cancel()
				if err != nil {
					errs <- fmt.Errorf("preload %s: %w", catURI(i), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// converge waits until every group's replicas agree: each version
// vector dominates the other and the content hashes match. Vector
// dominance comes first because equal hashes alone can pass
// coincidentally while replicas are still mid-sync.
func (c *catalogCluster) converge(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		lagging := -1
		for g, srvs := range c.u.RCGroups() {
			if !groupConverged(srvs) {
				lagging = g
				break
			}
		}
		if lagging < 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("catalog group %d did not converge within %v", lagging, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func groupConverged(srvs []*rcds.Server) bool {
	v0 := srvs[0].Store().Vector()
	for _, s := range srvs[1:] {
		v := s.Store().Vector()
		if !v.Dominates(v0) || !v0.Dominates(v) {
			return false
		}
	}
	h0 := srvs[0].Store().ContentHash()
	for _, s := range srvs[1:] {
		if s.Store().ContentHash() != h0 {
			return false
		}
	}
	return true
}

func (c *catalogCluster) close() { c.u.Close() }

// catCaller draws Zipf(s) keys and issues Gets and Sets in the spec's mix.
type catCaller struct {
	c    *catalogCluster
	id   int
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

func (c *catalogCluster) newCaller(id int) caller {
	rng := rand.New(rand.NewSource(c.seed*1_000_003 + int64(id)))
	return &catCaller{c: c, id: id, rng: rng, zipf: rand.NewZipf(rng, c.spec.zipfS, 1, uint64(c.spec.uris-1))}
}

// next draws the caller's next operation.
func (cc *catCaller) next() (kind, idx int) {
	idx = cc.c.perm[cc.zipf.Uint64()]
	if cc.rng.Float64() < cc.c.spec.setShare {
		return kindSet, idx
	}
	return kindGet, idx
}

func (cc *catCaller) op(ctx context.Context, tr *tracer) (int, int, error) {
	kind, idx := cc.next()
	uri := catURI(idx)
	var root uint64
	var start int64
	if tr != nil {
		root, start = tr.open()
		defer func() { tr.finish(root, 0, root, "op", "bench", start) }()
	}
	if kind == kindSet {
		cc.n++
		val := fmt.Sprintf("c%d-%d", cc.id, cc.n)
		set := func() error { return cc.c.rc.Set(ctx, uri, attrLoad, val) }
		var err error
		if tr != nil {
			err = tr.do(root, root, "Client.Set", "rcds.client", set)
		} else {
			err = set()
		}
		if err == nil {
			cc.c.noteWrite(cc.id, uri, val)
		}
		return kindSet, len(uri) + len(attrLoad) + len(val), err
	}
	var as []rcds.Assertion
	get := func() (err error) { as, err = cc.c.rc.Get(ctx, uri); return err }
	var err error
	if tr != nil {
		err = tr.do(root, root, "Client.Get", "rcds.client", get)
	} else {
		err = get()
	}
	if err == nil && !hasValue(as, attrOwner, ownerOf(cc.c.seed, idx)) {
		err = fmt.Errorf("%w: %s lacks its preloaded %s", errWrongResponse, uri, attrOwner)
	}
	return kindGet, len(uri), err
}

func hasValue(as []rcds.Assertion, name, value string) bool {
	for _, a := range as {
		if a.Name == name && a.Value == value && !a.Deleted {
			return true
		}
	}
	return false
}

// noteWrite records a caller's latest write to uri, for check.
func (c *catalogCluster) noteWrite(caller int, uri, val string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.written[uri]
	if m == nil {
		m = make(map[int]string)
		c.written[uri] = m
	}
	m[caller] = val
}

// check quiesces the catalog, requires every group to converge, and
// requires each written URI to hold, on every replica, one of the
// callers' last writes to it. Each wrong URI counts as one failure.
func (c *catalogCluster) check() (int, error) {
	if err := c.converge(30 * time.Second); err != nil {
		return 1, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	groups := c.u.RCGroups()
	m := c.u.ShardMap()
	failed := 0
	var firstErr error
	for uri, lasts := range c.written {
		for _, s := range groups[m.Owner(uri)] {
			v, ok := s.Store().FirstValue(uri, attrLoad)
			if !ok || !isLastWrite(lasts, v) {
				failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("%s holds %s=%q on %s, not a last write", uri, attrLoad, v, s.Store().Origin())
				}
				break
			}
		}
	}
	return failed, firstErr
}

func isLastWrite(lasts map[int]string, v string) bool {
	for _, w := range lasts {
		if w == v {
			return true
		}
	}
	return false
}

func (c *catalogCluster) counters() counterSet {
	return readCounters(nil, c.u.RCGroups(), c.rc)
}
