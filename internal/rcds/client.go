package rcds

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snipe/internal/stats"
	"snipe/internal/xdr"
)

// errConnBroken marks a request whose connection died before the
// response arrived; roundTrip re-issues such requests against the next
// replica.
var errConnBroken = errors.New("rcds: connection broken")

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("rcds: client closed")

// wrongShardRetries bounds how many times a routed op re-resolves the
// shard map after a wrong-shard redirect before giving up. Two covers
// the common case (stale map, one refresh); the third absorbs a map
// that changes again mid-retry.
const wrongShardRetries = 3

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithReadCache enables the client-side read cache: Get, Values and
// FirstValue results are served locally and invalidated by a watch
// goroutine riding the server's Wait long-poll sequence numbers, so
// repeated resolves of stable URNs cost zero round trips. Under shard
// routing every replica group gets its own cache and watch, so the
// coherence rule holds per group. See DESIGN.md for the coherence rule.
func WithReadCache() ClientOption {
	return func(c *Client) { c.cacheOn = true }
}

// WithTimeout sets the initial per-request dial/IO timeout.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithShardRouting makes the client route URI-keyed operations to the
// owning replica group under the catalog's shard map (DESIGN.md
// "Sharded catalog"). The map is resolved once from the seed replicas
// (the addresses NewClient was given), cached, and re-resolved whenever
// a server answers with a wrong-shard redirect. Without this option —
// and with it, when no map is published — every operation goes to the
// seed replicas, exactly as before sharding existed.
func WithShardRouting() ClientOption {
	return func(c *Client) { c.routing = true }
}

// call is one in-flight request awaiting its response frame.
type call struct {
	ch chan callResult
}

type callResult struct {
	body []byte
	err  error
}

// clientConn is one multiplexed connection to a replica: a writer lock
// serialises frame writes, a reader goroutine demultiplexes responses
// to pending calls by request ID.
type clientConn struct {
	c      net.Conn
	secret []byte

	writeMu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]*call
	broken  bool
	err     error
}

// register records a pending call for id.
func (cc *clientConn) register(id uint64) (*call, error) {
	cl := &call{ch: make(chan callResult, 1)}
	cc.mu.Lock()
	if cc.broken {
		err := cc.err
		cc.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", errConnBroken, err)
	}
	cc.pending[id] = cl
	cc.mu.Unlock()
	return cl, nil
}

// unregister abandons a pending call (context expiry); a late response
// for the id is discarded by the read loop.
func (cc *clientConn) unregister(id uint64) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

// fail marks the connection dead and completes every pending call with
// errConnBroken so waiters can fail over.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.broken {
		cc.mu.Unlock()
		return
	}
	cc.broken = true
	cc.err = err
	pending := cc.pending
	cc.pending = make(map[uint64]*call)
	cc.mu.Unlock()
	cc.c.Close()
	for _, cl := range pending {
		cl.ch <- callResult{err: fmt.Errorf("%w: %v", errConnBroken, err)}
	}
}

// readLoop demultiplexes response frames to their pending calls.
func (cc *clientConn) readLoop() {
	for {
		frame, err := readFrame(cc.c, cc.secret)
		if err != nil {
			cc.fail(err)
			return
		}
		id, body, err := splitMux(frame)
		if err != nil {
			cc.fail(err)
			return
		}
		cc.mu.Lock()
		cl, ok := cc.pending[id]
		delete(cc.pending, id)
		cc.mu.Unlock()
		if ok {
			cl.ch <- callResult{body: body}
		}
	}
}

// writeRequest frames and writes one request under the writer lock.
func (cc *clientConn) writeRequest(id uint64, req []byte, deadline time.Time) error {
	cc.writeMu.Lock()
	defer cc.writeMu.Unlock()
	cc.c.SetWriteDeadline(deadline)
	// The writer lock is per-connection and guards nothing but this
	// write; a stalled peer stalls only requests multiplexed onto this
	// same connection, bounded by the write deadline above.
	return writeFrame(cc.c, muxBody(id, req), cc.secret) //lint:allow lockedio intentional per-connection writer lock, bounded by the write deadline

}

// replicaGroup is the client's connection state for one replica group:
// the addresses, the live multiplexed connection with its failover
// cursor, and (when caching is on) the group's own watch-coherent read
// cache. The unsharded client has exactly one of these — the seed
// group; shard routing adds one per group in the shard map.
type replicaGroup struct {
	addrs []string

	mu      sync.Mutex
	conn    *clientConn
	current int  // index into addrs of the (next) server
	closed  bool // retired (map superseded) or client closed

	cache     *readCache // nil = caching disabled
	watchStop context.CancelFunc
}

// Client talks to a set of RC server replicas. Because the registry is
// master–master, any replica can serve any request; the client fails
// over to the next replica when one is unreachable, which is how SNIPE
// clients ride out RC server crashes (the availability property of §6).
//
// Client is safe for concurrent use, and requests are multiplexed: any
// number of goroutines share one persistent connection per replica
// group, each request carrying a wire-level ID so responses are matched
// out of order. A slow request (a Wait long-poll, a large OpsSince)
// never blocks concurrent lookups. When a connection dies, unanswered
// requests are re-issued against the next replica.
//
// With WithShardRouting, URI-keyed operations are routed to the replica
// group owning the URI under the catalog's shard map; the caller-facing
// semantics of Get/Set/Wait and the read cache are unchanged.
type Client struct {
	secret []byte

	mu       sync.Mutex
	seed     *replicaGroup
	groups   []*replicaGroup // index = shard group id; nil until a map installs
	shard    *ShardMap       // installed shard map; nil = route everything to seed
	mapTried bool            // first resolution attempted (routing only)
	timeout  time.Duration
	closed   bool

	routing bool // WithShardRouting
	cacheOn bool // WithReadCache

	nextID   atomic.Uint64
	inflight atomic.Int64
	wg       sync.WaitGroup

	// Telemetry (see internal/stats); pointers captured at construction.
	metrics     *stats.Registry
	mRequests   *stats.Counter
	mFailovers  *stats.Counter
	mCacheHits  *stats.Counter
	mCacheMiss  *stats.Counter
	mWrongShard *stats.Counter
	mMapResolve *stats.Counter
	gInflight   *stats.Gauge
}

// NewClient returns a client over the given replica addresses. secret
// enables HMAC authentication and must match the servers'. Under shard
// routing, addrs are the seed replicas: any group whose config
// namespace carries the shard map.
func NewClient(addrs []string, secret []byte, opts ...ClientOption) *Client {
	c := &Client{
		secret:  secret,
		timeout: 5 * time.Second,
		metrics: stats.NewRegistry(),
	}
	c.mRequests = c.metrics.Counter("requests")
	c.mFailovers = c.metrics.Counter("failovers")
	c.mCacheHits = c.metrics.Counter("cache_hits")
	c.mCacheMiss = c.metrics.Counter("cache_misses")
	c.mWrongShard = c.metrics.Counter("wrong_shard_redirects")
	c.mMapResolve = c.metrics.Counter("shard_map_resolves")
	c.gInflight = c.metrics.Gauge("inflight")
	for _, o := range opts {
		o(c)
	}
	c.seed = c.newGroup(addrs)
	return c
}

// newGroup builds a replica group, starting its cache watch when the
// client caches reads.
func (c *Client) newGroup(addrs []string) *replicaGroup {
	g := &replicaGroup{addrs: append([]string(nil), addrs...)}
	if c.cacheOn {
		g.cache = newReadCache()
		ctx, cancel := context.WithCancel(context.Background())
		g.watchStop = cancel
		c.wg.Add(1)
		go c.watchLoop(ctx, g)
	}
	return g
}

// retireGroup stops a group's watch and breaks its connection; in-flight
// requests fail over and find the group refusing redials.
func retireGroup(g *replicaGroup) {
	if g.watchStop != nil {
		g.watchStop()
	}
	g.mu.Lock()
	g.closed = true
	conn := g.conn
	g.conn = nil
	g.mu.Unlock()
	if conn != nil {
		conn.fail(ErrClientClosed)
	}
}

// SetTimeout sets the per-request dial/IO timeout.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// Servers returns the configured seed replica addresses.
func (c *Client) Servers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.seed.addrs...)
}

// ReadCacheActive reports whether the client caches reads locally.
// naming.Resolver uses this to skip its own TTL cache and ride the
// client's watch-invalidated one instead.
func (c *Client) ReadCacheActive() bool { return c.cacheOn }

// ShardMap returns the shard map the client is currently routing with,
// or nil when it routes everything to the seed replicas.
func (c *Client) ShardMap() *ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shard
}

// Metrics returns the client's live metric registry.
func (c *Client) Metrics() *stats.Registry { return c.metrics }

// MetricsSnapshot captures the client's metrics — request, failover and
// cache counters plus the in-flight depth gauge. A daemon whose catalog
// is a remote Client composes this into its /stats output under the
// "rcds." prefix.
func (c *Client) MetricsSnapshot() stats.Snapshot {
	c.gInflight.Set(float64(c.inflight.Load()))
	return c.metrics.Snapshot()
}

// Close stops the watch goroutines and drops every connection.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	groups := append([]*replicaGroup{c.seed}, c.groups...)
	c.mu.Unlock()
	for _, g := range groups {
		retireGroup(g)
	}
	c.wg.Wait()
}

// seedGroup returns the seed replica group (the NewClient addresses).
func (c *Client) seedGroup() *replicaGroup {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seed
}

// route returns the replica group that should serve an operation on
// uri: the owning group under the installed shard map, or the seed
// group when routing is off, no map is installed, or the URI is in the
// globally served config namespace.
func (c *Client) route(uri string) *replicaGroup {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.routing || c.shard == nil || IsConfigURI(uri) {
		return c.seed
	}
	gid := c.shard.Owner(uri)
	if gid < 0 || gid >= len(c.groups) {
		return c.seed
	}
	return c.groups[gid]
}

// ensureShardMap performs the one-time shard-map bootstrap: the first
// routed operation resolves the map from the seed replicas. Absence of
// a published map is not an error — the client stays seed-routed, and a
// later wrong-shard redirect forces a re-resolve.
func (c *Client) ensureShardMap(ctx context.Context) error {
	c.mu.Lock()
	tried := c.mapTried
	c.mu.Unlock()
	if tried {
		return nil
	}
	err := c.resolveShardMap(ctx)
	c.mu.Lock()
	c.mapTried = true
	c.mu.Unlock()
	return err
}

// resolveShardMap reads the shard map from the seed group's config
// namespace and installs it if its epoch is newer than the current one.
func (c *Client) resolveShardMap(ctx context.Context) error {
	c.mMapResolve.Inc()
	d, err := c.roundTrip(ctx, c.seedGroup(), request(cmdFirst, func(e *xdr.Encoder) {
		e.PutString(ShardMapURI)
		e.PutString(AttrShardMap)
	}))
	if err != nil {
		return err
	}
	ok, err := d.Bool()
	if err != nil {
		return err
	}
	v, err := d.StringMax(maxWireValue)
	if err != nil {
		return err
	}
	if !ok {
		return nil // no map published: stay seed-routed
	}
	m, err := ParseShardMap(v)
	if err != nil {
		return err
	}
	c.installShardMap(m)
	return nil
}

// installShardMap swaps in m if it is strictly newer than the installed
// map, building fresh per-group connection state and retiring the old.
func (c *Client) installShardMap(m *ShardMap) {
	c.mu.Lock()
	if c.closed || (c.shard != nil && m.Epoch <= c.shard.Epoch) {
		c.mu.Unlock()
		return
	}
	old := c.groups
	c.shard = m
	c.groups = make([]*replicaGroup, len(m.Groups))
	for i, addrs := range m.Groups {
		c.groups[i] = c.newGroup(addrs)
	}
	c.mu.Unlock()
	for _, g := range old {
		retireGroup(g)
	}
}

// PublishShardMap writes m to the config namespace of every group it
// names, so that any group's replicas can bootstrap a routing client.
// Config entries replicate within a group but not across groups, hence
// the fan-out here; resharding publishes a higher epoch the same way.
func PublishShardMap(ctx context.Context, m *ShardMap, secret []byte) error {
	for i, addrs := range m.Groups {
		cl := NewClient(addrs, secret)
		err := cl.Set(ctx, ShardMapURI, AttrShardMap, m.Format())
		cl.Close()
		if err != nil {
			return fmt.Errorf("rcds: publish shard map to group %d: %w", i, err)
		}
	}
	return nil
}

// getConn returns g's live multiplexed connection, dialing the current
// replica if none is up. A dial failure advances to the next replica.
func (c *Client) getConn(ctx context.Context, g *replicaGroup) (*clientConn, error) {
	c.mu.Lock()
	closed := c.closed
	timeout := c.timeout
	c.mu.Unlock()
	if closed {
		return nil, ErrClientClosed
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, ErrClientClosed
	}
	if g.conn != nil {
		g.conn.mu.Lock()
		broken := g.conn.broken
		g.conn.mu.Unlock()
		if !broken {
			cc := g.conn
			g.mu.Unlock()
			return cc, nil
		}
		g.conn = nil
	}
	addr := g.addrs[g.current%len(g.addrs)]
	g.mu.Unlock()

	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)

	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		g.current++ // the next dial tries the next replica
		return nil, err
	}
	if g.closed {
		conn.Close()
		return nil, ErrClientClosed
	}
	if g.conn != nil {
		// A concurrent caller connected first; keep theirs.
		conn.Close()
		return g.conn, nil
	}
	cc := &clientConn{c: conn, secret: c.secret, pending: make(map[uint64]*call)}
	g.conn = cc
	go cc.readLoop()
	return cc, nil
}

// connFailed retires a dead connection and advances to the group's next
// replica. Only the first caller to notice the failure advances the
// cursor; the group's cached reads are flushed because the next
// replica's Wait sequence numbering is not comparable to the old one's.
func (c *Client) connFailed(g *replicaGroup, cc *clientConn) {
	g.mu.Lock()
	if g.conn == cc {
		g.conn = nil
		g.current++
		c.mFailovers.Inc()
	}
	g.mu.Unlock()
	if g.cache != nil {
		g.cache.invalidateAll()
	}
}

// roundTrip sends req to group g and returns the response payload
// decoder. The request is issued over the group's shared multiplexed
// connection; if that connection dies before the response arrives, the
// request is re-issued against the group's next replica (as many times
// as there are replicas).
func (c *Client) roundTrip(ctx context.Context, g *replicaGroup, req []byte) (*xdr.Decoder, error) {
	g.mu.Lock()
	n := len(g.addrs)
	g.mu.Unlock()
	c.mu.Lock()
	timeout := c.timeout
	c.mu.Unlock()
	if n == 0 {
		return nil, ErrNoServers
	}
	c.mRequests.Inc()
	c.inflight.Add(1)
	defer c.inflight.Add(-1)

	var lastErr error
	for attempt := 0; attempt < n+1; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cc, err := c.getConn(ctx, g)
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return nil, err
			}
			lastErr = err
			continue
		}
		id := c.nextID.Add(1)
		cl, err := cc.register(id)
		if err != nil {
			lastErr = err
			c.connFailed(g, cc)
			continue
		}
		if err := cc.writeRequest(id, req, time.Now().Add(timeout)); err != nil {
			cc.unregister(id)
			cc.fail(err)
			lastErr = err
			c.connFailed(g, cc)
			continue
		}
		select {
		case res := <-cl.ch:
			if res.err != nil {
				lastErr = res.err
				c.connFailed(g, cc)
				continue
			}
			return parseResponse(res.body)
		case <-ctx.Done():
			cc.unregister(id)
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("%w (last: %v)", ErrNoServers, lastErr)
}

// routedTrip sends a URI-keyed request to the group owning uri. A
// wrong-shard redirect (stale map) re-resolves the map and retries
// against the new owner, a bounded number of times.
func (c *Client) routedTrip(ctx context.Context, uri string, req []byte) (*xdr.Decoder, error) {
	if !c.routing {
		return c.roundTrip(ctx, c.seedGroup(), req)
	}
	if err := c.ensureShardMap(ctx); err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < wrongShardRetries; attempt++ {
		d, err := c.roundTrip(ctx, c.route(uri), req)
		var ws *WrongShardError
		if !errors.As(err, &ws) {
			return d, err
		}
		c.mWrongShard.Inc()
		lastErr = err
		if rerr := c.resolveShardMap(ctx); rerr != nil {
			return nil, rerr
		}
	}
	return nil, lastErr
}

// cacheGroup resolves the group whose cache serves reads of uri,
// bootstrapping the shard map first so the very first cached read does
// not fill the wrong group's cache.
func (c *Client) cacheGroup(ctx context.Context, uri string) (*replicaGroup, error) {
	if c.routing {
		if err := c.ensureShardMap(ctx); err != nil {
			return nil, err
		}
	}
	return c.route(uri), nil
}

// Timeout reports the client's configured per-request timeout. Callers
// that hold a context-less interface (naming.Catalog adapters) use it
// to derive per-call deadlines.
func (c *Client) Timeout() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timeout
}

// Ping checks connectivity, returning the responding server's
// origin ID.
func (c *Client) Ping(ctx context.Context) (string, error) {
	d, err := c.roundTrip(ctx, c.seedGroup(), request(cmdPing, nil))
	if err != nil {
		return "", err
	}
	return d.StringMax(maxWireURI)
}

// Set makes value the sole live value of (uri, name).
func (c *Client) Set(ctx context.Context, uri, name, value string) error {
	_, err := c.routedTrip(ctx, uri, request(cmdSet, func(e *xdr.Encoder) {
		e.PutString(uri)
		e.PutString(name)
		e.PutString(value)
	}))
	c.invalidateWrite(uri, err)
	return err
}

// Add inserts value as an additional live value of (uri, name).
func (c *Client) Add(ctx context.Context, uri, name, value string) error {
	_, err := c.routedTrip(ctx, uri, request(cmdAdd, func(e *xdr.Encoder) {
		e.PutString(uri)
		e.PutString(name)
		e.PutString(value)
	}))
	c.invalidateWrite(uri, err)
	return err
}

// AddSigned inserts a value with a detached signature by signer.
func (c *Client) AddSigned(ctx context.Context, uri, name, value, signer string, sig []byte) error {
	_, err := c.routedTrip(ctx, uri, request(cmdAddSigned, func(e *xdr.Encoder) {
		e.PutString(uri)
		e.PutString(name)
		e.PutString(value)
		e.PutString(signer)
		e.PutBytes(sig)
	}))
	c.invalidateWrite(uri, err)
	return err
}

// Remove tombstones the (uri, name, value) element.
func (c *Client) Remove(ctx context.Context, uri, name, value string) error {
	_, err := c.routedTrip(ctx, uri, request(cmdRemove, func(e *xdr.Encoder) {
		e.PutString(uri)
		e.PutString(name)
		e.PutString(value)
	}))
	c.invalidateWrite(uri, err)
	return err
}

// RemoveAll tombstones every live value of (uri, name).
func (c *Client) RemoveAll(ctx context.Context, uri, name string) error {
	_, err := c.routedTrip(ctx, uri, request(cmdRemoveAll, func(e *xdr.Encoder) {
		e.PutString(uri)
		e.PutString(name)
	}))
	c.invalidateWrite(uri, err)
	return err
}

// invalidateWrite drops cached reads for a URI this client just wrote,
// preserving read-your-writes before the watch notices the version
// advance. Every group's cache is swept: cheap, and correct across a
// map change that moved the URI between groups mid-write.
func (c *Client) invalidateWrite(uri string, err error) {
	if !c.cacheOn || err != nil {
		return
	}
	c.mu.Lock()
	groups := append([]*replicaGroup{c.seed}, c.groups...)
	c.mu.Unlock()
	for _, g := range groups {
		g.cache.invalidateURI(uri)
	}
}

// Get returns the live assertions for uri.
func (c *Client) Get(ctx context.Context, uri string) ([]Assertion, error) {
	if !c.cacheOn {
		return c.getRemote(ctx, uri)
	}
	g, err := c.cacheGroup(ctx, uri)
	if err != nil {
		return nil, err
	}
	as, tok, ok := g.cache.lookupGet(uri)
	if ok {
		c.mCacheHits.Inc()
		return as, nil
	}
	c.mCacheMiss.Inc()
	as, err = c.getRemote(ctx, uri)
	if err == nil {
		g.cache.storeGet(uri, as, tok)
	}
	return as, err
}

func (c *Client) getRemote(ctx context.Context, uri string) ([]Assertion, error) {
	d, err := c.routedTrip(ctx, uri, request(cmdGet, func(e *xdr.Encoder) { e.PutString(uri) }))
	if err != nil {
		return nil, err
	}
	return DecodeAssertions(d)
}

// Values returns the live values of (uri, name).
func (c *Client) Values(ctx context.Context, uri, name string) ([]string, error) {
	if !c.cacheOn {
		return c.valuesRemote(ctx, uri, name)
	}
	g, err := c.cacheGroup(ctx, uri)
	if err != nil {
		return nil, err
	}
	vals, tok, ok := g.cache.lookupValues(uri, name)
	if ok {
		c.mCacheHits.Inc()
		return vals, nil
	}
	c.mCacheMiss.Inc()
	vals, err = c.valuesRemote(ctx, uri, name)
	if err == nil {
		g.cache.storeValues(uri, name, vals, tok)
	}
	return vals, err
}

func (c *Client) valuesRemote(ctx context.Context, uri, name string) ([]string, error) {
	d, err := c.routedTrip(ctx, uri, request(cmdValues, func(e *xdr.Encoder) {
		e.PutString(uri)
		e.PutString(name)
	}))
	if err != nil {
		return nil, err
	}
	return d.StringSliceMax(maxWireItems, maxWireValue)
}

// FirstValue returns the most recently written live value of
// (uri, name).
func (c *Client) FirstValue(ctx context.Context, uri, name string) (string, bool, error) {
	if !c.cacheOn {
		return c.firstRemote(ctx, uri, name)
	}
	g, err := c.cacheGroup(ctx, uri)
	if err != nil {
		return "", false, err
	}
	v, ok, tok, hit := g.cache.lookupFirst(uri, name)
	if hit {
		c.mCacheHits.Inc()
		return v, ok, nil
	}
	c.mCacheMiss.Inc()
	v, ok, err = c.firstRemote(ctx, uri, name)
	if err == nil {
		g.cache.storeFirst(uri, name, v, ok, tok)
	}
	return v, ok, err
}

func (c *Client) firstRemote(ctx context.Context, uri, name string) (string, bool, error) {
	d, err := c.routedTrip(ctx, uri, request(cmdFirst, func(e *xdr.Encoder) {
		e.PutString(uri)
		e.PutString(name)
	}))
	if err != nil {
		return "", false, err
	}
	ok, err := d.Bool()
	if err != nil {
		return "", false, err
	}
	v, err := d.StringMax(maxWireValue)
	return v, ok, err
}

// URIs returns all catalogued URIs under prefix. Under shard routing
// the listing fans out to every group and merges: the one read that is
// inherently cross-shard.
func (c *Client) URIs(ctx context.Context, prefix string) ([]string, error) {
	if c.routing {
		if err := c.ensureShardMap(ctx); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	groups := append([]*replicaGroup(nil), c.groups...)
	c.mu.Unlock()
	if !c.routing || len(groups) == 0 {
		return c.urisFrom(ctx, c.seedGroup(), prefix)
	}
	seen := make(map[string]struct{})
	var out []string
	for _, g := range groups {
		us, err := c.urisFrom(ctx, g, prefix)
		if err != nil {
			return nil, err
		}
		for _, u := range us {
			if _, dup := seen[u]; !dup {
				seen[u] = struct{}{}
				out = append(out, u)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

func (c *Client) urisFrom(ctx context.Context, g *replicaGroup, prefix string) ([]string, error) {
	d, err := c.roundTrip(ctx, g, request(cmdURIs, func(e *xdr.Encoder) { e.PutString(prefix) }))
	if err != nil {
		return nil, err
	}
	return d.StringSliceMax(maxWireItems, maxWireValue)
}

// Vector returns the seed server's version vector
// (replication-internal; peer clients are single-group).
func (c *Client) Vector(ctx context.Context) (VersionVector, error) {
	d, err := c.roundTrip(ctx, c.seedGroup(), request(cmdVector, nil))
	if err != nil {
		return nil, err
	}
	return DecodeVersionVector(d)
}

// OpsSince returns ops the holder of vector theirs has not seen.
func (c *Client) OpsSince(ctx context.Context, theirs VersionVector, max int) ([]Assertion, error) {
	d, err := c.roundTrip(ctx, c.seedGroup(), request(cmdOpsSince, func(e *xdr.Encoder) {
		theirs.Encode(e)
		e.PutUint32(uint32(max))
	}))
	if err != nil {
		return nil, err
	}
	return DecodeAssertions(d)
}

// Apply pushes replication ops to the server (peer-to-peer
// path).
func (c *Client) Apply(ctx context.Context, ops []Assertion) (int, error) {
	d, err := c.roundTrip(ctx, c.seedGroup(), request(cmdApply, func(e *xdr.Encoder) {
		EncodeAssertions(e, ops)
	}))
	if err != nil {
		return 0, err
	}
	n, err := d.Uint32()
	return int(n), err
}

// Wait long-polls until the seed group's catalog version exceeds
// since or the server-side timeout elapses, returning the current
// version. ctx must outlive the server-side timeout for the poll to
// complete normally. Under shard routing a version stream covers one
// group only — use WaitURI to watch the group owning a specific URI.
func (c *Client) Wait(ctx context.Context, since uint64, timeout time.Duration) (uint64, error) {
	r, err := c.waitOn(ctx, c.seedGroup(), since, timeout, 0)
	return r.version, err
}

// WaitURI long-polls the catalog version of the replica group owning
// uri — the shard-aware watch primitive: a write to uri lands in that
// group, so its version stream is the one that advances.
func (c *Client) WaitURI(ctx context.Context, uri string, since uint64, timeout time.Duration) (uint64, error) {
	if !c.routing {
		return c.Wait(ctx, since, timeout)
	}
	if err := c.ensureShardMap(ctx); err != nil {
		return 0, err
	}
	r, err := c.waitOn(ctx, c.route(uri), since, timeout, 0)
	return r.version, err
}

// waitOn long-polls group g's catalog version past since, asking for up
// to maxURIs of the URIs that changed.
func (c *Client) waitOn(ctx context.Context, g *replicaGroup, since uint64, timeout time.Duration, maxURIs int) (waitReply, error) {
	d, err := c.roundTrip(ctx, g, request(cmdWait, func(e *xdr.Encoder) {
		e.PutUint64(since)
		e.PutUint32(uint32(timeout / time.Millisecond))
		e.PutUint32(uint32(maxURIs))
	}))
	if err != nil {
		return waitReply{}, err
	}
	return decodeWaitReply(d)
}

// Stats returns (uris, live elements, tombstones) — summed across all
// groups under shard routing, so the total reflects the whole sharded
// catalog. Config-namespace entries replicate per group and are counted
// once per group holding them.
func (c *Client) Stats(ctx context.Context) (uris, elems, tombs int, err error) {
	if c.routing {
		if err := c.ensureShardMap(ctx); err != nil {
			return 0, 0, 0, err
		}
	}
	c.mu.Lock()
	groups := append([]*replicaGroup(nil), c.groups...)
	c.mu.Unlock()
	if !c.routing || len(groups) == 0 {
		return c.statsFrom(ctx, c.seedGroup())
	}
	for _, g := range groups {
		u, el, tb, err := c.statsFrom(ctx, g)
		if err != nil {
			return 0, 0, 0, err
		}
		uris += u
		elems += el
		tombs += tb
	}
	return uris, elems, tombs, nil
}

func (c *Client) statsFrom(ctx context.Context, g *replicaGroup) (uris, elems, tombs int, err error) {
	d, err := c.roundTrip(ctx, g, request(cmdStats, nil))
	if err != nil {
		return 0, 0, 0, err
	}
	u, err := d.Uint32()
	if err != nil {
		return 0, 0, 0, err
	}
	el, err := d.Uint32()
	if err != nil {
		return 0, 0, 0, err
	}
	tb, err := d.Uint32()
	if err != nil {
		return 0, 0, 0, err
	}
	return int(u), int(el), int(tb), nil
}

// WaitFor polls until (uri, name) has a live value or ctx ends —
// the client-side rendezvous primitive SNIPE components use to wait for
// each other's metadata to appear. The long-poll rides the version
// stream of the group owning uri, so it works unchanged under sharding.
func (c *Client) WaitFor(ctx context.Context, uri, name string) (string, error) {
	var version uint64
	for {
		v, ok, err := c.FirstValue(ctx, uri, name)
		if err == nil && ok {
			return v, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			if err != nil {
				return "", fmt.Errorf("rcds: waiting for %s %s: %w", uri, name, err)
			}
			return "", fmt.Errorf("rcds: timeout waiting for %s %s", uri, name)
		}
		pollWait := 200 * time.Millisecond
		if deadline, ok := ctx.Deadline(); ok {
			if remaining := time.Until(deadline); remaining < pollWait {
				pollWait = remaining
			}
		}
		if pollWait <= 0 {
			continue
		}
		// Use the long-poll to avoid busy-waiting; ignore errors, the
		// next FirstValue will fail over.
		if nv, err := c.WaitURI(ctx, uri, version, pollWait); err == nil {
			version = nv
		} else if ctx.Err() == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
}
