package rcds

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"snipe/internal/stats"
	"snipe/internal/xdr"
)

// pushTimeout bounds one replication RPC (push or anti-entropy pull) to
// a peer.
const pushTimeout = 5 * time.Second

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithSecret enables HMAC authentication with the given shared secret.
func WithSecret(secret []byte) ServerOption {
	return func(s *Server) { s.secret = secret }
}

// WithPeers sets the addresses of the other replicas this server pushes
// updates to and pulls anti-entropy from.
func WithPeers(addrs ...string) ServerOption {
	return func(s *Server) { s.peers = append([]string(nil), addrs...) }
}

// WithAntiEntropyInterval sets how often the server pulls from peers.
func WithAntiEntropyInterval(d time.Duration) ServerOption {
	return func(s *Server) { s.aeInterval = d }
}

// WithShard makes the server enforce catalog sharding: ops on URIs that
// map (under m) to a group other than self are answered with a
// wrong-shard redirect instead of being served. Config-namespace URIs
// (IsConfigURI) are exempt. The map can be replaced at runtime with
// SetShard.
func WithShard(self int, m *ShardMap) ServerOption {
	return func(s *Server) { s.shard = &shardConfig{self: self, m: m} }
}

// WithLogCompaction bounds the op log: a background loop periodically
// drops entries more than keepTail sequence numbers below each origin's
// contiguous mark. Replicas that fall below the resulting floor catch
// up via snapshot (SyncFromPeer) instead of history replay.
func WithLogCompaction(keepTail int) ServerOption {
	return func(s *Server) { s.compactKeep = keepTail }
}

// WithPeerGate installs a reachability gate consulted before every
// push or anti-entropy exchange with a peer: while gate(peer) returns
// an error the exchange is skipped, modelling a severed replication
// link. netsim's Fabric.Gate plugs in here for partition experiments.
func WithPeerGate(gate func(peer string) error) ServerOption {
	return func(s *Server) { s.peerGate = gate }
}

// shardConfig is a server's sharding stance: its own group and the map.
type shardConfig struct {
	self int
	m    *ShardMap
}

// Server is one RC/metadata server replica: it serves the catalog
// protocol on a TCP listener, pushes local writes to its peers, and
// runs periodic anti-entropy pulls so that replicas converge even when
// pushes are lost — the master–master model of §7.
type Server struct {
	store       *Store
	secret      []byte
	peers       []string
	aeInterval  time.Duration
	compactKeep int // >0: background log compaction keeps this much tail
	peerGate    func(peer string) error

	mu       sync.Mutex
	shard    *shardConfig // nil = unsharded
	ln       net.Listener
	conns    map[net.Conn]struct{}
	pushCh   chan []Assertion
	done     chan struct{}
	wg       sync.WaitGroup
	stopped  bool
	pushFail int // push attempts that failed (peer down); healed by anti-entropy

	// testDelay, when set before Start, stalls every request dispatch —
	// the package tests' knob for proving request overlap and measuring
	// serialized vs. multiplexed throughput under a fixed service time.
	testDelay time.Duration

	mShardReject *stats.Counter // ops redirected to their owning group
	mSnapPages   *stats.Counter // snapshot pages served to rejoiners
	mTailPulls   *stats.Counter // catch-up tail pulls served
}

// NewServer creates a server over store. Call Start to begin serving.
func NewServer(store *Store, opts ...ServerOption) *Server {
	s := &Server{
		store:      store,
		aeInterval: 250 * time.Millisecond,
		conns:      make(map[net.Conn]struct{}),
		pushCh:     make(chan []Assertion, 1024),
		done:       make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	s.mShardReject = store.Metrics().Counter("shard_rejects")
	s.mSnapPages = store.Metrics().Counter("snapshot_pages_served")
	s.mTailPulls = store.Metrics().Counter("tail_pulls_served")
	return s
}

// SetShard installs (or replaces) the server's shard map at runtime —
// the resharding hook. A nil map disables enforcement.
func (s *Server) SetShard(self int, m *ShardMap) {
	s.mu.Lock()
	if m == nil {
		s.shard = nil
	} else {
		s.shard = &shardConfig{self: self, m: m}
	}
	s.mu.Unlock()
}

// shardCheck returns a wrong-shard redirect when sharding is enforced
// and uri belongs to another group; nil means serve it here.
func (s *Server) shardCheck(uri string) []byte {
	s.mu.Lock()
	sc := s.shard
	s.mu.Unlock()
	if sc == nil || IsConfigURI(uri) {
		return nil
	}
	if owner := sc.m.Owner(uri); owner != sc.self {
		s.mShardReject.Inc()
		return wrongShardResponse(owner, sc.m.Epoch)
	}
	return nil
}

// Store returns the server's underlying replica store.
func (s *Server) Store() *Store { return s.store }

// Start listens on addr (host:port; port 0 picks a free port) and
// begins serving, pushing, and anti-entropy.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("rcds: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	s.wg.Add(1)
	go s.pushLoop()
	// The loop re-reads the peer set every tick, so it starts even when
	// peers arrive later via SetPeers (the common bootstrap order).
	if s.aeInterval > 0 {
		s.wg.Add(1)
		go s.antiEntropyLoop()
	}
	if s.compactKeep > 0 {
		s.wg.Add(1)
		go s.compactLoop()
	}
	return nil
}

// Addr returns the listen address, valid after Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops serving and waits for all connection handlers to finish.
// The store survives, so a new server can be started over it — the
// crash/recover cycle of the availability experiments.
func (s *Server) Close() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	close(s.done)
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// SetPeers replaces the peer set (used when the replica group changes).
func (s *Server) SetPeers(addrs ...string) {
	s.mu.Lock()
	s.peers = append([]string(nil), addrs...)
	s.mu.Unlock()
}

// PushFailures reports how many peer pushes failed and were left to
// anti-entropy to repair.
func (s *Server) PushFailures() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushFail
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn multiplexes one client connection: every request frame
// carries an ID and is dispatched in its own goroutine, and responses
// are written (under a per-connection writer lock) as they complete —
// possibly out of order, so a long-poll never blocks a lookup.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	var writeMu sync.Mutex
	var reqWG sync.WaitGroup
	defer func() {
		reqWG.Wait()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		frame, err := readFrame(conn, s.secret)
		if err != nil {
			return
		}
		id, body, err := splitMux(frame)
		if err != nil {
			return
		}
		reqWG.Add(1)
		go func(id uint64, body []byte) {
			defer reqWG.Done()
			if s.testDelay > 0 {
				time.Sleep(s.testDelay)
			}
			resp := s.dispatch(body)
			// The writer lock only serialises responses multiplexed onto
			// this one client connection; a stalled client stalls its own
			// responses, nothing else.
			writeMu.Lock()
			defer writeMu.Unlock()
			writeFrame(conn, muxBody(id, resp), s.secret) //lint:allow lockedio intentional per-connection response writer lock
		}(id, body)
	}
}

// dispatch executes one request and returns the response body.
func (s *Server) dispatch(body []byte) []byte {
	d := xdr.NewDecoder(body)
	cmd, err := d.Uint8()
	if err != nil {
		return errResponse(err)
	}
	switch cmd {
	case cmdPing:
		return okResponse(func(e *xdr.Encoder) { e.PutString(s.store.Origin()) })

	case cmdSet, cmdAdd, cmdRemove:
		uri, name, value, err := decodeTriple(d)
		if err != nil {
			return errResponse(err)
		}
		if rej := s.shardCheck(uri); rej != nil {
			return rej
		}
		var ops []Assertion
		switch cmd {
		case cmdSet:
			ops = s.store.Set(uri, name, value)
		case cmdAdd:
			ops = s.store.Add(uri, name, value)
		case cmdRemove:
			ops = s.store.Remove(uri, name, value)
		}
		s.enqueuePush(ops)
		return okResponse(nil)

	case cmdAddSigned:
		uri, name, value, err := decodeTriple(d)
		if err != nil {
			return errResponse(err)
		}
		signer, err := d.StringMax(maxWireURI)
		if err != nil {
			return errResponse(err)
		}
		sig, err := d.BytesCopyMax(maxWireSig)
		if err != nil {
			return errResponse(err)
		}
		if rej := s.shardCheck(uri); rej != nil {
			return rej
		}
		ops := s.store.AddSigned(uri, name, value, signer, sig)
		s.enqueuePush(ops)
		return okResponse(nil)

	case cmdRemoveAll:
		uri, err := d.StringMax(maxWireURI)
		if err != nil {
			return errResponse(err)
		}
		name, err := d.StringMax(maxWireURI)
		if err != nil {
			return errResponse(err)
		}
		if rej := s.shardCheck(uri); rej != nil {
			return rej
		}
		ops := s.store.RemoveAll(uri, name)
		s.enqueuePush(ops)
		return okResponse(nil)

	case cmdGet:
		uri, err := d.StringMax(maxWireURI)
		if err != nil {
			return errResponse(err)
		}
		if rej := s.shardCheck(uri); rej != nil {
			return rej
		}
		as := s.store.Get(uri)
		return okResponse(func(e *xdr.Encoder) { EncodeAssertions(e, as) })

	case cmdValues:
		uri, err := d.StringMax(maxWireURI)
		if err != nil {
			return errResponse(err)
		}
		name, err := d.StringMax(maxWireURI)
		if err != nil {
			return errResponse(err)
		}
		if rej := s.shardCheck(uri); rej != nil {
			return rej
		}
		return okResponse(func(e *xdr.Encoder) { e.PutStringSlice(s.store.Values(uri, name)) })

	case cmdFirst:
		uri, err := d.StringMax(maxWireURI)
		if err != nil {
			return errResponse(err)
		}
		name, err := d.StringMax(maxWireURI)
		if err != nil {
			return errResponse(err)
		}
		if rej := s.shardCheck(uri); rej != nil {
			return rej
		}
		v, ok := s.store.FirstValue(uri, name)
		return okResponse(func(e *xdr.Encoder) { e.PutBool(ok); e.PutString(v) })

	case cmdURIs:
		prefix, err := d.StringMax(maxWireURI)
		if err != nil {
			return errResponse(err)
		}
		return okResponse(func(e *xdr.Encoder) { e.PutStringSlice(s.store.URIs(prefix)) })

	case cmdVector:
		vv := s.store.Vector()
		return okResponse(func(e *xdr.Encoder) { vv.Encode(e) })

	case cmdOpsSince:
		theirs, err := DecodeVersionVector(d)
		if err != nil {
			return errResponse(err)
		}
		max, err := d.Uint32()
		if err != nil {
			return errResponse(err)
		}
		ops := s.store.OpsSince(theirs, int(max))
		return okResponse(func(e *xdr.Encoder) { EncodeAssertions(e, ops) })

	case cmdApply:
		ops, err := DecodeAssertions(d)
		if err != nil {
			return errResponse(err)
		}
		n := s.store.ApplyRemote(ops)
		// Relay newly learned ops onward so partially connected replica
		// groups still converge quickly.
		if n > 0 {
			s.enqueuePush(ops)
		}
		return okResponse(func(e *xdr.Encoder) { e.PutUint32(uint32(n)) })

	case cmdWait:
		since, err := d.Uint64()
		if err != nil {
			return errResponse(err)
		}
		timeoutMs, err := d.Uint32()
		if err != nil {
			return errResponse(err)
		}
		maxURIs, err := d.Uint32()
		if err != nil {
			return errResponse(err)
		}
		// Long-polls run in per-request goroutines and must not outlive
		// the server: s.done cuts them short at shutdown.
		v, uris, complete := s.store.WaitChanges(since, time.Duration(timeoutMs)*time.Millisecond,
			s.done, int(min(maxURIs, maxWatchURIs)))
		return okResponse(func(e *xdr.Encoder) {
			e.PutUint64(v)
			e.PutBool(complete)
			e.PutStringSlice(uris)
		})

	case cmdStats:
		uris, elems, tombs := s.store.Stats()
		return okResponse(func(e *xdr.Encoder) {
			e.PutUint32(uint32(uris))
			e.PutUint32(uint32(elems))
			e.PutUint32(uint32(tombs))
		})

	case cmdCatchup:
		theirs, err := DecodeVersionVector(d)
		if err != nil {
			return errResponse(err)
		}
		max, err := d.Uint32()
		if err != nil {
			return errResponse(err)
		}
		if !s.store.CanServeTail(theirs) {
			// The requester is below our compaction floor: it must page
			// the snapshot (cmdSnapshotPage) before pulling the tail.
			return okResponse(func(e *xdr.Encoder) { e.PutUint8(catchupModeSnapshot) })
		}
		s.mTailPulls.Inc()
		ops := s.store.OpsSince(theirs, int(max))
		return okResponse(func(e *xdr.Encoder) {
			e.PutUint8(catchupModeTail)
			EncodeAssertions(e, ops)
		})

	case cmdSnapshotPage:
		afterURI, err := d.StringMax(maxWireURI)
		if err != nil {
			return errResponse(err)
		}
		max, err := d.Uint32()
		if err != nil {
			return errResponse(err)
		}
		s.mSnapPages.Inc()
		ops, next, vv := s.store.SnapshotPage(afterURI, int(max))
		return okResponse(func(e *xdr.Encoder) {
			vv.Encode(e)
			e.PutString(next)
			EncodeAssertions(e, ops)
		})
	}
	return errResponse(fmt.Errorf("unknown command %d", cmd))
}

func decodeTriple(d *xdr.Decoder) (uri, name, value string, err error) {
	if uri, err = d.StringMax(maxWireURI); err != nil {
		return
	}
	if name, err = d.StringMax(maxWireURI); err != nil {
		return
	}
	value, err = d.StringMax(maxWireValue)
	return
}

// enqueuePush queues ops for asynchronous push replication.
func (s *Server) enqueuePush(ops []Assertion) {
	if len(ops) == 0 || len(s.peers) == 0 {
		return
	}
	select {
	case s.pushCh <- ops:
	default:
		// Push queue full: anti-entropy will deliver these ops instead.
		s.mu.Lock()
		s.pushFail++
		s.mu.Unlock()
	}
}

// pushLoop forwards queued ops to every peer.
func (s *Server) pushLoop() {
	defer s.wg.Done()
	clients := make(map[string]*Client)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for {
		select {
		case <-s.done:
			return
		case ops := <-s.pushCh:
			s.mu.Lock()
			peers := append([]string(nil), s.peers...)
			s.mu.Unlock()
			for _, peer := range peers {
				if s.peerGate != nil && s.peerGate(peer) != nil {
					// Link severed (netsim partition): count it as a lost
					// push and leave repair to anti-entropy after healing.
					s.mu.Lock()
					s.pushFail++
					s.mu.Unlock()
					continue
				}
				c, ok := clients[peer]
				if !ok {
					c = NewClient([]string{peer}, s.secret)
					clients[peer] = c
				}
				ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
				_, err := c.Apply(ctx, ops)
				cancel()
				if err != nil {
					s.mu.Lock()
					s.pushFail++
					s.mu.Unlock()
				}
			}
		}
	}
}

// antiEntropyLoop periodically syncs from each peer via SyncFromPeer:
// paged op tails in the steady state, a compacted snapshot plus tail
// when this replica has fallen below a peer's compaction floor — so a
// rejoining replica converges without full history replay.
func (s *Server) antiEntropyLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.aeInterval)
	defer ticker.Stop()
	clients := make(map[string]*Client)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			s.mu.Lock()
			peers := append([]string(nil), s.peers...)
			s.mu.Unlock()
			for _, peer := range peers {
				if s.peerGate != nil && s.peerGate(peer) != nil {
					continue // link severed; try again next tick
				}
				c, ok := clients[peer]
				if !ok {
					c = NewClient([]string{peer}, s.secret)
					clients[peer] = c
				}
				ctx, cancel := s.syncCtx()
				_, err := SyncFromPeer(ctx, s.store, c, 0)
				cancel()
				_ = err // peer down or mid-shutdown; try again next tick
			}
		}
	}
}

// syncCtx derives a context for one anti-entropy exchange, cancelled
// when the server shuts down so a sync cannot outlive Close. The
// exchange as a whole is NOT deadline-bounded: a rejoin snapshot at
// catalog scale legitimately takes many page round trips, and cutting
// it off mid-transfer would discard the round's work before MergeVector
// could claim it. Stall protection is per RPC — SyncFromPeer bounds
// every Catchup/SnapshotPage call by pushTimeout, so a dead peer costs
// one RPC timeout, not a hung loop.
func (s *Server) syncCtx() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		select {
		case <-s.done:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// compactLoop periodically drops op-log entries more than compactKeep
// below each origin's contiguous mark. Bounding the log is what makes
// 1M+-URI catalogs viable: without it every write ever made stays
// resident and every rejoin replays it.
func (s *Server) compactLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.aeInterval * 8)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			s.store.Compact(s.compactKeep)
		}
	}
}

// ErrStopped is returned by operations on a closed server.
var ErrStopped = errors.New("rcds: server stopped")
