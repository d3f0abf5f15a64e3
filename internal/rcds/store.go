package rcds

import (
	"crypto/sha256"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"snipe/internal/stats"
	"snipe/internal/xdr"
)

// changeRing is how many recent visible changes a Store remembers by
// version, for WaitChanges: a watcher that falls further behind than
// this gets an incomplete answer and must assume anything changed. A
// watch that keeps polling lags by a handful of versions. The ring
// lives inside Store and keeps it a small allocation: at 8192 entries
// it would be a 128 KiB object in the page heap, which measurably
// raised the peak RSS of processes that move 1 MiB payloads.
const changeRing = 1024

// Event reports a catalog change to a subscriber.
type Event struct {
	Assertion Assertion
}

// Store is one replica's catalog state: the merged element sets per
// URI, the per-origin op logs used for anti-entropy, and the version
// vector summarising them. All methods are safe for concurrent use.
//
// Every op is held once: the log and the catalog share one *Assertion,
// which is never modified after it is stored. A URI's elements are a
// slice kept in (name, value) order — a map per URI costs hundreds of
// bytes even for the one-element URIs that dominate a large catalog —
// so reads come out sorted and an attribute's values are adjacent.
type Store struct {
	mu      sync.Mutex
	origin  string
	lamport uint64
	seq     uint64 // this origin's next op sequence number - 1

	catalogs map[string][]*Assertion          // uri → elements, live and tombstoned, by (name, value)
	log      map[string]map[uint64]*Assertion // origin → seq → op (may have holes)
	vv       VersionVector                    // contiguous high-water marks
	floor    map[string]uint64                // origin → first log seq still servable (0 = from the start)

	version uint64             // bumped on every visible change
	changes [changeRing]string // URI of the change at version v, at v % changeRing
	cond    *sync.Cond

	subs   map[int]*subscription
	nextID int

	nowFn func() int64 // injectable wall clock for tests

	// Telemetry (see internal/stats); pointers captured at construction.
	metrics        *stats.Registry
	mLocalOps      *stats.Counter
	mRemoteOps     *stats.Counter
	mRemoteApplied *stats.Counter
	mLookups       *stats.Counter
	mSnapInstall   *stats.Counter   // ops installed from a peer snapshot page
	mCompacted     *stats.Counter   // log entries dropped by compaction
	hLookupUs      *stats.Histogram // catalog read latency
	hReplLagUs     *stats.Histogram // origin mint → local apply, master-master lag
}

type subscription struct {
	prefix string
	ch     chan Event
}

// NewStore returns an empty replica identified by origin.
func NewStore(origin string) *Store {
	s := &Store{
		origin:   origin,
		catalogs: make(map[string][]*Assertion),
		log:      make(map[string]map[uint64]*Assertion),
		vv:       make(VersionVector),
		floor:    make(map[string]uint64),
		subs:     make(map[int]*subscription),
		nowFn:    func() int64 { return time.Now().UnixNano() },
		metrics:  stats.NewRegistry(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.mLocalOps = s.metrics.Counter("local_ops")
	s.mRemoteOps = s.metrics.Counter("remote_ops")
	s.mRemoteApplied = s.metrics.Counter("remote_ops_applied")
	s.mLookups = s.metrics.Counter("lookups")
	s.mSnapInstall = s.metrics.Counter("snapshot_ops_installed")
	s.mCompacted = s.metrics.Counter("log_compacted_ops")
	s.hLookupUs = s.metrics.Histogram("lookup_latency_us", stats.LatencyBucketsUs)
	s.hReplLagUs = s.metrics.Histogram("replication_lag_us", stats.LatencyBucketsUs)
	return s
}

// Origin returns the replica's identity.
func (s *Store) Origin() string { return s.origin }

// newLocalOp mints a local assertion with fresh clock and sequence.
// Caller holds s.mu.
func (s *Store) newLocalOp(uri, name, value string, deleted bool) *Assertion {
	s.mLocalOps.Inc()
	s.lamport++
	s.seq++
	return &Assertion{
		URI:        uri,
		Name:       name,
		Value:      value,
		Clock:      s.lamport,
		Origin:     s.origin,
		Seq:        s.seq,
		Deleted:    deleted,
		ServerTime: s.nowFn(),
	}
}

// applyLocked merges one assertion into the catalog, keeping a itself
// (not a copy), and remembers its URI under the new version in the
// change ring. Every local, remote and snapshot op passes through here.
// Returns true if the catalog visibly changed. Caller holds s.mu.
func (s *Store) applyLocked(a *Assertion) bool {
	elems := s.catalogs[a.URI]
	i, exists := findElem(elems, a.Name, a.Value)
	if exists {
		if !a.Supersedes(elems[i]) {
			return false
		}
		elems[i] = a
	} else {
		s.catalogs[a.URI] = slices.Insert(elems, i, a)
	}
	if a.Clock > s.lamport {
		s.lamport = a.Clock
	}
	s.version++
	s.changes[s.version%changeRing] = a.URI
	s.notifyLocked(*a)
	s.cond.Broadcast()
	return true
}

// recordLocked files op in the origin's log and advances the contiguous
// version vector, draining any pending ops that become contiguous.
// Caller holds s.mu.
func (s *Store) recordLocked(a *Assertion) {
	l, ok := s.log[a.Origin]
	if !ok {
		l = make(map[uint64]*Assertion)
		s.log[a.Origin] = l
	}
	if _, dup := l[a.Seq]; dup {
		return
	}
	l[a.Seq] = a
	for {
		next := s.vv[a.Origin] + 1
		if _, ok := l[next]; !ok {
			break
		}
		s.vv[a.Origin] = next
	}
}

// findElem returns the index of element (name, value) in a URI's
// sorted elements, or the index it would be inserted at.
func findElem(elems []*Assertion, name, value string) (int, bool) {
	return slices.BinarySearchFunc(elems, elemKey{name, value}, func(a *Assertion, k elemKey) int {
		if c := strings.Compare(a.Name, k.name); c != 0 {
			return c
		}
		return strings.Compare(a.Value, k.value)
	})
}

// attrLocked returns uri's elements named name, live and tombstoned,
// in value order. Caller holds s.mu.
func (s *Store) attrLocked(uri, name string) []*Assertion {
	elems := s.catalogs[uri]
	lo, _ := findElem(elems, name, "")
	hi := lo
	for hi < len(elems) && elems[hi].Name == name {
		hi++
	}
	return elems[lo:hi]
}

// commitLocked logs and applies freshly minted local ops, returning
// copies for the caller to push. Caller holds s.mu.
func (s *Store) commitLocked(ops []*Assertion) []Assertion {
	out := make([]Assertion, len(ops))
	for i, op := range ops {
		s.recordLocked(op)
		s.applyLocked(op)
		out[i] = *op
	}
	return out
}

// logAndApplyLocked logs and applies a decoded op (a peer's push, a
// snapshot page, a persisted log entry), returning whether the catalog
// visibly changed. Caller holds s.mu.
func (s *Store) logAndApplyLocked(op Assertion) bool {
	a := &op
	s.recordLocked(a)
	return s.applyLocked(a)
}

func (s *Store) notifyLocked(a Assertion) {
	for _, sub := range s.subs {
		if strings.HasPrefix(a.URI, sub.prefix) {
			select {
			case sub.ch <- Event{Assertion: a}:
			default: // slow subscriber: drop rather than block the store
			}
		}
	}
}

// Set makes value the sole live value for (uri, name): existing live
// values of the attribute are tombstoned and the new element added.
// It returns the ops to be pushed to peers.
func (s *Store) Set(uri, name, value string) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ops []*Assertion
	for _, cur := range s.attrLocked(uri, name) {
		if !cur.Deleted && cur.Value != value {
			ops = append(ops, s.newLocalOp(uri, name, cur.Value, true))
		}
	}
	ops = append(ops, s.newLocalOp(uri, name, value, false))
	return s.commitLocked(ops)
}

// Add inserts value as an additional live value for (uri, name) —
// RCDS attributes such as locations and comm addresses are
// multi-valued. Returns the op to push.
func (s *Store) Add(uri, name, value string) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked([]*Assertion{s.newLocalOp(uri, name, value, false)})
}

// AddSigned inserts a value carrying a detached signature (used for
// signed metadata subsets such as published keys and code signatures).
func (s *Store) AddSigned(uri, name, value string, signer string, sig []byte) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.newLocalOp(uri, name, value, false)
	op.Signer = signer
	op.Signature = sig
	return s.commitLocked([]*Assertion{op})
}

// Remove tombstones the (uri, name, value) element. Returns the ops to
// push (empty if the element was not live).
func (s *Store) Remove(uri, name, value string) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	elems := s.catalogs[uri]
	i, ok := findElem(elems, name, value)
	if !ok || elems[i].Deleted {
		return nil
	}
	return s.commitLocked([]*Assertion{s.newLocalOp(uri, name, value, true)})
}

// RemoveAll tombstones every live value of (uri, name).
func (s *Store) RemoveAll(uri, name string) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ops []*Assertion
	for _, cur := range s.attrLocked(uri, name) {
		if !cur.Deleted {
			ops = append(ops, s.newLocalOp(uri, name, cur.Value, true))
		}
	}
	return s.commitLocked(ops)
}

// ApplyRemote merges ops received from a peer (push or anti-entropy),
// returning the number that changed the catalog.
func (s *Store) ApplyRemote(ops []Assertion) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := 0
	for _, op := range ops {
		if op.Origin == s.origin {
			continue // our own ops echoed back
		}
		s.mRemoteOps.Inc()
		if s.logAndApplyLocked(op) {
			changed++
			s.mRemoteApplied.Inc()
			// Replication lag: origin's mint time to our apply time. The
			// clocks are different hosts', so skew can swallow small lags;
			// only positive samples are meaningful.
			if op.ServerTime > 0 {
				if lag := s.nowFn() - op.ServerTime; lag > 0 {
					s.hReplLagUs.Observe(float64(lag) / 1e3)
				}
			}
		}
	}
	return changed
}

// observeLookup records one catalog read for the lookup metrics.
func (s *Store) observeLookup(start time.Time) {
	s.mLookups.Inc()
	s.hLookupUs.Observe(float64(time.Since(start).Microseconds()))
}

// Get returns the live assertions for uri, sorted by (name, value).
func (s *Store) Get(uri string) []Assertion {
	defer s.observeLookup(time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Assertion
	for _, a := range s.catalogs[uri] {
		if !a.Deleted {
			out = append(out, *a)
		}
	}
	return out
}

// Values returns the live values of (uri, name), sorted.
func (s *Store) Values(uri, name string) []string {
	defer s.observeLookup(time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, a := range s.attrLocked(uri, name) {
		if !a.Deleted {
			out = append(out, a.Value)
		}
	}
	return out
}

// FirstValue returns the most recently written live value of
// (uri, name), if any.
func (s *Store) FirstValue(uri, name string) (string, bool) {
	defer s.observeLookup(time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *Assertion
	for _, a := range s.attrLocked(uri, name) {
		if !a.Deleted {
			if best == nil || a.Supersedes(best) {
				best = a
			}
		}
	}
	if best == nil {
		return "", false
	}
	return best.Value, true
}

// URIs returns all URIs with live assertions under the prefix, sorted.
func (s *Store) URIs(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for uri, elems := range s.catalogs {
		if !strings.HasPrefix(uri, prefix) {
			continue
		}
		for _, a := range elems {
			if !a.Deleted {
				out = append(out, uri)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Vector returns a copy of the replica's contiguous version vector.
func (s *Store) Vector() VersionVector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vv.Copy()
}

// OpsSince returns up to max ops that remote (with version vector
// theirs) has not seen, in per-origin sequence order. max <= 0 means
// unlimited.
func (s *Store) OpsSince(theirs VersionVector, max int) []Assertion {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Assertion
	origins := make([]string, 0, len(s.log))
	for origin := range s.log {
		origins = append(origins, origin)
	}
	sort.Strings(origins)
	for _, origin := range origins {
		l := s.log[origin]
		for seq := theirs[origin] + 1; seq <= s.vv[origin]; seq++ {
			op, ok := l[seq]
			if !ok {
				break
			}
			out = append(out, *op)
			if max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
}

// Version returns the store's change counter.
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// WaitVersion blocks until the store's version exceeds since or the
// timeout elapses, returning the current version. It is the long-poll
// primitive behind metadata change notification.
func (s *Store) WaitVersion(since uint64, timeout time.Duration) uint64 {
	v, _, _ := s.WaitChanges(since, timeout, nil, 0)
	return v
}

// WaitChanges is WaitVersion with a cancellation channel and a report
// of what changed. When cancel (typically a server's shutdown signal)
// closes, the wait returns early; a nil cancel never fires. uris lists
// the URIs of the visible changes in (since, version], at most max of
// them, in version order with adjacent repeats folded. complete is
// false when that list would be partial — the change ring no longer
// reaches back to since, since is ahead of the store (another
// replica's numbering), or the list would exceed max — and the caller
// must then assume any URI changed.
func (s *Store) WaitChanges(since uint64, timeout time.Duration, cancel <-chan struct{}, max int) (version uint64, uris []string, complete bool) {
	deadline := time.Now().Add(timeout)
	canceled := func() bool {
		select {
		case <-cancel:
			return true
		default:
			return false
		}
	}
	if cancel != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-cancel:
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			case <-stop:
			}
		}()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.version <= since && !canceled() {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		t := time.AfterFunc(remaining, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		s.cond.Wait()
		t.Stop()
	}
	uris, complete = s.changesLocked(since, max)
	return s.version, uris, complete
}

// changesLocked lists the URIs changed in (since, s.version] from the
// change ring; see WaitChanges. Caller holds s.mu.
func (s *Store) changesLocked(since uint64, max int) ([]string, bool) {
	if since > s.version || s.version-since > changeRing {
		return nil, false
	}
	var uris []string
	for v := since + 1; v <= s.version; v++ {
		uri := s.changes[v%changeRing]
		if n := len(uris); n > 0 && uris[n-1] == uri {
			continue
		}
		if len(uris) == max {
			return nil, false
		}
		uris = append(uris, uri)
	}
	return uris, true
}

// Subscribe delivers every catalog change whose URI has the given
// prefix to ch until Unsubscribe. Events are dropped rather than
// blocking the store if ch is full; subscribers needing completeness
// should re-read the catalog on wakeup.
func (s *Store) Subscribe(prefix string, ch chan Event) (id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id = s.nextID
	s.nextID++
	s.subs[id] = &subscription{prefix: prefix, ch: ch}
	return id
}

// Unsubscribe removes a subscription.
func (s *Store) Unsubscribe(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, id)
}

// Stats reports catalog sizes for monitoring.
func (s *Store) Stats() (uris, elements, tombstones int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	uris = len(s.catalogs)
	for _, elems := range s.catalogs {
		for _, a := range elems {
			if a.Deleted {
				tombstones++
			} else {
				elements++
			}
		}
	}
	return
}

// Metrics returns the store's live metric registry.
func (s *Store) Metrics() *stats.Registry { return s.metrics }

// MetricsSnapshot captures the store's metrics with the catalog-size
// gauges refreshed.
func (s *Store) MetricsSnapshot() stats.Snapshot {
	uris, elements, tombstones := s.Stats()
	s.metrics.Gauge("uris").Set(float64(uris))
	s.metrics.Gauge("elements").Set(float64(elements))
	s.metrics.Gauge("tombstones").Set(float64(tombstones))
	return s.metrics.Snapshot()
}

// SetNowFunc overrides the wall clock used for server timestamps; for
// tests.
func (s *Store) SetNowFunc(f func() int64) {
	s.mu.Lock()
	s.nowFn = f
	s.mu.Unlock()
}

// Snapshot + incremental catch-up (DESIGN.md "Sharded catalog"): a
// replica rejoining its group pulls the peer's compacted catalog state
// — one assertion per element, winners and tombstones, NOT the op
// history — in deterministic URI-ordered pages, then the op tail since
// the snapshot's version vector. Log compaction makes this necessary
// (the history below the floor is gone) and worthwhile (the snapshot is
// catalog-sized, the history is write-count-sized).

// SnapshotPage returns up to maxOps catalog elements (including
// tombstones) for URIs strictly after afterURI in lexical order, the
// cursor for the next page ("" when the dump is complete), and the
// store's current version vector. Pages never split a URI, so the
// cursor is simply the last URI included.
func (s *Store) SnapshotPage(afterURI string, maxOps int) (ops []Assertion, next string, vv VersionVector) {
	if maxOps <= 0 {
		maxOps = 8192
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	uris := make([]string, 0, len(s.catalogs))
	for uri := range s.catalogs {
		if uri > afterURI {
			uris = append(uris, uri)
		}
	}
	sort.Strings(uris)
	for _, uri := range uris {
		if len(ops) >= maxOps {
			return ops, next, s.vv.Copy()
		}
		for _, a := range s.catalogs[uri] {
			ops = append(ops, *a)
		}
		next = uri
	}
	return ops, "", s.vv.Copy()
}

// InstallSnapshotOps merges one snapshot page into the catalog and the
// log, returning the number of elements that changed the catalog. The
// caller advances the version vector with MergeVector once every page
// has been installed; until then the replica does not claim coverage of
// sequence numbers it has only partially received.
func (s *Store) InstallSnapshotOps(ops []Assertion) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := 0
	for _, op := range ops {
		if op.Origin == s.origin {
			continue // our own ops: already in our log
		}
		s.mSnapInstall.Inc()
		if s.logAndApplyLocked(op) {
			changed++
		}
	}
	return changed
}

// MergeVector raises the store's contiguous version vector to cover vv
// (a snapshot's base): intermediate superseded ops below the new marks
// were compacted away on the peer and will never arrive, so the log may
// now have holes under the vector. The serving floor moves up to the
// new marks for every origin that advanced — this replica can serve
// tails only from the snapshot base onward; peers that are further
// behind must themselves catch up by snapshot.
func (s *Store) MergeVector(vv VersionVector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for origin, seq := range vv {
		if seq > s.vv[origin] {
			s.vv[origin] = seq
			if seq+1 > s.floor[origin] {
				s.floor[origin] = seq + 1
			}
		}
	}
}

// CanServeTail reports whether the log can serve every op a replica at
// vector theirs is missing — i.e. theirs is at or above the compaction
// floor for every origin this store has advanced past it on.
func (s *Store) CanServeTail(theirs VersionVector) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for origin, seq := range s.vv {
		have := theirs[origin]
		if seq > have && have+1 < s.floor[origin] {
			return false
		}
	}
	return true
}

// Compact drops log entries more than keepTail sequence numbers below
// each origin's contiguous mark, raising the serving floor accordingly,
// and returns the number of entries dropped. The catalog (element sets
// and tombstones) is untouched: compaction trades the ability to serve
// deep history tails for bounded log memory; replicas below the floor
// catch up by snapshot instead.
func (s *Store) Compact(keepTail int) int {
	if keepTail < 0 {
		keepTail = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for origin, l := range s.log {
		mark := s.vv[origin]
		if mark <= uint64(keepTail) {
			continue
		}
		horizon := mark - uint64(keepTail) // drop seqs <= horizon
		if horizon+1 > s.floor[origin] {
			s.floor[origin] = horizon + 1
		}
		for seq := range l {
			if seq <= horizon {
				delete(l, seq)
				dropped++
			}
		}
	}
	if dropped > 0 {
		s.mCompacted.Add(uint64(dropped))
	}
	return dropped
}

// LogLen returns the number of retained op-log entries across origins.
func (s *Store) LogLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, l := range s.log {
		n += len(l)
	}
	return n
}

// ContentHash returns a digest over the full catalog content — every
// element and tombstone with all its fields, in deterministic order.
// Two replicas whose hashes match hold byte-identical catalogs; the
// convergence proof the catch-up tests and bench assert.
func (s *Store) ContentHash() [32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	uris := make([]string, 0, len(s.catalogs))
	for uri := range s.catalogs {
		uris = append(uris, uri)
	}
	sort.Strings(uris)
	h := sha256.New()
	e := xdr.NewEncoder(256)
	for _, uri := range uris {
		for _, a := range s.catalogs[uri] { // already in (name, value) order
			e.Reset()
			a.Encode(e)
			h.Write(e.Bytes())
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
