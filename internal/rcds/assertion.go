package rcds

import (
	"fmt"

	"snipe/internal/xdr"
)

// Well-known assertion names used throughout SNIPE (paper §5.2). The
// metadata schema is open — "little is hidden in internal data
// structures" — so these are conventions, not a closed set.
const (
	// AttrHostDaemonURL is the URL of a host's SNIPE daemon.
	AttrHostDaemonURL = "host-daemon-url"
	// AttrCPUs describes the number and type of CPUs on a host.
	AttrCPUs = "cpus"
	// AttrArch is a host's architecture / data format identifier.
	AttrArch = "arch"
	// AttrInterface describes one network interface (repeatable).
	AttrInterface = "interface"
	// AttrBroker is the URL of a broker managing a host (repeatable).
	AttrBroker = "broker"
	// AttrPublicKey is a principal's public key (hex).
	AttrPublicKey = "public-key"
	// AttrCommAddr is a process's communications address (repeatable).
	AttrCommAddr = "comm-addr"
	// AttrNotify is a member of a process's notify list (repeatable).
	AttrNotify = "notify"
	// AttrState is a task/process state.
	AttrState = "state"
	// AttrLocation is a replica location for a file/service (repeatable).
	AttrLocation = "location"
	// AttrMcastRouter is a multicast router URL for a group (repeatable).
	AttrMcastRouter = "mcast-router"
	// AttrLoad is a host's load average, published by its daemon.
	AttrLoad = "load"
	// AttrHeartbeat is a host daemon's liveness heartbeat: a
	// monotonically increasing sequence number, a wall-clock timestamp
	// and the current load in one value (see internal/liveness), so one
	// replicated write per beat carries both liveness and placement
	// input. A trailing "down" marks a clean shutdown tombstone.
	AttrHeartbeat = "heartbeat"
	// AttrMemory is a host's available memory in MB.
	AttrMemory = "memory-mb"
	// AttrSupervisorLIFN is a process's supervisor LIFN (§5.2.3).
	AttrSupervisorLIFN = "supervisor-lifn"
	// AttrCodeHash is the content hash of a mobile code image.
	AttrCodeHash = "code-hash"
	// AttrCodeSig is the signature over a mobile code image.
	AttrCodeSig = "code-sig"
	// AttrPlayground advertises a host's playground capabilities.
	AttrPlayground = "playground"
	// AttrProtocol lists a file server's supported access protocols.
	AttrProtocol = "protocol"
	// AttrServiceReplica is one replica's endpoint URN, published under
	// a service-group URN (repeatable; see internal/service). Load and
	// liveness for the replica ride its host's heartbeat, so joining a
	// group costs exactly one extra assertion.
	AttrServiceReplica = "service-replica"
	// AttrGroupDigest is a gossip group's liveness digest, published by
	// the group's elected reporter under the group's liveness URI: one
	// catalog assertion per group per interval carrying every member's
	// incarnation, sequence, state and load (see internal/gossip). It
	// replaces per-host heartbeat writes on the catalog hot path.
	AttrGroupDigest = "group-digest"
	// AttrGossipGroup records which gossip group a host belongs to, as
	// "<group>/<groups>", written once by its daemon at startup so load
	// and liveness readers can find the host's digest.
	AttrGossipGroup = "gossip-group"
)

// Assertion is one replicated metadata element: for resource URI, the
// pair Name=Value, stamped with the update's Lamport clock and origin.
// Deleted assertions are tombstones kept for convergence. ServerTime is
// the wall-clock time (Unix nanoseconds) at which the accepting RC
// server stamped the update — the paper's "automatic time stamping of
// metadata by the RC servers" that lets temporally disjoint tasks judge
// the age of what they read (§3.1). It is informational and plays no
// part in conflict resolution.
type Assertion struct {
	URI        string
	Name       string
	Value      string
	Clock      uint64 // Lamport clock of the update
	Origin     string // ID of the server that accepted the update
	Seq        uint64 // per-origin sequence number (op log position)
	Deleted    bool
	ServerTime int64
	Signature  []byte // optional detached signature over (URI,Name,Value)
	Signer     string // principal that produced Signature
}

// elemKey identifies an element within a URI's catalog. RCDS attributes
// are multi-valued (a file has many locations, a process many comm
// addresses), so identity is the (name, value) pair, and a URI's
// elements are ordered by it.
type elemKey struct {
	name  string
	value string
}

// Supersedes reports whether a beats b under last-writer-wins order:
// higher Lamport clock wins; equal clocks break ties by origin so that
// all replicas pick the same winner.
func (a *Assertion) Supersedes(b *Assertion) bool {
	if a.Clock != b.Clock {
		return a.Clock > b.Clock
	}
	if a.Origin != b.Origin {
		return a.Origin > b.Origin
	}
	// Same origin, same clock: the later sequence number wins.
	return a.Seq > b.Seq
}

// SignedBytes returns the canonical byte string a detached assertion
// signature covers.
func (a *Assertion) SignedBytes() []byte {
	e := xdr.NewEncoder(len(a.URI) + len(a.Name) + len(a.Value) + 16)
	e.PutString(a.URI)
	e.PutString(a.Name)
	e.PutString(a.Value)
	return e.Bytes()
}

// String renders the assertion for logs.
func (a *Assertion) String() string {
	tomb := ""
	if a.Deleted {
		tomb = " (deleted)"
	}
	return fmt.Sprintf("%s: %s=%q @%d/%s#%d%s", a.URI, a.Name, a.Value, a.Clock, a.Origin, a.Seq, tomb)
}

// Encode writes the assertion to e.
func (a *Assertion) Encode(e *xdr.Encoder) {
	e.PutString(a.URI)
	e.PutString(a.Name)
	e.PutString(a.Value)
	e.PutUint64(a.Clock)
	e.PutString(a.Origin)
	e.PutUint64(a.Seq)
	e.PutBool(a.Deleted)
	e.PutInt64(a.ServerTime)
	e.PutBytes(a.Signature)
	e.PutString(a.Signer)
}

// Per-field wire-decode caps handed to the xdr *Max decoders: URIs,
// names and origins are short; values are bounded well below the frame
// limit; a signature is an ed25519 signature plus slack.
const (
	maxWireURI   = 4096
	maxWireValue = 1 << 20
	maxWireSig   = 256
	maxWireItems = 64 << 10 // list responses: values, URIs, names
)

// DecodeAssertion reads an assertion written by Encode.
func DecodeAssertion(d *xdr.Decoder) (Assertion, error) {
	var a Assertion
	var err error
	if a.URI, err = d.StringMax(maxWireURI); err != nil {
		return a, err
	}
	if a.Name, err = d.StringMax(maxWireURI); err != nil {
		return a, err
	}
	if a.Value, err = d.StringMax(maxWireValue); err != nil {
		return a, err
	}
	if a.Clock, err = d.Uint64(); err != nil {
		return a, err
	}
	if a.Origin, err = d.StringMax(maxWireURI); err != nil {
		return a, err
	}
	if a.Seq, err = d.Uint64(); err != nil {
		return a, err
	}
	if a.Deleted, err = d.Bool(); err != nil {
		return a, err
	}
	if a.ServerTime, err = d.Int64(); err != nil {
		return a, err
	}
	if a.Signature, err = d.BytesCopyMax(maxWireSig); err != nil {
		return a, err
	}
	if len(a.Signature) == 0 {
		a.Signature = nil
	}
	if a.Signer, err = d.StringMax(maxWireURI); err != nil {
		return a, err
	}
	return a, nil
}

// EncodeAssertions writes a length-prefixed assertion list.
func EncodeAssertions(e *xdr.Encoder, as []Assertion) {
	e.PutUint32(uint32(len(as)))
	for i := range as {
		as[i].Encode(e)
	}
}

// DecodeAssertions reads a list written by EncodeAssertions.
func DecodeAssertions(d *xdr.Decoder) ([]Assertion, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	out := make([]Assertion, 0, minInt(int(n), 4096))
	for i := uint32(0); i < n; i++ {
		a, err := DecodeAssertion(d)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// VersionVector summarises how much of each origin's op log a replica
// holds: origin → highest contiguous sequence number applied.
type VersionVector map[string]uint64

// Copy returns an independent copy of the vector.
func (v VersionVector) Copy() VersionVector {
	out := make(VersionVector, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// Dominates reports whether v has seen everything in w.
func (v VersionVector) Dominates(w VersionVector) bool {
	for origin, seq := range w {
		if v[origin] < seq {
			return false
		}
	}
	return true
}

// Encode writes the vector.
func (v VersionVector) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(len(v)))
	for origin, seq := range v {
		e.PutString(origin)
		e.PutUint64(seq)
	}
}

// DecodeVersionVector reads a vector written by Encode.
func DecodeVersionVector(d *xdr.Decoder) (VersionVector, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	// Each entry costs at least 12 encoded bytes (string length + u64);
	// fail fast on hostile counts before the map preallocation below.
	if int64(n)*12 > int64(d.Remaining()) {
		return nil, fmt.Errorf("%w: vector count %d exceeds remaining %d bytes",
			xdr.ErrStringTooLong, n, d.Remaining())
	}
	v := make(VersionVector, minInt(int(n), 1024))
	for i := uint32(0); i < n; i++ {
		origin, err := d.StringMax(maxWireURI)
		if err != nil {
			return nil, err
		}
		seq, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		v[origin] = seq
	}
	return v, nil
}
