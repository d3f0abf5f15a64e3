package rcds

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"snipe/internal/seckey"
	"snipe/internal/xdr"
)

// Command codes of the RC server protocol. The 1997 implementation used
// SUN RPC with MD5-hashed shared secrets (§6); this build speaks a
// length-prefixed binary protocol with optional HMAC-SHA256 message
// authentication — the same shared-secret mechanism with a current hash
// (see DESIGN.md substitutions).
//
// Framing is multiplexed: every request and response body begins with a
// uint64 request ID chosen by the client. One connection carries many
// in-flight requests; the server answers each in its own goroutine and
// may write responses out of order, so a long-poll Wait never blocks a
// concurrent Get on the same connection.
const (
	cmdPing uint8 = iota + 1
	cmdSet
	cmdAdd
	cmdAddSigned
	cmdRemove
	cmdRemoveAll
	cmdGet
	cmdValues
	cmdFirst
	cmdURIs
	cmdVector
	cmdOpsSince
	cmdApply
	cmdWait
	cmdStats
	cmdCatchup
	cmdSnapshotPage
)

// Response status codes.
const (
	statusOK  uint8 = 0
	statusErr uint8 = 1
	// statusWrongShard redirects an op on a URI this replica's group
	// does not own; the payload carries the owning group index (uint32)
	// and the server's shard-map epoch (uint64).
	statusWrongShard uint8 = 2
)

// Catchup response modes (cmdCatchup).
const (
	// catchupModeTail: the response carries an assertion tail the
	// requester applies directly (its vector is above the server's
	// log-compaction floor).
	catchupModeTail uint8 = 1
	// catchupModeSnapshot: the requester is behind the compaction
	// horizon; it must page the compacted snapshot (cmdSnapshotPage)
	// and then pull the tail.
	catchupModeSnapshot uint8 = 2
)

// Frame size limit: a single RPC may carry at most this many bytes.
const maxFrame = 16 << 20

// Errors of the wire layer.
var (
	// ErrFrameTooLarge indicates a declared frame beyond maxFrame.
	ErrFrameTooLarge = errors.New("rcds: frame too large")
	// ErrBadMAC indicates a frame failing HMAC verification.
	ErrBadMAC = errors.New("rcds: bad frame MAC")
	// ErrServer wraps an error string returned by the server.
	ErrServer = errors.New("rcds: server error")
	// ErrNoServers indicates every configured RC server failed.
	ErrNoServers = errors.New("rcds: no reachable RC server")
	// ErrUnknownStatus indicates a response status tag the protocol does
	// not define — a version skew or corruption signal, distinct from a
	// server-reported error.
	ErrUnknownStatus = errors.New("rcds: unknown response status")
)

const macSize = 32

// writeFrame sends one length-prefixed frame, appending an HMAC when
// secret is non-empty.
func writeFrame(w io.Writer, body []byte, secret []byte) error {
	total := len(body)
	if len(secret) > 0 {
		total += macSize
	}
	if total > maxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(total))
	bufs := net.Buffers{hdr[:], body}
	if len(secret) > 0 {
		bufs = append(bufs, seckey.SumMAC(secret, body))
	}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame receives one frame, verifying its HMAC when secret is
// non-empty and returning the body.
func readFrame(r io.Reader, secret []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, ErrFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if len(secret) > 0 {
		if len(buf) < macSize {
			return nil, ErrBadMAC
		}
		body, mac := buf[:len(buf)-macSize], buf[len(buf)-macSize:]
		if !seckey.CheckMAC(secret, body, mac) {
			return nil, ErrBadMAC
		}
		return body, nil
	}
	return buf, nil
}

// muxBody prepends the request ID to a request or response body,
// forming the frame body that goes on the wire (and under the MAC).
func muxBody(id uint64, body []byte) []byte {
	out := make([]byte, 8+len(body))
	binary.BigEndian.PutUint64(out, id)
	copy(out[8:], body)
	return out
}

// splitMux separates a frame body into its request ID and payload.
func splitMux(frame []byte) (uint64, []byte, error) {
	if len(frame) < 8 {
		return 0, nil, errors.New("rcds: short mux frame")
	}
	return binary.BigEndian.Uint64(frame), frame[8:], nil
}

// request assembles cmd+payload into a frame body.
func request(cmd uint8, payload func(*xdr.Encoder)) []byte {
	e := xdr.NewEncoder(64)
	e.PutUint8(cmd)
	if payload != nil {
		payload(e)
	}
	return e.Bytes()
}

// okResponse assembles a success response.
func okResponse(payload func(*xdr.Encoder)) []byte {
	e := xdr.NewEncoder(64)
	e.PutUint8(statusOK)
	if payload != nil {
		payload(e)
	}
	return e.Bytes()
}

// errResponse assembles an error response.
func errResponse(err error) []byte {
	e := xdr.NewEncoder(64)
	e.PutUint8(statusErr)
	e.PutString(err.Error())
	return e.Bytes()
}

// wrongShardResponse assembles a wrong-shard redirect naming the owning
// group under the server's shard map of the given epoch.
func wrongShardResponse(group int, epoch uint64) []byte {
	e := xdr.NewEncoder(16)
	e.PutUint8(statusWrongShard)
	e.PutUint32(uint32(group))
	e.PutUint64(epoch)
	return e.Bytes()
}

// maxWatchURIs caps the changed-URI list one Wait reply carries; a
// longer list is replaced by an incomplete reply.
const maxWatchURIs = 1024

// waitReply is the payload of a Wait long-poll reply: the catalog
// version, whether uris lists every change in (since, version], and
// those changed URIs. The request names how many URIs it wants, so a
// plain version wait (max 0) gets an empty, usually incomplete list.
type waitReply struct {
	version  uint64
	complete bool
	uris     []string
}

func decodeWaitReply(d *xdr.Decoder) (waitReply, error) {
	var r waitReply
	var err error
	if r.version, err = d.Uint64(); err != nil {
		return r, err
	}
	if r.complete, err = d.Bool(); err != nil {
		return r, err
	}
	r.uris, err = d.StringSliceMax(maxWatchURIs, maxWireURI)
	return r, err
}

// parseResponse splits a response into a decoder positioned at the
// payload, or the server-side error.
func parseResponse(body []byte) (*xdr.Decoder, error) {
	d := xdr.NewDecoder(body)
	status, err := d.Uint8()
	if err != nil {
		return nil, err
	}
	switch status {
	case statusOK:
		return d, nil
	case statusErr:
		msg, err := d.StringMax(maxWireValue)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %s", ErrServer, msg)
	case statusWrongShard:
		group, err := d.Uint32()
		if err != nil {
			return nil, err
		}
		epoch, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		return nil, &WrongShardError{Group: int(group), Epoch: epoch}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownStatus, status)
	}
}
