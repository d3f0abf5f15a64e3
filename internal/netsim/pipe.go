package netsim

import (
	"errors"
	"net"
	"sync"
	"time"
)

// simAddr is a trivial net.Addr for simulated endpoints.
type simAddr string

func (a simAddr) Network() string { return "netsim" }
func (a simAddr) String() string  { return string(a) }

// Link is a full-duplex simulated link between two endpoints. Both
// stream and packet views share the same shaping machinery; SetDown
// models a link failure for the paper's route-failover behaviour ("the
// ability to switch routes/interfaces as links failed", §6).
type Link struct {
	a2b, b2a *shapedQueue
	profile  Profile
}

// StreamPipe creates a shaped, full-duplex byte-stream link with the
// given profile and returns its two net.Conn endpoints. seed controls
// loss determinism (streams do not lose data, but the seed is shared
// with any packet view of the link).
func StreamPipe(p Profile, seed uint64) (net.Conn, net.Conn, *Link) {
	l := &Link{
		a2b:     newShapedQueue(p, NewRNG(seed), false),
		b2a:     newShapedQueue(p, NewRNG(seed+1), false),
		profile: p,
	}
	a := &streamConn{link: l, tx: l.a2b, rx: l.b2a, local: "netsim-a", remote: "netsim-b"}
	b := &streamConn{link: l, tx: l.b2a, rx: l.a2b, local: "netsim-b", remote: "netsim-a"}
	return a, b, l
}

// PacketPipe creates a shaped, lossy, message-boundary-preserving link
// (a simulated UDP path) and returns its two endpoints.
func PacketPipe(p Profile, seed uint64) (*PacketEnd, *PacketEnd, *Link) {
	l := &Link{
		a2b:     newShapedQueue(p, NewRNG(seed), true),
		b2a:     newShapedQueue(p, NewRNG(seed+1), true),
		profile: p,
	}
	a := &PacketEnd{link: l, tx: l.a2b, rx: l.b2a}
	b := &PacketEnd{link: l, tx: l.b2a, rx: l.a2b}
	return a, b, l
}

// Profile returns the link's medium profile.
func (l *Link) Profile() Profile { return l.profile }

// SetDown takes the link down (true) or restores it (false). While
// down, sends fail with ErrLinkDown and in-flight data is lost.
func (l *Link) SetDown(down bool) {
	l.a2b.setDown(down)
	l.b2a.setDown(down)
}

// Close shuts both directions.
func (l *Link) Close() {
	l.a2b.close()
	l.b2a.close()
}

// DroppedFrames reports frames lost to injected loss or queue overflow,
// both directions.
func (l *Link) DroppedFrames() int {
	return l.a2b.droppedFrames() + l.b2a.droppedFrames()
}

// streamConn is one net.Conn endpoint of a stream link.
type streamConn struct {
	link          *Link
	tx, rx        *shapedQueue
	local, remote string

	mu            sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time
	closeOnce     sync.Once
}

var _ net.Conn = (*streamConn)(nil)

func (c *streamConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	dl := c.readDeadline
	c.mu.Unlock()
	n, err := c.rx.recvStream(p, dl)
	if err == ErrTimeout {
		return n, &net.OpError{Op: "read", Net: "netsim", Err: err}
	}
	return n, err
}

func (c *streamConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	dl := c.writeDeadline
	c.mu.Unlock()
	// Large writes are chunked at the MTU so that shaping sees frames.
	mtu := c.link.profile.MTU
	if mtu <= 0 {
		mtu = 64 << 10
	}
	sent := 0
	for sent < len(p) {
		end := sent + mtu
		if end > len(p) {
			end = len(p)
		}
		if err := c.tx.send(p[sent:end], dl); err != nil {
			if err == ErrTimeout {
				err = &net.OpError{Op: "write", Net: "netsim", Err: err}
			}
			return sent, err
		}
		sent = end
	}
	return sent, nil
}

func (c *streamConn) Close() error {
	c.closeOnce.Do(func() {
		c.tx.close()
		c.rx.close()
	})
	return nil
}

func (c *streamConn) LocalAddr() net.Addr  { return simAddr(c.local) }
func (c *streamConn) RemoteAddr() net.Addr { return simAddr(c.remote) }

func (c *streamConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.mu.Unlock()
	return nil
}

func (c *streamConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return nil
}

func (c *streamConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return nil
}

// PacketEnd is one endpoint of a packet link: unreliable, unordered
// only under loss, message boundaries preserved — the substrate the
// selective-resend UDP protocol runs over.
type PacketEnd struct {
	link   *Link
	tx, rx *shapedQueue

	mu           sync.Mutex
	readDeadline time.Time
}

// Send transmits one datagram. Datagrams larger than the MTU are sent
// whole (IP fragmentation is abstracted away) but pay the serialization
// cost of their fragments. Loss applies per datagram. A full queue
// blocks the sender only until overflowWait; past that the receiver has
// stopped reading and the datagram is dropped, as a full UDP socket
// buffer drops it — two endpoints each blocked sending into the other's
// full queue would otherwise never drain either.
func (e *PacketEnd) Send(p []byte) error {
	err := e.tx.send(p, time.Now().Add(e.tx.overflowWait()))
	if errors.Is(err, ErrTimeout) {
		e.tx.countDrop()
		return nil
	}
	return err
}

// Recv returns the next delivered datagram, honouring the read
// deadline.
func (e *PacketEnd) Recv() ([]byte, error) {
	e.mu.Lock()
	dl := e.readDeadline
	e.mu.Unlock()
	return e.rx.recvPacket(dl)
}

// SetReadDeadline sets the deadline for Recv. A zero time blocks
// indefinitely.
func (e *PacketEnd) SetReadDeadline(t time.Time) {
	e.mu.Lock()
	e.readDeadline = t
	e.mu.Unlock()
}

// Close shuts down this endpoint's transmit direction and wakes any
// blocked receiver on the other side.
func (e *PacketEnd) Close() error {
	e.tx.close()
	e.rx.close()
	return nil
}

// MTU reports the link MTU.
func (e *PacketEnd) MTU() int { return e.link.profile.MTU }
