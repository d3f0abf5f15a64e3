// Package netsim emulates the communication media of the SNIPE testbed.
//
// The paper's Fig. 1 reports "Bandwidth in MegaBytes/Second offered to
// SNIPE client applications on various media" — 10/100 Mbit Ethernet and
// 155 Mbit ATM. That hardware is not available here, so netsim restores
// the media's first-order properties (serialization rate, propagation
// latency, frame overhead, loss) around real in-process byte pipes. The
// SNIPE communication stack (framing, fragmentation, TCP-style stream
// transport, the selective-resend UDP protocol) runs unmodified over
// these pipes, so the bandwidth-vs-message-size curves have the same
// shape as the paper's: per-message overhead dominating small messages,
// saturation at the medium's rate for large ones.
//
// The model: each direction of a link has a virtual transmit clock.
// Sending n bytes advances the clock by (n+overhead)/rate; the data
// becomes readable at clock+latency. Writers therefore pipeline — many
// frames can be "in flight" — while a bounded queue models finite
// buffering and provides backpressure.
package netsim

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"snipe/internal/stats"
)

// Package-level telemetry: every shaped link direction feeds the same
// registry, giving experiments a media-level picture of traffic shaped
// and losses injected across all simulated links in the process.
var (
	metrics       = stats.NewRegistry()
	mShapedBytes  = metrics.Counter("shaped_bytes")
	mShapedFrames = metrics.Counter("shaped_frames")
	mInjectedLoss = metrics.Counter("injected_losses")
)

// Metrics returns the simulator's shared metric registry.
func Metrics() *stats.Registry { return metrics }

// Profile describes a communication medium.
type Profile struct {
	Name          string
	BitsPerSec    float64       // raw signalling rate
	Latency       time.Duration // one-way propagation + switch delay
	Loss          float64       // per-frame loss probability (packet pipes)
	MTU           int           // maximum frame payload in bytes
	FrameOverhead int           // per-frame header/trailer bytes on the wire
}

// BytesPerSec returns the payload serialization rate.
func (p Profile) BytesPerSec() float64 { return p.BitsPerSec / 8 }

// TransmitTime returns the serialization time for n payload bytes sent
// as a single frame.
func (p Profile) TransmitTime(n int) time.Duration {
	return time.Duration(float64(n+p.FrameOverhead) / p.BytesPerSec() * float64(time.Second))
}

// String returns the profile name.
func (p Profile) String() string { return p.Name }

// Media profiles calibrated to the paper's testbed. Latencies are
// representative of 1997-era switched LANs; the ATM AAL5 path has lower
// per-cell latency but higher per-frame overhead (cell tax).
var (
	// Ethernet10 is 10 Mbit shared Ethernet.
	Ethernet10 = Profile{Name: "10Mb-ethernet", BitsPerSec: 10e6, Latency: 400 * time.Microsecond, MTU: 1500, FrameOverhead: 26}
	// Ethernet100 is 100 Mbit switched Ethernet, the paper's main LAN.
	Ethernet100 = Profile{Name: "100Mb-ethernet", BitsPerSec: 100e6, Latency: 120 * time.Microsecond, MTU: 1500, FrameOverhead: 26}
	// ATM155 is 155 Mbit ATM with AAL5 framing (cell tax ≈ 5/53).
	ATM155 = Profile{Name: "155Mb-ATM", BitsPerSec: 155e6 * 48 / 53, Latency: 90 * time.Microsecond, MTU: 9180, FrameOverhead: 48}
	// Myrinet is the paper testbed's system-area network: 1.28 Gbit
	// links with single-digit-microsecond switch latency and large
	// frames (no inter-frame gap tax worth modelling).
	Myrinet = Profile{Name: "1.28Gb-myrinet", BitsPerSec: 1.28e9, Latency: 9 * time.Microsecond, MTU: 16384, FrameOverhead: 8}
	// WAN is a lossy wide-area path, for robustness experiments.
	WAN = Profile{Name: "WAN", BitsPerSec: 8e6, Latency: 20 * time.Millisecond, Loss: 0.01, MTU: 1500, FrameOverhead: 40}
	// Loopback is an effectively unconstrained local link, the baseline.
	Loopback = Profile{Name: "loopback", BitsPerSec: 8e9, Latency: 5 * time.Microsecond, MTU: 65536, FrameOverhead: 0}
)

// WithLoss returns a copy of the profile with the given frame loss rate.
func (p Profile) WithLoss(loss float64) Profile {
	p.Loss = loss
	p.Name = fmt.Sprintf("%s+loss%.3g", p.Name, loss)
	return p
}

// WithLatency returns a copy of the profile with the given latency.
func (p Profile) WithLatency(d time.Duration) Profile {
	p.Latency = d
	return p
}

// RNG is a splitmix64 generator: deterministic, seedable, and cheap, so
// loss patterns reproduce exactly across runs.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next pseudo-random value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a value in [0,n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Errors returned by simulated links.
var (
	// ErrClosed indicates the pipe or link has been closed.
	ErrClosed = errors.New("netsim: closed")
	// ErrLinkDown indicates a link administratively taken down (for
	// failover experiments).
	ErrLinkDown = errors.New("netsim: link down")
	// ErrTimeout indicates a deadline expired. It implements the
	// net.Error Timeout contract so transport code can treat simulated
	// and real deadline expiries uniformly.
	ErrTimeout error = timeoutError{}
)

// timeoutError is the concrete type of ErrTimeout.
type timeoutError struct{}

func (timeoutError) Error() string   { return "netsim: deadline exceeded" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// chunk is a unit of shaped data awaiting delivery.
type chunk struct {
	data      []byte
	deliverAt time.Time
}

// shapedQueue is one direction of a link: a bounded FIFO of chunks with
// delivery times assigned by the virtual transmit clock.
type shapedQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	profile  Profile
	txClock  time.Time // virtual time the transmitter frees up
	queued   int       // bytes awaiting delivery
	maxQueue int       // backpressure threshold
	chunks   []chunk
	closed   bool
	down     bool
	rng      *RNG
	packet   bool // preserve message boundaries and apply loss
	dropped  int  // frames dropped by loss injection or overflow (packet mode)
}

func newShapedQueue(p Profile, rng *RNG, packet bool) *shapedQueue {
	// Queue capacity: at least 256 KiB or twice the bandwidth-delay
	// product, so a saturated sender can keep the pipe full.
	bdp := int(p.BytesPerSec() * p.Latency.Seconds())
	maxQueue := 256 << 10
	if 2*bdp > maxQueue {
		maxQueue = 2 * bdp
	}
	q := &shapedQueue{profile: p, maxQueue: maxQueue, rng: rng, packet: packet}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// send shapes and enqueues data, blocking for backpressure. The data is
// copied. deadline of zero means block indefinitely.
func (q *shapedQueue) send(data []byte, deadline time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && !q.down && q.queued+len(data) > q.maxQueue && q.queued > 0 {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return ErrTimeout
		}
		q.waitLocked(deadline)
	}
	if q.closed {
		return ErrClosed
	}
	if q.down {
		return ErrLinkDown
	}
	if q.packet && q.profile.Loss > 0 && q.rng.Float64() < q.profile.Loss {
		q.dropped++
		mInjectedLoss.Inc()
		return nil // frame silently lost, as UDP would
	}
	now := time.Now()
	if q.txClock.Before(now) {
		q.txClock = now
	}
	// Serialization: frames larger than the MTU occupy the wire for
	// their full fragmented length (each fragment pays frame overhead).
	n := len(data)
	frames := 1
	if q.profile.MTU > 0 && n > q.profile.MTU {
		frames = (n + q.profile.MTU - 1) / q.profile.MTU
	}
	txTime := time.Duration(float64(n+frames*q.profile.FrameOverhead) / q.profile.BytesPerSec() * float64(time.Second))
	q.txClock = q.txClock.Add(txTime)
	cp := make([]byte, n)
	copy(cp, data)
	q.chunks = append(q.chunks, chunk{data: cp, deliverAt: q.txClock.Add(q.profile.Latency)})
	q.queued += n
	mShapedBytes.Add(uint64(n))
	mShapedFrames.Add(uint64(frames))
	q.cond.Broadcast()
	return nil
}

// overflowWait is how long a datagram waits for room in a full queue
// before it is dropped: twice the time the link takes to deliver a full
// queue. A longer wait means the receiver has stopped reading.
func (q *shapedQueue) overflowWait() time.Duration {
	drain := time.Duration(float64(q.maxQueue) / q.profile.BytesPerSec() * float64(time.Second))
	return 2 * (drain + q.profile.Latency)
}

// countDrop records a datagram dropped for want of queue room.
func (q *shapedQueue) countDrop() {
	q.mu.Lock()
	q.dropped++
	q.mu.Unlock()
}

// waitLocked waits on the condition with an optional deadline.
func (q *shapedQueue) waitLocked(deadline time.Time) {
	if deadline.IsZero() {
		q.cond.Wait()
		return
	}
	// Timed wait: poll via a timer that broadcasts.
	t := time.AfterFunc(time.Until(deadline), func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	q.cond.Wait()
	t.Stop()
}

// recvStream reads up to len(p) bytes, blocking until the earliest
// chunk's delivery time. Stream mode: chunk boundaries are not
// preserved.
func (q *shapedQueue) recvStream(p []byte, deadline time.Time) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.chunks) > 0 {
			wait := time.Until(q.chunks[0].deliverAt)
			if wait <= 0 {
				n := 0
				for n < len(p) && len(q.chunks) > 0 && !time.Now().Before(q.chunks[0].deliverAt) {
					c := &q.chunks[0]
					m := copy(p[n:], c.data)
					n += m
					if m == len(c.data) {
						q.chunks = q.chunks[1:]
					} else {
						c.data = c.data[m:]
					}
					q.queued -= m
				}
				q.cond.Broadcast()
				return n, nil
			}
			// Sleep (unlocked) until delivery or deadline.
			if !deadline.IsZero() && deadline.Before(q.chunks[0].deliverAt) {
				if time.Now().After(deadline) {
					return 0, ErrTimeout
				}
				wait = time.Until(deadline)
			}
			q.mu.Unlock()
			time.Sleep(wait)
			q.mu.Lock()
			continue
		}
		if q.closed {
			return 0, io.EOF
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return 0, ErrTimeout
		}
		q.waitLocked(deadline)
	}
}

// recvPacket returns the next whole frame, blocking until delivery.
func (q *shapedQueue) recvPacket(deadline time.Time) ([]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.chunks) > 0 {
			wait := time.Until(q.chunks[0].deliverAt)
			if wait <= 0 {
				c := q.chunks[0]
				q.chunks = q.chunks[1:]
				q.queued -= len(c.data)
				q.cond.Broadcast()
				return c.data, nil
			}
			if !deadline.IsZero() && deadline.Before(q.chunks[0].deliverAt) {
				if time.Now().After(deadline) {
					return nil, ErrTimeout
				}
				wait = time.Until(deadline)
			}
			q.mu.Unlock()
			time.Sleep(wait)
			q.mu.Lock()
			continue
		}
		if q.closed {
			return nil, io.EOF
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, ErrTimeout
		}
		q.waitLocked(deadline)
	}
}

func (q *shapedQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *shapedQueue) setDown(down bool) {
	q.mu.Lock()
	q.down = down
	if down {
		// A downed link loses everything in flight.
		q.chunks = nil
		q.queued = 0
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *shapedQueue) droppedFrames() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}
