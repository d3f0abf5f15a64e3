package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"

	"snipe/internal/comm"
	"snipe/internal/core"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/service"
)

const (
	svcName   = "perfbench-echo"
	svcMethod = "echo"
)

// errWrongResponse marks a call whose reply failed its check.
var errWrongResponse = errors.New("wrong response")

// svcCluster is a service group of spec.replicas echo replicas, each on
// its own endpoint, plus one client endpoint shared by every caller. The
// catalog is one RC group of 2 master–master replicas reached through
// the read-cached rcds.Client core.Universe builds.
type svcCluster struct {
	spec    workloadSpec
	seed    int64
	u       *core.Universe
	rc      *rcds.Client
	eps     []*comm.Endpoint // replicas first, client last
	servers []*service.Server
	cliEP   *comm.Endpoint
	mux     *comm.StreamMux
	cli     *service.Client
	tr      atomic.Pointer[tracer] // set for the traced window; the handler records spans
	corrupt bool                   // handler answers wrong bytes (self-test only)
}

func newSvcCluster(spec workloadSpec, seed int64) (cluster, error) {
	return startSvc(spec, seed, false)
}

func startSvc(spec workloadSpec, seed int64, corrupt bool) (*svcCluster, error) {
	u, err := core.New(core.Config{RCServers: 2})
	if err != nil {
		return nil, err
	}
	c := &svcCluster{spec: spec, seed: seed, u: u, rc: catalogClient(u), corrupt: corrupt}
	cat := u.Catalog()
	endpoint := func(urn string) (*comm.Endpoint, error) {
		ep := comm.NewEndpoint(urn, comm.WithResolver(naming.NewResolver(cat)))
		c.eps = append(c.eps, ep)
		route, err := ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
		if err != nil {
			return nil, err
		}
		return ep, naming.Register(cat, urn, []comm.Route{route})
	}
	for i := 0; i < spec.replicas; i++ {
		ep, err := endpoint(naming.ProcessURN(fmt.Sprintf("svc%d", i+1), "echo"))
		if err != nil {
			c.close()
			return nil, err
		}
		srv, err := service.NewServer(service.ServerConfig{Name: svcName, Catalog: cat, Endpoint: ep})
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		srv.Handle(svcMethod, c.handle)
	}
	if c.cliEP, err = endpoint(naming.ProcessURN("cli", "perfbench")); err != nil {
		c.close()
		return nil, err
	}
	c.mux = comm.NewStreamMux(c.cliEP)
	c.cli, err = service.NewClient(service.ClientConfig{
		Service: svcName, Catalog: cat, Endpoint: c.cliEP, Mux: c.mux,
	})
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// catalogClient is the universe's shared rcds.Client.
func catalogClient(u *core.Universe) *rcds.Client {
	return u.Catalog().(interface{ Client() *rcds.Client }).Client()
}

func (c *svcCluster) close() {
	if c.cli != nil {
		c.cli.Close()
	}
	if c.mux != nil {
		c.mux.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, ep := range c.eps {
		ep.Close()
	}
	c.u.Close()
}

// reply is the server's answer to req: for svc-small respBytes derived
// from every request byte, for svc-bulk the head of its SHA-256.
func reply(req []byte, respBytes int) []byte {
	if respBytes <= sha256.Size {
		sum := sha256.Sum256(req)
		return sum[:respBytes]
	}
	out := make([]byte, respBytes)
	for i := range out {
		out[i] = req[i%len(req)] ^ byte(i) ^ 0x5a
	}
	return out
}

// handle is the echo handler every replica runs. In the traced window a
// request carries its request ID in its last 8 bytes, and the handler
// records its own spans under it once the body is in.
func (c *svcCluster) handle(ctx context.Context, st *comm.Stream) error {
	tr := c.tr.Load()
	var start int64
	var reads [][2]int64
	if tr != nil {
		start = tr.now()
	}
	var body []byte
	for {
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		chunk, err := st.Read(ctx)
		if tr != nil {
			reads = append(reads, [2]int64{t0, tr.now()})
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if body == nil {
			body = chunk
		} else {
			body = append(body, chunk...)
		}
	}
	resp := reply(body, c.spec.respBytes)
	if c.corrupt {
		resp = append([]byte(nil), resp...)
		resp[0] ^= 0xff
	}
	if tr == nil || len(body) < 8 {
		return st.Write(ctx, resp)
	}
	req := binary.BigEndian.Uint64(body[len(body)-8:])
	id, _ := tr.open()
	for _, r := range reads {
		rid, _ := tr.open()
		tr.add(span{ID: rid, Parent: id, Req: req, Name: "Stream.Read", Layer: "server", Start: r[0], End: r[1]})
	}
	err := tr.do(id, req, "Stream.Write", "server", func() error { return st.Write(ctx, resp) })
	tr.add(span{ID: id, Parent: req, Req: req, Name: "handler", Layer: "server", Start: start, End: tr.now()})
	return err
}

// svcCaller sends seeded requests and checks each reply byte for byte.
type svcCaller struct {
	c    *svcCluster
	rng  *rand.Rand
	pool [][]byte // svc-bulk: payloads and their expected replies
	want [][]byte
	n    int
	// Traced svc-bulk requests: copies of pool whose last 8 bytes carry
	// the request ID, and the SHA-256 state of everything before them,
	// so the expected reply costs one block per call.
	traced [][]byte
	prefix [][]byte
}

func (c *svcCluster) newCaller(id int) caller {
	sc := &svcCaller{c: c, rng: rand.New(rand.NewSource(c.seed*1_000_003 + int64(id)))}
	if c.spec.reqBytes >= 1<<16 {
		// Bulk payloads are generated once and rotated; the replies are
		// precomputed so the caller's check costs nothing per call.
		for i := 0; i < 4; i++ {
			p := make([]byte, c.spec.reqBytes)
			sc.rng.Read(p)
			sc.pool = append(sc.pool, p)
			sc.want = append(sc.want, reply(p, c.spec.respBytes))
		}
	}
	return sc
}

func (sc *svcCaller) op(ctx context.Context, tr *tracer) (int, int, error) {
	c := sc.c
	k := sc.n % 4
	sc.n++
	if tr != nil {
		return kindCall, c.spec.reqBytes, sc.tracedCall(ctx, tr, k)
	}
	var req, want []byte
	if sc.pool != nil {
		req, want = sc.pool[k], sc.want[k]
	} else {
		req = make([]byte, c.spec.reqBytes)
		sc.rng.Read(req)
		want = reply(req, c.spec.respBytes)
	}
	resp, err := c.cli.Call(ctx, svcMethod, req)
	if err != nil {
		return kindCall, len(req), err
	}
	if !bytes.Equal(resp, want) {
		return kindCall, len(req), errWrongResponse
	}
	return kindCall, len(req), nil
}

// tracedRequest returns the k-th request stamped with request ID id, and
// its expected reply.
func (sc *svcCaller) tracedRequest(k int, id uint64) (req, want []byte, err error) {
	c := sc.c
	if sc.pool == nil {
		req = make([]byte, c.spec.reqBytes)
		sc.rng.Read(req)
		binary.BigEndian.PutUint64(req[len(req)-8:], id)
		return req, reply(req, c.spec.respBytes), nil
	}
	if sc.traced == nil {
		for _, p := range sc.pool {
			h := sha256.New()
			h.Write(p[:len(p)-8])
			state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil {
				return nil, nil, err
			}
			sc.traced = append(sc.traced, append([]byte(nil), p...))
			sc.prefix = append(sc.prefix, state)
		}
	}
	req = sc.traced[k]
	binary.BigEndian.PutUint64(req[len(req)-8:], id)
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(sc.prefix[k]); err != nil {
		return nil, nil, err
	}
	h.Write(req[len(req)-8:])
	return req, h.Sum(nil)[:c.spec.respBytes], nil
}

// tracedCall performs one call as its public steps — Candidates, Open,
// Write, CloseWrite, Read to EOF — each recorded as a span under one
// request ID that also travels in the request.
func (sc *svcCaller) tracedCall(ctx context.Context, tr *tracer, k int) error {
	root, _ := tr.open()
	req, want, err := sc.tracedRequest(k, root)
	if err != nil {
		return err
	}
	start := tr.now()
	err = sc.tracedSteps(ctx, tr, root, req, want)
	tr.finish(root, 0, root, "op", "bench", start)
	return err
}

func (sc *svcCaller) tracedSteps(ctx context.Context, tr *tracer, root uint64, req, want []byte) error {
	c := sc.c
	var cands []string
	err := tr.do(root, root, "Client.Candidates", "service", func() (err error) {
		cands, err = c.cli.Candidates()
		return err
	})
	if err != nil {
		return err
	}
	var st *comm.Stream
	err = tr.do(root, root, "StreamMux.Open", "streammux", func() (err error) {
		st, err = c.mux.Open(ctx, cands[0], svcMethod)
		return err
	})
	if err != nil {
		return err
	}
	ok := false
	defer func() {
		if !ok {
			st.Reset("traced call abandoned")
		}
	}()
	if err := tr.do(root, root, "Stream.Write", "streammux", func() error { return st.Write(ctx, req) }); err != nil {
		return err
	}
	if err := tr.do(root, root, "Stream.CloseWrite", "streammux", st.CloseWrite); err != nil {
		return err
	}
	var resp []byte
	for {
		var chunk []byte
		err := tr.do(root, root, "Stream.Read", "streammux", func() (err error) {
			chunk, err = st.Read(ctx)
			return err
		})
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		resp = append(resp, chunk...)
	}
	ok = true
	if !bytes.Equal(resp, want) {
		return errWrongResponse
	}
	return nil
}

// check has nothing to quiesce: every reply was checked as it arrived.
func (c *svcCluster) check() (int, error) { return 0, nil }

func (c *svcCluster) counters() counterSet {
	return readCounters(c.eps, c.u.RCGroups(), c.rc)
}
