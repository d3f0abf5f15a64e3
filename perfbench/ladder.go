package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"snipe/internal/comm"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/service"
	"snipe/internal/xdr"
)

// The ladder replays a workload's message sizes or catalog key sequence
// one layer at a time, from the xdr codec up to service.Client.Call. A
// layer's cost is the difference between adjacent rows. Every row is a
// single caller timing each operation; allocations are process-wide, so
// a row counts the work of both sides of the layer.

// keyOp is one catalog operation of a replayed key sequence.
type keyOp struct {
	kind int // kindGet or kindSet
	uri  string
}

// rowStats summarises one ladder pass.
type rowStats struct {
	med    time.Duration // median per operation
	allocs float64       // per operation
	bytes  float64       // allocated bytes per operation
}

// pass runs fn n times as one ladder row named row. Each operation is
// recorded as a span under one root span for the row.
func pass(tr *tracer, row, layer string, n int, fn func(i int) error) (rowStats, error) {
	lat := make([]float64, 0, n)
	root, rootStart := tr.open()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		id, start := tr.open()
		t0 := time.Now()
		err := fn(i)
		lat = append(lat, float64(time.Since(t0)))
		tr.finish(id, root, root, row, layer, start)
		if err != nil {
			return rowStats{}, fmt.Errorf("ladder %s: %w", row, err)
		}
	}
	runtime.ReadMemStats(&m1)
	tr.finish(root, 0, root, "ladder."+row, "bench", rootStart)
	sort.Float64s(lat)
	return rowStats{
		med:    time.Duration(quantile(lat, 0.5)),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}, nil
}

// roundTrips is how many round trips a comm row times: enough to move
// 256 MiB, between 100 and 3000.
func roundTrips(req, resp int) int {
	return min(max((256<<20)/(req+resp), 100), 3000)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// payloadOf returns n seeded bytes.
func payloadOf(n int, seed int64) []byte {
	p := make([]byte, n)
	for i := range p {
		seed = seed*6364136223846793005 + 1442695040888963407
		p[i] = byte(seed >> 56)
	}
	return p
}

// xdrRow times the codec on a comm message frame of req bytes
// (fragmented at the tcp MTU as the endpoint does) and on the catalog
// assertion lists the key sequence reads.
func xdrRow(req []byte, lists [][]rcds.Assertion) (map[string]metric, error) {
	const mtu = 64 << 10
	const src, dst = "urn:snipe:process:cli/perfbench", "urn:snipe:process:svc1/echo"
	n := min(max((64<<20)/len(req), 200), 20000)
	e := xdr.NewEncoder(min(len(req), mtu) + 128)
	frags := (len(req) + mtu - 1) / mtu
	encode := func(i, f int) []byte {
		e.Reset()
		e.PutUint8(1)
		e.PutString(src)
		e.PutString(dst)
		e.PutUint32(7)
		e.PutUint64(uint64(i))
		e.PutUint32(uint32(f))
		e.PutUint32(uint32(frags))
		e.PutUint8(0)
		e.PutBytes(req[f*mtu : min((f+1)*mtu, len(req))])
		return e.Bytes()
	}
	wire := make([][]byte, frags)
	for f := range wire {
		wire[f] = append([]byte(nil), encode(0, f)...)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for f := 0; f < frags; f++ {
			encode(i, f)
		}
	}
	encNs := float64(time.Since(t0)) / float64(n)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		for _, w := range wire {
			if err := decodeFrame(w); err != nil {
				return nil, err
			}
		}
	}
	decNs := float64(time.Since(t0)) / float64(n)
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(2*n)

	var asNs float64
	if len(lists) > 0 {
		encoded := make([][]byte, len(lists))
		for i, as := range lists {
			e := xdr.NewEncoder(256)
			rcds.EncodeAssertions(e, as)
			encoded[i] = e.Bytes()
		}
		reps := max(20000/len(lists), 1)
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			for _, b := range encoded {
				if _, err := rcds.DecodeAssertions(xdr.NewDecoder(b)); err != nil {
					return nil, err
				}
			}
		}
		asNs = float64(time.Since(t0)) / float64(reps*len(encoded))
	}
	return map[string]metric{
		"xdr.encode_ns":            {encNs, "ns"},
		"xdr.decode_ns":            {decNs, "ns"},
		"xdr.assertions_decode_ns": {asNs, "ns"},
		"xdr.allocs_per_op":        {allocs, "count"},
	}, nil
}

// decodeFrame reads back one frame written by xdrRow's encoder.
func decodeFrame(w []byte) error {
	d := xdr.NewDecoder(w)
	var errs [9]error
	_, errs[0] = d.Uint8()
	_, errs[1] = d.StringMax(4096)
	_, errs[2] = d.StringMax(4096)
	_, errs[3] = d.Uint32()
	_, errs[4] = d.Uint64()
	_, errs[5] = d.Uint32()
	_, errs[6] = d.Uint32()
	_, errs[7] = d.Uint8()
	_, errs[8] = d.BytesMax(1 << 20)
	return errors.Join(append(errs[:], d.Finish())...)
}

// transportRow ping-pongs req and resp bytes over one tcp FrameConn,
// in MTU-sized frames.
func transportRow(tr *tracer, req, resp []byte) (map[string]metric, error) {
	t := comm.TCPTransport{}
	ln, err := t.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	accepted := make(chan comm.FrameConn, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- conn
		for recvBytes(conn, len(req)) == nil && sendBytes(conn, resp) == nil {
		}
	}()
	conn, err := t.Dial(ln.Addr())
	if err != nil {
		ln.Close()
		wg.Wait()
		return nil, err
	}
	server, ok := <-accepted
	defer func() {
		conn.Close()
		if ok {
			server.Close()
		}
		ln.Close()
		wg.Wait()
	}()
	if !ok {
		return nil, fmt.Errorf("ladder transport: accept failed")
	}
	st, err := pass(tr, "transport.rtt", "comm.transport", roundTrips(len(req), len(resp)), func(int) error {
		if err := sendBytes(conn, req); err != nil {
			return err
		}
		return recvBytes(conn, len(resp))
	})
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"comm.transport.rtt_us":        {us(st.med), "us"},
		"comm.transport.allocs_per_op": {st.allocs, "count"},
	}, nil
}

func sendBytes(conn comm.FrameConn, p []byte) error {
	mtu := conn.MTU()
	for off := 0; off < len(p) || off == 0; off += mtu {
		if err := conn.Send(p[off:min(off+mtu, len(p))]); err != nil {
			return err
		}
		if len(p) == 0 {
			break
		}
	}
	return nil
}

func recvBytes(conn comm.FrameConn, n int) error {
	for got := 0; got < n; {
		f, err := conn.Recv()
		if err != nil {
			return err
		}
		got += len(f)
	}
	return nil
}

// endpointPair is two tcp endpoints that resolve each other through an
// in-process catalog.
func endpointPair() (a, b *comm.Endpoint, err error) {
	cat := naming.StoreCatalog(rcds.NewStore("ladder"))
	mk := func(urn string) (*comm.Endpoint, error) {
		ep := comm.NewEndpoint(urn, comm.WithResolver(naming.NewResolver(cat)))
		route, err := ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
		if err != nil {
			ep.Close()
			return nil, err
		}
		if err := naming.Register(cat, urn, []comm.Route{route}); err != nil {
			ep.Close()
			return nil, err
		}
		return ep, nil
	}
	if a, err = mk(naming.ProcessURN("ladder-a", "cli")); err != nil {
		return nil, nil, err
	}
	if b, err = mk(naming.ProcessURN("ladder-b", "srv")); err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

// endpointRow ping-pongs req and resp as acknowledged Endpoint messages.
func endpointRow(tr *tracer, req, resp []byte) (map[string]metric, error) {
	a, b, err := endpointPair()
	if err != nil {
		return nil, err
	}
	defer a.Close()
	defer b.Close()
	const reqTag, respTag = 11, 12
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := b.RecvMatch(ctx, a.URN(), reqTag); err != nil {
				return
			}
			if err := b.SendWait(ctx, a.URN(), respTag, resp); err != nil {
				return
			}
		}
	}()
	st, err := pass(tr, "endpoint.rtt", "comm.endpoint", roundTrips(len(req), len(resp)), func(int) error {
		octx, ocancel := context.WithTimeout(ctx, opTimeout)
		defer ocancel()
		if err := a.SendWait(octx, b.URN(), reqTag, req); err != nil {
			return err
		}
		_, err := a.RecvMatch(octx, b.URN(), respTag)
		return err
	})
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"comm.endpoint.rtt_us":        {us(st.med), "us"},
		"comm.endpoint.allocs_per_op": {st.allocs, "count"},
		"comm.endpoint.bytes_per_op":  {st.bytes, "B"},
	}, nil
}

// streammuxRow runs req/resp exchanges on fresh streams between two
// StreamMuxes, the way service.Call uses them.
func streammuxRow(tr *tracer, req, resp []byte) (map[string]metric, error) {
	a, b, err := endpointPair()
	if err != nil {
		return nil, err
	}
	defer a.Close()
	defer b.Close()
	ma, mb := comm.NewStreamMux(a), comm.NewStreamMux(b)
	defer ma.Close()
	defer mb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			st, err := mb.Accept(ctx)
			if err != nil {
				return
			}
			if err := readAll(ctx, st); err != nil {
				st.Reset("ladder read")
				continue
			}
			if err := st.Write(ctx, resp); err != nil {
				continue
			}
			st.CloseWrite()
		}
	}()
	st, err := pass(tr, "streammux.rtt", "comm.streammux", roundTrips(len(req), len(resp)), func(int) error {
		octx, ocancel := context.WithTimeout(ctx, opTimeout)
		defer ocancel()
		s, err := ma.Open(octx, b.URN(), "ladder")
		if err != nil {
			return err
		}
		if err := s.Write(octx, req); err != nil {
			return err
		}
		if err := s.CloseWrite(); err != nil {
			return err
		}
		return readAll(octx, s)
	})
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"comm.streammux.rtt_us":        {us(st.med), "us"},
		"comm.streammux.allocs_per_op": {st.allocs, "count"},
		"comm.streammux.bytes_per_op":  {st.bytes, "B"},
	}, nil
}

func readAll(ctx context.Context, st *comm.Stream) error {
	for {
		if _, err := st.Read(ctx); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// serviceRow times Call and Candidates of c's service client from one
// caller, and returns the catalog URIs one Candidates reads.
func serviceRow(tr *tracer, c *svcCluster, req []byte) (map[string]metric, []string, error) {
	want := reply(req, c.spec.respBytes)
	n := roundTrips(len(req), c.spec.respBytes)
	call, err := pass(tr, "service.call", "service", n, func(int) error {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		resp, err := c.cli.Call(ctx, svcMethod, req)
		if err == nil && !bytes.Equal(resp, want) {
			err = errWrongResponse
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	cands, err := pass(tr, "service.candidates", "service", n, func(int) error {
		_, err := c.cli.Candidates()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	rec := &recordingCatalog{Catalog: c.u.Catalog()}
	probe, err := service.NewClient(service.ClientConfig{
		Service: svcName, Catalog: rec, Endpoint: c.cliEP, Mux: c.mux,
	})
	if err != nil {
		return nil, nil, err
	}
	_, err = probe.Candidates()
	probe.Close()
	if err != nil {
		return nil, nil, err
	}
	return map[string]metric{
		"service.call_us":       {us(call.med), "us"},
		"service.candidates_us": {us(cands.med), "us"},
		"service.allocs_per_op": {call.allocs, "count"},
	}, rec.uris, nil
}

// recordingCatalog records the URIs read through it, in order. It is
// used from one goroutine.
type recordingCatalog struct {
	naming.Catalog
	uris []string
}

func (r *recordingCatalog) Values(uri, name string) ([]string, error) {
	r.uris = append(r.uris, uri)
	return r.Catalog.Values(uri, name)
}

func (r *recordingCatalog) FirstValue(uri, name string) (string, bool, error) {
	r.uris = append(r.uris, uri)
	return r.Catalog.FirstValue(uri, name)
}

// rcdsRows replays ops through the owning replica's Store, then a plain
// rcds.Client on the owning group (no cache, no routing), then the
// production client rc. owner maps a URI to its group index.
func rcdsRows(tr *tracer, ops []keyOp, groups [][]*rcds.Server, owner func(string) int, rc *rcds.Client, setAttr string) (map[string]metric, error) {
	var gets, sets []string
	for _, op := range ops {
		if op.kind == kindSet {
			sets = append(sets, op.uri)
		} else {
			gets = append(gets, op.uri)
		}
	}
	if len(gets) == 0 || len(sets) == 0 {
		return nil, fmt.Errorf("ladder key sequence needs Gets and Sets (have %d, %d)", len(gets), len(sets))
	}
	store := func(uri string) *rcds.Store { return groups[owner(uri)][0].Store() }
	plain := make([]*rcds.Client, len(groups))
	for g, srvs := range groups {
		addrs := make([]string, len(srvs))
		for i, s := range srvs {
			addrs[i] = s.Addr()
		}
		plain[g] = rcds.NewClient(addrs, nil)
		defer plain[g].Close()
	}
	val := func(i int) string { return fmt.Sprintf("ladder-%d", i) }
	ctxOp := func(fn func(ctx context.Context) error) error {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		return fn(ctx)
	}
	out := make(map[string]metric)
	sg, err := pass(tr, "store.get", "rcds.store", len(gets), func(i int) error { store(gets[i]).Get(gets[i]); return nil })
	if err != nil {
		return nil, err
	}
	ss, err := pass(tr, "store.set", "rcds.store", len(sets), func(i int) error { store(sets[i]).Set(sets[i], setAttr, val(i)); return nil })
	if err != nil {
		return nil, err
	}
	out["rcds.store.get_ns"] = metric{float64(sg.med), "ns"}
	out["rcds.store.set_ns"] = metric{float64(ss.med), "ns"}
	out["rcds.store.allocs_per_op"] = metric{mix(sg.allocs, ss.allocs, len(gets), len(sets)), "count"}

	pg, err := pass(tr, "rpc.get", "rcds.rpc", len(gets), func(i int) error {
		return ctxOp(func(ctx context.Context) error { _, err := plain[owner(gets[i])].Get(ctx, gets[i]); return err })
	})
	if err != nil {
		return nil, err
	}
	ps, err := pass(tr, "rpc.set", "rcds.rpc", len(sets), func(i int) error {
		return ctxOp(func(ctx context.Context) error { return plain[owner(sets[i])].Set(ctx, sets[i], setAttr, val(i)) })
	})
	if err != nil {
		return nil, err
	}
	out["rcds.rpc.get_us"] = metric{us(pg.med), "us"}
	out["rcds.rpc.set_us"] = metric{us(ps.med), "us"}
	out["rcds.rpc.allocs_per_op"] = metric{mix(pg.allocs, ps.allocs, len(gets), len(sets)), "count"}

	// The production client replays the sequence in order, so its read
	// cache sees the same interleaving of reads and flushing writes.
	var cg, cs []float64
	root, rootStart := tr.open()
	for i, op := range ops {
		id, start := tr.open()
		t0 := time.Now()
		var err error
		if op.kind == kindSet {
			err = ctxOp(func(ctx context.Context) error { return rc.Set(ctx, op.uri, setAttr, val(i)) })
			cs = append(cs, float64(time.Since(t0)))
			tr.finish(id, root, root, "client.set", "rcds.client", start)
		} else {
			err = ctxOp(func(ctx context.Context) error { _, err := rc.Get(ctx, op.uri); return err })
			cg = append(cg, float64(time.Since(t0)))
			tr.finish(id, root, root, "client.get", "rcds.client", start)
		}
		if err != nil {
			return nil, fmt.Errorf("ladder client: %w", err)
		}
	}
	tr.finish(root, 0, root, "ladder.client", "bench", rootStart)
	hit, err := pass(tr, "client.cache_read", "rcds.client", len(gets), func(i int) error {
		return ctxOp(func(ctx context.Context) error { _, err := rc.Get(ctx, gets[0]); return err })
	})
	if err != nil {
		return nil, err
	}
	sort.Float64s(cg)
	sort.Float64s(cs)
	out["rcds.client.get_us"] = metric{quantile(cg, 0.5) / 1e3, "us"}
	out["rcds.client.set_us"] = metric{quantile(cs, 0.5) / 1e3, "us"}
	out["rcds.client.cache_read_ns"] = metric{float64(hit.med), "ns"}
	return out, nil
}

// mix is the per-operation mean of two rows weighted by their counts.
func mix(a, b float64, na, nb int) float64 {
	return (a*float64(na) + b*float64(nb)) / float64(na+nb)
}

// commRows runs the xdr, transport, endpoint and stream rows at the
// given request and response.
func commRows(tr *tracer, req, resp []byte, lists [][]rcds.Assertion) (map[string]metric, error) {
	out, err := xdrRow(req, lists)
	if err != nil {
		return nil, err
	}
	for _, row := range []func(*tracer, []byte, []byte) (map[string]metric, error){transportRow, endpointRow, streammuxRow} {
		m, err := row(tr, req, resp)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] = v
		}
	}
	return out, nil
}

// ladder on a service cluster runs the rows at the workload's request
// size, with the catalog URIs its balancer reads as the key sequence.
func (c *svcCluster) ladder(tr *tracer) (map[string]metric, error) {
	req := payloadOf(c.spec.reqBytes, c.seed)
	out, reads, err := serviceRow(tr, c, req)
	if err != nil {
		return nil, err
	}
	var lists [][]rcds.Assertion
	store := c.u.RCGroups()[0][0].Store()
	for _, uri := range reads {
		lists = append(lists, store.Get(uri))
	}
	lower, err := commRows(tr, req, reply(req, c.spec.respBytes), lists)
	if err != nil {
		return nil, err
	}
	// The workload only reads the catalog, so the replay reads first
	// (the read cache warm, as in the workload) and writes last.
	var ops []keyOp
	for r := 0; r < 100; r++ {
		for _, uri := range reads {
			ops = append(ops, keyOp{kindGet, uri})
		}
	}
	for r := 0; r < 100; r++ {
		ops = append(ops, keyOp{kindSet, reads[r%len(reads)]})
	}
	rc, err := rcdsRows(tr, ops, c.u.RCGroups(), func(string) int { return 0 }, c.rc, "perfbench-ladder")
	if err != nil {
		return nil, err
	}
	return joinLadder(out, lower, rc), nil
}

// ladder on the catalog replays caller 0's key sequence, and runs the
// comm and service rows at the mean size of its requests and replies.
func (c *catalogCluster) ladder(tr *tracer) (map[string]metric, error) {
	cc := c.newCaller(0).(*catCaller)
	m := c.u.ShardMap()
	groups := c.u.RCGroups()
	var ops []keyOp
	var lists [][]rcds.Assertion
	reqSum, respSum := 0, 0
	for len(ops) < 2000 {
		kind, idx := cc.next()
		uri := catURI(idx)
		ops = append(ops, keyOp{kind, uri})
		as := groups[m.Owner(uri)][0].Store().Get(uri)
		lists = append(lists, as)
		e := xdr.NewEncoder(256)
		rcds.EncodeAssertions(e, as)
		reqSum += len(uri) + 16
		respSum += e.Len()
	}
	spec := c.spec
	spec.replicas, spec.reqBytes, spec.respBytes = 1, reqSum/len(ops), respSum/len(ops)
	svc, err := startSvc(spec, c.seed, false)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	if err := warm(svc, workloadSpec{callers: 1, warmOps: 200}); err != nil {
		return nil, err
	}
	req := payloadOf(spec.reqBytes, c.seed)
	out, _, err := serviceRow(tr, svc, req)
	if err != nil {
		return nil, err
	}
	lower, err := commRows(tr, req, reply(req, spec.respBytes), lists)
	if err != nil {
		return nil, err
	}
	rc, err := rcdsRows(tr, ops, groups, m.Owner, c.rc, attrLoad)
	if err != nil {
		return nil, err
	}
	return joinLadder(out, lower, rc), nil
}

// joinLadder merges the rows and adds two adjacent-row shares: of a
// stream exchange, the part above raw endpoint messages; of a service
// call, the part above the stream exchange (balancer, service framing
// and the handler's own work).
func joinLadder(parts ...map[string]metric) map[string]metric {
	out := make(map[string]metric)
	for _, p := range parts {
		for k, v := range p {
			out[k] = v
		}
	}
	call := out["service.call_us"].Value
	mux := out["comm.streammux.rtt_us"].Value
	ep := out["comm.endpoint.rtt_us"].Value
	out["ladder.streammux_share"] = metric{ratio(mux-ep, mux), "ratio"}
	out["ladder.service_share"] = metric{ratio(call-mux, call), "ratio"}
	return out
}
