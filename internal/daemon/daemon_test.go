package daemon

import (
	"errors"
	"strings"
	"testing"
	"time"

	"snipe/internal/comm"
	"snipe/internal/gossip"
	"snipe/internal/liveness"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/task"
	"snipe/internal/testutil"
	"snipe/internal/xdr"
)

// testWorld is a shared catalog plus helpers for daemon tests.
type testWorld struct {
	t     *testing.T
	store *rcds.Store
	cat   naming.Catalog
}

func newWorld(t *testing.T) *testWorld {
	store := rcds.NewStore("test")
	return &testWorld{t: t, store: store, cat: naming.StoreCatalog(store)}
}

func (w *testWorld) newDaemon(host string, reg *task.Registry) *Daemon {
	w.t.Helper()
	d := New(Config{
		HostName: host,
		Arch:     "go-sim",
		CPUs:     2,
		MemoryMB: 512,
		Catalog:  w.cat,
		Registry: reg,
	})
	if err := d.Start(); err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(d.Close)
	return d
}

// client returns an endpoint registered in the catalog, for talking to
// daemons.
func (w *testWorld) client(urn string) *comm.Endpoint {
	w.t.Helper()
	ep := comm.NewEndpoint(urn, comm.WithResolver(naming.NewResolver(w.cat)))
	route, err := ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		w.t.Fatal(err)
	}
	naming.Register(w.cat, urn, []comm.Route{route})
	w.t.Cleanup(ep.Close)
	return ep
}

func TestDaemonStartPublishesHostMetadata(t *testing.T) {
	w := newWorld(t)
	d := w.newDaemon("h1", nil)
	host := d.HostURL()
	if v, ok := w.store.FirstValue(host, rcds.AttrArch); !ok || v != "go-sim" {
		t.Fatalf("arch = %q %v", v, ok)
	}
	if v, ok := w.store.FirstValue(host, rcds.AttrHostDaemonURL); !ok || v != d.URN() {
		t.Fatalf("daemon url = %q %v", v, ok)
	}
	if ifs := w.store.Values(host, rcds.AttrInterface); len(ifs) == 0 {
		t.Fatal("no interfaces published")
	}
	if addrs := w.store.Values(d.URN(), rcds.AttrCommAddr); len(addrs) == 0 {
		t.Fatal("daemon endpoint not registered")
	}
}

func TestWithdrawRoute(t *testing.T) {
	w := newWorld(t)
	d := New(Config{
		HostName: "h-multi",
		Catalog:  w.cat,
		Listens: []ListenSpec{
			{Transport: "tcp", Addr: "127.0.0.1:0", NetName: "eth"},
			{Transport: "tcp", Addr: "127.0.0.1:0", NetName: "atm"},
		},
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	routes := d.Routes()
	if len(routes) != 2 {
		t.Fatalf("expected 2 advertised routes, got %v", routes)
	}
	if addrs := w.store.Values(d.URN(), rcds.AttrCommAddr); len(addrs) != 2 {
		t.Fatalf("expected 2 registered comm addresses, got %v", addrs)
	}

	victim, survivor := routes[0], routes[1]
	if err := d.WithdrawRoute(victim); err != nil {
		t.Fatalf("WithdrawRoute: %v", err)
	}
	addrs := w.store.Values(d.URN(), rcds.AttrCommAddr)
	if len(addrs) != 1 || addrs[0] != survivor.String() {
		t.Fatalf("expected only %s to remain, got %v", survivor, addrs)
	}
	ifs := w.store.Values(d.HostURL(), rcds.AttrInterface)
	if len(ifs) != 1 || ifs[0] != survivor.String() {
		t.Fatalf("expected host inventory to keep only %s, got %v", survivor, ifs)
	}
	if got := d.Routes(); len(got) != 1 || got[0] != survivor {
		t.Fatalf("endpoint still listening on withdrawn route: %v", got)
	}
	// The daemon remains reachable over the survivor.
	client := w.client("urn:snipe:process:h-multi:probe")
	if _, err := StatusRemote(client, d.URN(), 71, 5*time.Second); err != nil {
		t.Fatalf("status query over surviving route: %v", err)
	}
}

func TestSpawnRunExit(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	ran := make(chan string, 1)
	reg.Register("hello", func(ctx *task.Context) error {
		ran <- ctx.Args()[0]
		return nil
	})
	d := w.newDaemon("h1", reg)
	urn, err := d.Spawn(task.Spec{Program: "hello", Args: []string{"world"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(urn, "urn:snipe:process:h1:hello-") {
		t.Fatalf("urn = %q", urn)
	}
	select {
	case arg := <-ran:
		if arg != "world" {
			t.Fatalf("arg = %q", arg)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("task never ran")
	}
	st, err := d.WaitTask(urn, 3*time.Second)
	if err != nil || st != task.StateExited {
		t.Fatalf("final state = %v, %v", st, err)
	}
	// Metadata: state recorded, comm addrs withdrawn.
	if v, _ := w.store.FirstValue(urn, rcds.AttrState); v != string(task.StateExited) {
		t.Fatalf("state metadata = %q", v)
	}
	if addrs := w.store.Values(urn, rcds.AttrCommAddr); len(addrs) != 0 {
		t.Fatalf("addresses not withdrawn: %v", addrs)
	}
}

func TestSpawnUnknownProgram(t *testing.T) {
	w := newWorld(t)
	d := w.newDaemon("h1", nil)
	if _, err := d.Spawn(task.Spec{Program: "ghost"}); !errors.Is(err, task.ErrUnknownProgram) {
		t.Fatalf("want ErrUnknownProgram, got %v", err)
	}
}

func TestSpawnRequirementsEnforced(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	reg.Register("p", func(ctx *task.Context) error { return nil })
	d := w.newDaemon("h1", reg)
	cases := []task.Spec{
		{Program: "p", Req: task.Requirements{Arch: "sparc-solaris"}},
		{Program: "p", Req: task.Requirements{MinMemoryMB: 100000}},
		{Program: "p", Req: task.Requirements{Host: "snipe://hosts/other"}},
	}
	for i, spec := range cases {
		if _, err := d.Spawn(spec); !errors.Is(err, ErrRequirements) {
			t.Fatalf("case %d: want ErrRequirements, got %v", i, err)
		}
	}
	// A satisfiable pinned spec works.
	if _, err := d.Spawn(task.Spec{Program: "p", Req: task.Requirements{Host: d.HostURL(), Arch: "go-sim", MinMemoryMB: 128}}); err != nil {
		t.Fatal(err)
	}
}

func TestTaskFailureRecorded(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	reg.Register("bad", func(ctx *task.Context) error { return errors.New("boom") })
	reg.Register("panics", func(ctx *task.Context) error { panic("ouch") })
	d := w.newDaemon("h1", reg)

	urn, _ := d.Spawn(task.Spec{Program: "bad"})
	st, err := d.WaitTask(urn, 3*time.Second)
	if st != task.StateFailed || err == nil {
		t.Fatalf("bad: %v %v", st, err)
	}

	urn2, _ := d.Spawn(task.Spec{Program: "panics"})
	st2, err2 := d.WaitTask(urn2, 3*time.Second)
	if st2 != task.StateFailed || err2 == nil || !strings.Contains(err2.Error(), "panicked") {
		t.Fatalf("panics: %v %v", st2, err2)
	}
}

func TestKillSignal(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	reg.Register("loop", func(ctx *task.Context) error {
		<-ctx.Done()
		return task.ErrKilled
	})
	d := w.newDaemon("h1", reg)
	urn, _ := d.Spawn(task.Spec{Program: "loop"})
	if err := d.Signal(urn, task.SigKill); err != nil {
		t.Fatal(err)
	}
	st, _ := d.WaitTask(urn, 3*time.Second)
	if st != task.StateExited {
		t.Fatalf("state = %v", st)
	}
	if err := d.Signal("urn:nope", task.SigKill); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown task: %v", err)
	}
}

func TestSuspendResume(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	progress := make(chan int, 100)
	reg.Register("ticker", func(ctx *task.Context) error {
		for i := 0; ; i++ {
			if ctx.CheckPause() {
				return task.ErrKilled
			}
			progress <- i
			time.Sleep(5 * time.Millisecond)
		}
	})
	d := w.newDaemon("h1", reg)
	urn, _ := d.Spawn(task.Spec{Program: "ticker"})
	<-progress // running
	d.Signal(urn, task.SigSuspend)
	if st, _ := d.TaskState(urn); st != task.StateSuspended {
		t.Fatalf("state = %v", st)
	}
	// Drain and confirm progress stops.
	time.Sleep(30 * time.Millisecond)
	for len(progress) > 0 {
		<-progress
	}
	select {
	case <-progress:
		t.Fatal("task progressed while suspended")
	case <-time.After(50 * time.Millisecond):
	}
	d.Signal(urn, task.SigResume)
	select {
	case <-progress:
	case <-time.After(2 * time.Second):
		t.Fatal("task did not resume")
	}
	d.Signal(urn, task.SigKill)
	d.WaitTask(urn, 3*time.Second)
}

func TestTasksMessagingBetweenHosts(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	got := make(chan string, 1)
	reg.Register("receiver", func(ctx *task.Context) error {
		m, err := ctx.Recv(5 * time.Second)
		if err != nil {
			return err
		}
		got <- string(m.Payload)
		return nil
	})
	reg.Register("sender", func(ctx *task.Context) error {
		return ctx.Send(ctx.Args()[0], 1, []byte("inter-host"))
	})
	d1 := w.newDaemon("h1", reg)
	d2 := w.newDaemon("h2", reg)

	rurn, err := d1.Spawn(task.Spec{Program: "receiver"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Spawn(task.Spec{Program: "sender", Args: []string{rurn}}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if msg != "inter-host" {
			t.Fatalf("payload = %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived")
	}
}

func TestNotifyListOnExit(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	reg.Register("brief", func(ctx *task.Context) error { return nil })
	d := w.newDaemon("h1", reg)
	watcher := w.client("urn:watcher")

	urn, err := d.Spawn(task.Spec{Program: "brief", NotifyList: []string{"urn:watcher"}})
	if err != nil {
		t.Fatal(err)
	}
	// Expect running and exited notifications.
	seen := map[task.State]bool{}
	for i := 0; i < 2; i++ {
		m, err := recvMatchT(watcher, "", task.TagNotify, 5*time.Second)
		if err != nil {
			t.Fatalf("notify %d: %v", i, err)
		}
		sc, err := task.DecodeStateChange(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if sc.URN != urn {
			t.Fatalf("notify for %q", sc.URN)
		}
		seen[sc.To] = true
	}
	if !seen[task.StateRunning] || !seen[task.StateExited] {
		t.Fatalf("states seen: %v", seen)
	}
}

func TestRemoteSpawnAndStatus(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	reg.Register("idle", func(ctx *task.Context) error {
		<-ctx.Done()
		return task.ErrKilled
	})
	d := w.newDaemon("h1", reg)
	client := w.client("urn:client")

	urn, err := SpawnRemote(client, d.URN(), task.Spec{Program: "idle"}, 1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := StatusRemote(client, d.URN(), 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tasks[urn] != task.StateRunning {
		t.Fatalf("status: %v", tasks)
	}
	// Remote signal.
	if err := SignalRemote(client, d.URN(), urn, task.SigKill); err != nil {
		t.Fatal(err)
	}
	if st, _ := d.WaitTask(urn, 3*time.Second); st != task.StateExited {
		t.Fatalf("after remote kill: %v", st)
	}
	// Remote spawn failure is reported.
	if _, err := SpawnRemote(client, d.URN(), task.Spec{Program: "ghost"}, 3, 5*time.Second); !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
}

func TestCheckpointAndAdopt(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	// counter counts; on checkpoint request it saves its count.
	reg.Register("counter", func(ctx *task.Context) error {
		count := 0
		if st := ctx.RestoredState(); st != nil {
			d := xdr.NewDecoder(st)
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			count = int(v)
		}
		for {
			select {
			case <-ctx.CheckpointRequested():
				e := xdr.NewEncoder(8)
				e.PutUint32(uint32(count))
				ctx.SaveCheckpoint(e.Bytes())
				return task.ErrMigrated
			case <-ctx.Done():
				return task.ErrKilled
			case <-time.After(time.Millisecond):
				count++
				if count == 1000000 {
					return nil
				}
			}
		}
	})
	d1 := w.newDaemon("h1", reg)
	d2 := w.newDaemon("h2", reg)

	urn, err := d1.Spawn(task.Spec{Program: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	spec, err := d1.Checkpoint(urn, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Checkpoint == nil {
		t.Fatal("no checkpoint captured")
	}
	d1.Release(urn)
	if err := d2.Adopt(urn, spec); err != nil {
		t.Fatal(err)
	}
	if st, err := d2.TaskState(urn); err != nil || st != task.StateRunning {
		t.Fatalf("adopted state: %v %v", st, err)
	}
	// The adopted task restored a positive count: checkpoint again and
	// inspect.
	time.Sleep(20 * time.Millisecond)
	spec2, err := d2.Checkpoint(urn, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dec := xdr.NewDecoder(spec2.Checkpoint)
	v, err := dec.Uint32()
	if err != nil || v == 0 {
		t.Fatalf("count after adoption = %d, %v", v, err)
	}
}

func TestCheckpointTimeoutOnUncooperativeTask(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	reg.Register("stubborn", func(ctx *task.Context) error {
		<-ctx.Done()
		return task.ErrKilled
	})
	d := w.newDaemon("h1", reg)
	urn, _ := d.Spawn(task.Spec{Program: "stubborn"})
	if _, err := d.Checkpoint(urn, 100*time.Millisecond); !errors.Is(err, ErrNotCheckpointed) {
		t.Fatalf("want ErrNotCheckpointed, got %v", err)
	}
	d.Signal(urn, task.SigKill)
}

func TestLoadPublishing(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	reg.Register("idle", func(ctx *task.Context) error {
		<-ctx.Done()
		return task.ErrKilled
	})
	d := w.newDaemon("h1", reg)
	if d.Load() != 0 {
		t.Fatalf("initial load = %v", d.Load())
	}
	var urns []string
	for i := 0; i < 4; i++ {
		urn, err := d.Spawn(task.Spec{Program: "idle"})
		if err != nil {
			t.Fatal(err)
		}
		urns = append(urns, urn)
	}
	if got := d.Load(); got != 2.0 { // 4 tasks / 2 CPUs
		t.Fatalf("load = %v", got)
	}
	// The group digest carries the load figure to the catalog.
	testutil.WaitFor(t, 3*time.Second, func() bool {
		load, ok := liveness.HostLoad(w.cat, d.HostURL())
		return ok && load == 2.0
	}, "load never published to the catalog")
	for _, urn := range urns {
		d.Signal(urn, task.SigKill)
	}
}

func TestSpawnConcurrent(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	reg.Register("quick", func(ctx *task.Context) error { return nil })
	d := w.newDaemon("h1", reg)
	const n = 16
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := d.Spawn(task.Spec{Program: "quick"})
			errs <- err
		}()
	}
	urnSet := map[string]bool{}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for urn := range d.Tasks() {
		if urnSet[urn] {
			t.Fatalf("duplicate URN %s", urn)
		}
		urnSet[urn] = true
	}
	if len(urnSet) != n {
		t.Fatalf("spawned %d unique tasks", len(urnSet))
	}
}

func TestRebind(t *testing.T) {
	if got := rebind("127.0.0.1:8080"); got != "127.0.0.1:0" {
		t.Fatalf("rebind = %q", got)
	}
	if got := rebind("[::1]:99"); got != "[::1]:0" {
		t.Fatalf("rebind v6 = %q", got)
	}
	if got := rebind("noport"); got != "noport" {
		t.Fatalf("rebind = %q", got)
	}
}

func BenchmarkSpawnExit(b *testing.B) {
	store := rcds.NewStore("bench")
	reg := task.NewRegistry()
	reg.Register("quick", func(ctx *task.Context) error { return nil })
	d := New(Config{HostName: "bh", Catalog: naming.StoreCatalog(store), Registry: reg})
	if err := d.Start(); err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		urn, err := d.Spawn(task.Spec{Program: "quick"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.WaitTask(urn, 5*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHeartbeatIntervalConfigurable(t *testing.T) {
	w := newWorld(t)
	d := New(Config{
		HostName: "hb-fast", Catalog: w.cat,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	// The lone member reports for its group: its digest carries the
	// host's gossip sequence, bumped once per probe round.
	readSeq := func() uint64 {
		v, ok := w.store.FirstValue(naming.LivenessGroupURI(0), rcds.AttrGroupDigest)
		if !ok {
			return 0
		}
		dg, err := gossip.ParseDigest(v)
		if err != nil {
			t.Fatalf("malformed digest %q: %v", v, err)
		}
		for _, u := range dg.Members {
			if u.Host == d.HostURL() {
				return u.Seq
			}
		}
		return 0
	}
	start := readSeq()
	time.Sleep(200 * time.Millisecond)
	// 200ms at a 10ms cadence runs ~20 probe rounds; the default 100ms
	// cadence could manage at most 3. Requiring 6 proves the configured
	// interval took effect with wide scheduling slack.
	if got := readSeq(); got < start+6 {
		t.Fatalf("seq advanced %d->%d in 200ms; configured interval ignored", start, got)
	}
}

func TestCloseWritesTombstone(t *testing.T) {
	w := newWorld(t)
	d := New(Config{HostName: "hb-clean", Catalog: w.cat, HeartbeatInterval: 10 * time.Millisecond})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	host, urn := d.HostURL(), d.URN()
	d.Close()

	v, ok := w.store.FirstValue(host, rcds.AttrHeartbeat)
	if !ok {
		t.Fatal("no liveness claim after close")
	}
	u, err := gossip.ParseClaim(v)
	if err != nil || u.Host != host || u.State != gossip.StateLeft || u.Inc == 0 {
		t.Fatalf("final claim %q is not the host's Left claim (%v)", v, err)
	}
	// The daemon record and its endpoint registration are withdrawn.
	if v, ok := w.store.FirstValue(host, rcds.AttrHostDaemonURL); ok {
		t.Fatalf("daemon url survived close: %q", v)
	}
	if addrs := w.store.Values(urn, rcds.AttrCommAddr); len(addrs) != 0 {
		t.Fatalf("endpoint registration survived close: %v", addrs)
	}
}

func TestKillWritesNothing(t *testing.T) {
	// Kill simulates a crash: the daemon dies without touching the
	// catalog, leaving all its metadata in place for the liveness
	// monitor to age out.
	w := newWorld(t)
	reg := task.NewRegistry()
	reg.Register("idle", func(ctx *task.Context) error {
		<-ctx.Done()
		return task.ErrKilled
	})
	d := New(Config{HostName: "hb-crash", Catalog: w.cat, Registry: reg, HeartbeatInterval: 10 * time.Millisecond})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	urn, err := d.Spawn(task.Spec{Program: "idle"})
	if err != nil {
		t.Fatal(err)
	}
	host := d.HostURL()
	d.Kill()

	if v, ok := w.store.FirstValue(host, rcds.AttrHeartbeat); ok {
		t.Fatalf("crash wrote a liveness claim: %q", v)
	}
	if _, ok := w.store.FirstValue(host, rcds.AttrHostDaemonURL); !ok {
		t.Fatal("crash cleaned up the daemon record")
	}
	// The killed task's metadata is frozen mid-flight, not settled by
	// the dying daemon — settling is the surviving RM's job.
	if st, _ := w.store.FirstValue(urn, rcds.AttrState); st != string(task.StateRunning) {
		t.Fatalf("crash settled task state to %q", st)
	}
	d.Kill() // idempotent
}
