// Package daemon implements the per-host SNIPE daemon (paper §3.3):
// it "mediates the use of resources on its particular host" —
// starting local tasks, monitoring them for state changes, delivering
// signals, publishing machine load, and informing interested parties
// (notify lists) of task status changes. It also answers the remote
// spawn/signal/status/migrate protocol used by clients, resource
// managers and the migration machinery.
package daemon

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"snipe/internal/comm"
	"snipe/internal/gossip"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/stats"
	"snipe/internal/task"
	"snipe/internal/xdr"
)

// Errors of the daemon layer.
var (
	// ErrUnknownTask indicates an operation on a task the daemon does
	// not host.
	ErrUnknownTask = errors.New("daemon: unknown task")
	// ErrRequirements indicates a spec this host cannot satisfy.
	ErrRequirements = errors.New("daemon: host cannot satisfy requirements")
	// ErrNotCheckpointed indicates a checkpoint request the task did not
	// honour in time.
	ErrNotCheckpointed = errors.New("daemon: task did not checkpoint")
)

// ListenSpec describes one interface the daemon (and its tasks) listen
// on: the transport, the bind address, and the RC interface metadata.
// It is the comm layer's listen specification, re-exported so daemon
// configuration does not require importing comm.
type ListenSpec = comm.ListenSpec

// Config configures a host daemon.
type Config struct {
	HostName string // short name; the host URL is derived from it
	Arch     string // host architecture identifier
	CPUs     int
	MemoryMB int
	Catalog  naming.Catalog // RC metadata access
	Registry *task.Registry // available programs
	Listens  []ListenSpec   // interfaces; default loopback TCP

	// HeartbeatInterval is the liveness cadence: the probe interval of
	// the host's gossip agent, which also paces its group's digest
	// writes while this host is the reporter. Default 100ms.
	HeartbeatInterval time.Duration

	// Gossip tunes the daemon's participation in the hierarchical
	// gossip liveness tier (see internal/gossip). The zero value is the
	// default: one cluster-wide group.
	Gossip GossipOptions
}

// GossipOptions configures a daemon's gossip liveness participation.
type GossipOptions struct {
	// Groups is the cluster-wide gossip group count; hosts hash into
	// groups by name (gossip.GroupOf). Default 1.
	Groups int
	// Gate injects partitions into gossip traffic for netsim-style
	// failure experiments; nil means no injection.
	Gate func(from, to string) error
}

// runningTask tracks one hosted task.
type runningTask struct {
	urn   string
	spec  task.Spec
	ctx   *task.Context
	ep    *comm.Endpoint
	state task.State
	err   error
	done  chan struct{}
}

// Daemon is one host's SNIPE daemon.
type Daemon struct {
	cfg      Config
	hostURL  string
	urn      string
	ep       *comm.Endpoint
	resolver *naming.Resolver

	mu      sync.Mutex
	tasks   map[string]*runningTask
	nextID  int
	closed  bool
	crashed bool // Kill(): die without catalog writes, simulating a crash
	done    chan struct{}
	wg      sync.WaitGroup
	started bool
	agent   *gossip.Agent // gossip liveness participant (nil before Start)

	// Telemetry (see internal/stats); pointers captured at construction.
	metrics    *stats.Registry
	mDigests   *stats.Counter // group digest publications (reporter duty)
	mSpawns    *stats.Counter
	mSpawnErrs *stats.Counter
	mSignals   *stats.Counter
	mNotifies  *stats.Counter
	hSpawnUs   *stats.Histogram // spawn request → task running
}

// New creates a daemon; call Start to bring it up.
func New(cfg Config) *Daemon {
	if cfg.Registry == nil {
		cfg.Registry = task.NewRegistry()
	}
	if len(cfg.Listens) == 0 {
		cfg.Listens = []ListenSpec{{Transport: "tcp", Addr: "127.0.0.1:0"}}
	}
	if cfg.CPUs == 0 {
		cfg.CPUs = 1
	}
	if cfg.Arch == "" {
		cfg.Arch = "go-sim"
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 100 * time.Millisecond
	}
	d := &Daemon{
		cfg:     cfg,
		hostURL: naming.HostURL(cfg.HostName),
		urn:     naming.ProcessURN(cfg.HostName, "daemon"),
		tasks:   make(map[string]*runningTask),
		done:    make(chan struct{}),
		metrics: stats.NewRegistry(),
	}
	d.mDigests = d.metrics.Counter("digest_writes")
	d.mSpawns = d.metrics.Counter("spawns")
	d.mSpawnErrs = d.metrics.Counter("spawn_errors")
	d.mSignals = d.metrics.Counter("signals")
	d.mNotifies = d.metrics.Counter("notifies")
	d.hSpawnUs = d.metrics.Histogram("spawn_latency_us", stats.LatencyBucketsUs)
	return d
}

// HostURL returns the host's distinguished URL.
func (d *Daemon) HostURL() string { return d.hostURL }

// URN returns the daemon's own process URN (the address for spawn and
// signal requests).
func (d *Daemon) URN() string { return d.urn }

// Registry returns the daemon's program registry.
func (d *Daemon) Registry() *task.Registry { return d.cfg.Registry }

// Resolver returns the daemon's RC-backed resolver.
func (d *Daemon) Resolver() *naming.Resolver { return d.resolver }

// Endpoint returns the daemon's own communications endpoint.
func (d *Daemon) Endpoint() *comm.Endpoint { return d.ep }

// Start brings the daemon up: endpoints listening, host metadata
// registered, protocol handler and gossip agent running.
func (d *Daemon) Start() error {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return errors.New("daemon: already started")
	}
	d.started = true
	d.mu.Unlock()

	d.resolver = naming.NewResolver(d.cfg.Catalog)
	d.ep = comm.NewEndpoint(d.urn,
		comm.WithResolver(d.resolver),
		comm.WithHandler(d.handleMessage,
			task.TagSpawnReq, task.TagSignal, task.TagStatusReq,
			task.TagMigrateReq, task.TagCheckpointReq, task.TagReleaseReq,
			task.TagStatsReq, task.TagGossip))
	var routes []comm.Route
	for _, ls := range d.cfg.Listens {
		route, err := d.ep.Listen(ls)
		if err != nil {
			d.ep.Close()
			return fmt.Errorf("daemon %s: %w", d.cfg.HostName, err)
		}
		routes = append(routes, route)
	}

	// Publish host metadata (§5.2.1).
	cat := d.cfg.Catalog
	if err := cat.Set(d.hostURL, rcds.AttrArch, d.cfg.Arch); err != nil {
		return err
	}
	cat.Set(d.hostURL, rcds.AttrCPUs, fmt.Sprintf("%d", d.cfg.CPUs))
	cat.Set(d.hostURL, rcds.AttrMemory, fmt.Sprintf("%d", d.cfg.MemoryMB))
	cat.Set(d.hostURL, rcds.AttrHostDaemonURL, d.urn)
	for _, r := range routes {
		cat.Add(d.hostURL, rcds.AttrInterface, r.String())
	}
	if err := naming.Register(cat, d.urn, routes); err != nil {
		return err
	}
	return d.startGossip()
}

// Routes returns the daemon's currently advertised interfaces.
func (d *Daemon) Routes() []comm.Route {
	if d.ep == nil {
		return nil
	}
	return d.ep.Routes()
}

// WithdrawRoute takes one of the daemon's interfaces out of service:
// the listener closes, and the route is withdrawn from the daemon's
// communication addresses and from the host's interface inventory, so
// peers re-resolving the daemon see only the survivors. Multi-homed
// hosts use this for planned interface maintenance; unplanned failures
// reach the same state through the comm layer's route invalidation.
func (d *Daemon) WithdrawRoute(route comm.Route) error {
	if d.ep == nil {
		return errors.New("daemon: not started")
	}
	if err := d.ep.CloseListener(route); err != nil {
		return err
	}
	cat := d.cfg.Catalog
	if err := naming.WithdrawRoute(cat, d.urn, route); err != nil {
		return err
	}
	if err := cat.Remove(d.hostURL, rcds.AttrInterface, route.String()); err != nil {
		return err
	}
	d.resolver.Invalidate(d.urn)
	return nil
}

// Close stops the daemon and kills its tasks. This is the clean
// shutdown path: the gossip agent says goodbye, the daemon publishes
// the host's final Left claim and withdraws its records from RC
// metadata, so liveness monitors see a planned departure ("left"),
// never a crash.
func (d *Daemon) Close() { d.shutdown(false) }

// Kill simulates a host crash for failure-injection tests and benches:
// the daemon dies with NO catalog writes — no Left claim, no state
// updates, no notify messages — leaving its host record behind exactly
// as a power failure would. Liveness monitors must discover the death
// from gossip verdicts and digest silence alone.
func (d *Daemon) Kill() { d.shutdown(true) }

func (d *Daemon) shutdown(crash bool) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.crashed = crash
	close(d.done)
	tasks := make([]*runningTask, 0, len(d.tasks))
	for _, rt := range d.tasks {
		tasks = append(tasks, rt)
	}
	d.mu.Unlock()
	for _, rt := range tasks {
		rt.ctx.Deliver(task.SigKill)
	}
	d.wg.Wait()
	d.mu.Lock()
	agent := d.agent
	d.mu.Unlock()
	if agent != nil {
		if crash {
			agent.Stop() // crash simulation: no goodbye gossip
		} else {
			agent.Close() // gossip departure + final digest hand-off
		}
	}
	if !crash {
		cat := d.cfg.Catalog
		if agent != nil {
			// A non-reporter's goodbye reaches the catalog only in the
			// reporter's next digest, gossiped over the endpoint closed
			// below; the host's own Left claim makes the exit visible at
			// once and outranks every later claim at this incarnation.
			cat.Set(d.hostURL, rcds.AttrHeartbeat, gossip.FormatClaim(agent.Self()))
		}
		cat.Remove(d.hostURL, rcds.AttrHostDaemonURL, d.urn)
		naming.Unregister(cat, d.urn)
	}
	if d.ep != nil {
		d.ep.Close()
	}
	d.mu.Lock()
	for _, rt := range d.tasks {
		rt.ep.Close()
	}
	d.mu.Unlock()
}

// Load returns the current load figure: running tasks per CPU.
func (d *Daemon) Load() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	running := 0
	for _, rt := range d.tasks {
		if rt.state == task.StateRunning || rt.state == task.StateSuspended {
			running++
		}
	}
	return float64(running) / float64(d.cfg.CPUs)
}

// Metrics returns the daemon's own metric registry.
func (d *Daemon) Metrics() *stats.Registry { return d.metrics }

// MetricsSnapshot captures the host's full observability picture: the
// daemon's counters plus its endpoint's comm metrics and — when the
// catalog is backed by a local store — RC catalog metrics, composed
// under "daemon.", "comm." and "rcds." name prefixes.
func (d *Daemon) MetricsSnapshot() stats.Snapshot {
	d.mu.Lock()
	total := len(d.tasks)
	running := 0
	for _, rt := range d.tasks {
		if rt.state == task.StateRunning || rt.state == task.StateSuspended {
			running++
		}
	}
	d.mu.Unlock()
	d.metrics.Gauge("tasks").Set(float64(total))
	d.metrics.Gauge("tasks_running").Set(float64(running))
	d.metrics.Gauge("load").Set(d.Load())
	snaps := []stats.Snapshot{d.metrics.Snapshot().Prefixed("daemon")}
	if d.ep != nil {
		snaps = append(snaps, d.ep.MetricsSnapshot().Prefixed("comm"))
	}
	if ms, ok := d.cfg.Catalog.(interface{ MetricsSnapshot() stats.Snapshot }); ok {
		snaps = append(snaps, ms.MetricsSnapshot().Prefixed("rcds"))
	}
	return stats.Merge(snaps...)
}

// StatsJSON renders the composed snapshot as JSON — the daemon's
// machine-readable observability surface, also served over the message
// protocol via TagStatsReq.
func (d *Daemon) StatsJSON() ([]byte, error) { return d.MetricsSnapshot().JSON() }

// checkRequirements verifies this host can run the spec.
func (d *Daemon) checkRequirements(spec *task.Spec) error {
	if spec.Req.Host != "" && spec.Req.Host != d.hostURL {
		return fmt.Errorf("%w: pinned to %s", ErrRequirements, spec.Req.Host)
	}
	if spec.Req.Arch != "" && spec.Req.Arch != d.cfg.Arch {
		return fmt.Errorf("%w: needs arch %s, host is %s", ErrRequirements, spec.Req.Arch, d.cfg.Arch)
	}
	if spec.Req.MinMemoryMB > 0 && spec.Req.MinMemoryMB > d.cfg.MemoryMB {
		return fmt.Errorf("%w: needs %d MB, host has %d", ErrRequirements, spec.Req.MinMemoryMB, d.cfg.MemoryMB)
	}
	return nil
}

// Spawn starts a task on this host and returns its URN. The new
// process's metadata (location, state, notify list) is published so
// that any SNIPE process can find and communicate with it (§5.5).
func (d *Daemon) Spawn(spec task.Spec) (string, error) {
	d.mu.Lock()
	d.nextID++
	urn := naming.ProcessURN(d.cfg.HostName, fmt.Sprintf("%s-%d", spec.Program, d.nextID))
	d.mu.Unlock()
	return urn, d.spawnAs(urn, spec)
}

// Adopt restarts a migrated or checkpointed task under its existing
// URN, restoring comm sequencing state (§5.6).
func (d *Daemon) Adopt(urn string, spec task.Spec) error {
	return d.spawnAs(urn, spec)
}

func (d *Daemon) spawnAs(urn string, spec task.Spec) (err error) {
	start := time.Now()
	defer func() {
		if err != nil {
			d.mSpawnErrs.Inc()
		} else {
			d.mSpawns.Inc()
			d.hSpawnUs.Observe(float64(time.Since(start).Microseconds()))
		}
	}()
	if err := d.checkRequirements(&spec); err != nil {
		return err
	}
	fn, err := d.cfg.Registry.Lookup(spec.Program)
	if err != nil {
		return err
	}

	ep := comm.NewEndpoint(urn, comm.WithResolver(d.resolver))
	var routes []comm.Route
	for _, ls := range d.cfg.Listens {
		// Tasks listen on the same interfaces as the daemon, any port.
		spec := ls
		spec.Addr = rebind(ls.Addr)
		route, err := ep.Listen(spec)
		if err != nil {
			ep.Close()
			return fmt.Errorf("daemon: task endpoint: %w", err)
		}
		routes = append(routes, route)
	}
	if spec.SeqState != nil {
		ss, err := comm.DecodeSequenceState(xdr.NewDecoder(spec.SeqState))
		if err != nil {
			ep.Close()
			return fmt.Errorf("daemon: restoring sequences: %w", err)
		}
		ep.RestoreSequences(ss)
	}

	ctx := task.NewContext(urn, d.hostURL, spec, ep)
	ctx.SetCatalog(d.cfg.Catalog)
	rt := &runningTask{urn: urn, spec: spec, ctx: ctx, ep: ep, state: task.StateRunning, done: make(chan struct{})}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		ep.Close()
		return errors.New("daemon: closed")
	}
	d.tasks[urn] = rt
	d.mu.Unlock()

	// Publish process metadata (§5.2.3).
	cat := d.cfg.Catalog
	if err := naming.Register(cat, urn, routes); err != nil {
		return err
	}
	cat.Set(urn, rcds.AttrState, string(task.StateRunning))
	cat.Set(urn, "host", d.hostURL)
	for _, n := range spec.NotifyList {
		cat.Add(urn, rcds.AttrNotify, n)
	}
	cat.Add(d.hostURL, "task", urn)

	d.wg.Add(1)
	go d.runTask(rt, fn)
	d.notifyStateChange(rt, task.StatePending, task.StateRunning)
	return nil
}

// rebind strips any fixed port from a daemon listen address so tasks
// get their own ports.
func rebind(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[:i] + ":0"
		}
	}
	return addr
}

func (d *Daemon) runTask(rt *runningTask, fn task.Func) {
	defer d.wg.Done()
	err := runSafely(fn, rt.ctx)

	from := task.StateRunning
	var to task.State
	switch {
	case errors.Is(err, task.ErrMigrated):
		to = task.StateCheckpointed
		// Freeze the endpoint before the checkpoint is collected: no
		// message may be acknowledged after the mailbox snapshot, or it
		// would be lost in migration.
		rt.ep.Quiesce()
	case err == nil || errors.Is(err, task.ErrKilled):
		to = task.StateExited
	default:
		to = task.StateFailed
	}
	d.mu.Lock()
	rt.state = to
	rt.err = err
	crashed := d.crashed
	d.mu.Unlock()

	// Withdraw the task's addresses; keep its state metadata (the
	// paper's daemons record exits for later queries). A crashing
	// daemon (Kill) writes nothing: a real crash would not get to. The
	// writes land before done closes, so a WaitTask or Checkpoint caller
	// never reads the task's pre-exit metadata, and a migrated task's
	// withdrawal here cannot overtake its registration on the new host.
	if !crashed {
		naming.Unregister(d.cfg.Catalog, rt.urn)
		d.cfg.Catalog.Set(rt.urn, rcds.AttrState, string(to))
		d.notifyStateChange(rt, from, to)
	}
	close(rt.done)
	if to != task.StateCheckpointed {
		rt.ep.Close()
	}
}

// runSafely converts task panics into failures rather than daemon
// crashes — one errant task must not take the host down.
func runSafely(fn task.Func, ctx *task.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task panicked: %v", r)
		}
	}()
	return fn(ctx)
}

// notifyStateChange informs the task's notify list (§5.2.3): spec list
// plus any AttrNotify assertions added later.
func (d *Daemon) notifyStateChange(rt *runningTask, from, to task.State) {
	targets := map[string]bool{}
	for _, n := range rt.spec.NotifyList {
		targets[n] = true
	}
	if vals, err := d.cfg.Catalog.Values(rt.urn, rcds.AttrNotify); err == nil {
		for _, n := range vals {
			targets[n] = true
		}
	}
	if len(targets) == 0 {
		return
	}
	payload := task.EncodeStateChange(task.StateChange{URN: rt.urn, From: from, To: to, Host: d.hostURL})
	for n := range targets {
		d.ep.Send(n, task.TagNotify, payload)
		d.mNotifies.Inc()
	}
}

// Signal delivers a signal to a local task.
func (d *Daemon) Signal(urn string, sig task.Signal) error {
	d.mu.Lock()
	rt, ok := d.tasks[urn]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, urn)
	}
	rt.ctx.Deliver(sig)
	d.mSignals.Inc()
	if sig == task.SigSuspend || sig == task.SigResume {
		state := task.StateSuspended
		if sig == task.SigResume {
			state = task.StateRunning
		}
		from := rt.state
		d.mu.Lock()
		if rt.state == task.StateRunning || rt.state == task.StateSuspended {
			rt.state = state
		}
		d.mu.Unlock()
		d.cfg.Catalog.Set(urn, rcds.AttrState, string(state))
		d.notifyStateChange(rt, from, state)
	}
	return nil
}

// TaskState reports a hosted task's state.
func (d *Daemon) TaskState(urn string) (task.State, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rt, ok := d.tasks[urn]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownTask, urn)
	}
	return rt.state, nil
}

// Tasks lists hosted task URNs and their states.
func (d *Daemon) Tasks() map[string]task.State {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]task.State, len(d.tasks))
	for urn, rt := range d.tasks {
		out[urn] = rt.state
	}
	return out
}

// WaitTask blocks until the task leaves the running/suspended states,
// returning its final state and error.
func (d *Daemon) WaitTask(urn string, timeout time.Duration) (task.State, error) {
	d.mu.Lock()
	rt, ok := d.tasks[urn]
	d.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownTask, urn)
	}
	select {
	case <-rt.done:
		d.mu.Lock()
		defer d.mu.Unlock()
		return rt.state, rt.err
	case <-time.After(timeout):
		return "", comm.ErrTimeout
	}
}

// Checkpoint asks a task to checkpoint and waits for it to hand off,
// returning a Spec that Adopt can restart elsewhere: program, args,
// saved state, and comm sequencing state. The task must cooperate (see
// task.Context.CheckpointRequested); tasks that do not respond within
// the timeout fail the request.
func (d *Daemon) Checkpoint(urn string, timeout time.Duration) (task.Spec, error) {
	d.mu.Lock()
	rt, ok := d.tasks[urn]
	d.mu.Unlock()
	if !ok {
		return task.Spec{}, fmt.Errorf("%w: %s", ErrUnknownTask, urn)
	}
	rt.ctx.RequestCheckpoint()
	select {
	case <-rt.done:
	case <-time.After(timeout):
		return task.Spec{}, ErrNotCheckpointed
	}
	d.mu.Lock()
	state := rt.state
	d.mu.Unlock()
	if state != task.StateCheckpointed {
		return task.Spec{}, fmt.Errorf("%w: task ended in state %s", ErrNotCheckpointed, state)
	}
	spec := rt.spec
	spec.Checkpoint = rt.ctx.TakeCheckpoint()
	seq := rt.ep.SnapshotSequences()
	e := xdr.NewEncoder(64)
	seq.Encode(e)
	spec.SeqState = e.Bytes()
	// The endpoint stays open briefly as the paper's relay/redirect
	// window; Release closes it.
	return spec, nil
}

// Release finishes a checkpointed task's tenure on this host, closing
// its endpoint (the end of the §5.6 relay window) and dropping it from
// the task table.
func (d *Daemon) Release(urn string) {
	d.mu.Lock()
	rt, ok := d.tasks[urn]
	if ok {
		delete(d.tasks, urn)
	}
	d.mu.Unlock()
	if ok {
		rt.ep.Close()
		d.cfg.Catalog.Remove(d.hostURL, "task", urn)
	}
}
