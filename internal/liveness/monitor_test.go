package liveness

import (
	"strings"
	"testing"
	"time"

	"snipe/internal/gossip"
	"snipe/internal/naming"
	"snipe/internal/rcds"
)

// TestHeartbeatRoundTrip: a claim written to a host's heartbeat
// attribute in the member-entry format reaches the monitor intact,
// while malformed values, the retired "<seq> <unixnano> <load>" format
// and a claim naming another host are ignored as foreign metadata.
func TestHeartbeatRoundTrip(t *testing.T) {
	w := newBeatWorld(t, slowOptions())
	for _, bad := range []string{
		"",
		"1 1234567890 0.50",
		"7 1 0.33 down",
		w.host + ",1,2,z,0.5",
		gossip.FormatClaim(gossip.Update{Host: naming.HostURL("other"), Inc: 1, Seq: 1, State: gossip.StateAlive}),
	} {
		w.cat.Set(w.host, rcds.AttrHeartbeat, bad)
	}
	want := gossip.Update{Host: w.host, Inc: 3, Seq: 42, State: gossip.StateAlive, Load: 2.5}
	w.cat.Set(w.host, rcds.AttrHeartbeat, gossip.FormatClaim(want))
	w.waitState(Alive, time.Second)
	if got := w.mon.Metrics().Counter("heartbeats_observed").Value(); got != 1 {
		t.Fatalf("heartbeats_observed = %d, want 1 (foreign values ignored)", got)
	}
	info := w.mon.Snapshot()
	if len(info) != 1 || info[0].Inc != want.Inc || info[0].Seq != want.Seq || info[0].Load != want.Load {
		t.Fatalf("snapshot after claim: %+v", info)
	}
}

func TestHostOfURN(t *testing.T) {
	if got := HostOfURN("urn:snipe:process:h1:counter-3"); got != naming.HostURL("h1") {
		t.Fatalf("got %q", got)
	}
	for _, bad := range []string{"urn:other:process:h1:x", "snipe://hosts/h1", "urn:snipe:process:nocolon", "urn:snipe:process::x"} {
		if got := HostOfURN(bad); got != "" {
			t.Fatalf("HostOfURN(%q) = %q, want empty", bad, got)
		}
	}
}

func TestHostLoadLegacyFallback(t *testing.T) {
	store := rcds.NewStore("hl")
	cat := naming.StoreCatalog(store)
	host := naming.HostURL("h1")
	// A hand-published record: the standalone load attribute only.
	cat.Set(host, rcds.AttrLoad, "1.50")
	if load, ok := HostLoad(cat, host); !ok || load != 1.5 {
		t.Fatalf("legacy: %v %v", load, ok)
	}
	// A per-host claim is liveness evidence, not a load source.
	cat.Set(host, rcds.AttrHeartbeat, gossip.FormatClaim(gossip.Update{Host: host, Inc: 1, Seq: 3, State: gossip.StateLeft, Load: 2.25}))
	if load, ok := HostLoad(cat, host); !ok || load != 1.5 {
		t.Fatalf("claim overrode the load attribute: %v %v", load, ok)
	}
	if _, ok := HostLoad(cat, naming.HostURL("ghost")); ok {
		t.Fatal("ghost host reported a load")
	}
}

func TestPlaceable(t *testing.T) {
	want := map[State]bool{Unknown: true, Alive: true, Suspect: false, Dead: false, Left: false}
	for s, w := range want {
		if s.Placeable() != w {
			t.Fatalf("%v.Placeable() = %v", s, !w)
		}
	}
}

func TestAdaptiveSuspectBound(t *testing.T) {
	m := &Monitor{opts: Options{MinSuspect: time.Millisecond, MaxSuspect: 10 * time.Second}}
	m.opts.fill()
	m.opts.MinSuspect = time.Millisecond // fill() would raise it to the default

	rec := &hostRecord{}
	// No history: the cap applies.
	if got := m.suspectBoundLocked(rec); got != m.opts.MaxSuspect {
		t.Fatalf("no history bound = %v", got)
	}
	// A perfectly steady 10ms cadence: zero variance, so the 5×mean
	// floor provides the slack — the whole group refreshes on one
	// reporter's cadence, so the bound must span a reporter-failover gap.
	for i := 0; i < historySize; i++ {
		rec.pushInterval(10 * time.Millisecond)
	}
	if got := m.suspectBoundLocked(rec); got != 50*time.Millisecond {
		t.Fatalf("steady bound = %v, want 50ms", got)
	}
	// A cadence with rare long gaps widens the bound past the floor.
	jittery := &hostRecord{}
	for i := 0; i < historySize; i++ {
		d := time.Millisecond
		if i == 0 {
			d = 300 * time.Millisecond
		}
		jittery.pushInterval(d)
	}
	mean, std, _ := jittery.intervalStats()
	if mean+4*std <= 5*mean {
		t.Fatalf("fixture too steady: mean %v σ %v", mean, std)
	}
	if got := m.suspectBoundLocked(jittery); got != mean+4*std {
		t.Fatalf("jittery bound %v, want mean+4σ (%v)", got, mean+4*std)
	}
}

func TestIntervalRingWraps(t *testing.T) {
	rec := &hostRecord{}
	for i := 0; i < historySize*2; i++ {
		rec.pushInterval(time.Duration(i) * time.Millisecond)
	}
	if n := len(rec.intervals); n != historySize {
		t.Fatalf("ring grew to %d", n)
	}
	// All surviving samples come from the second pass.
	for _, d := range rec.intervals {
		if d < time.Duration(historySize)*time.Millisecond {
			t.Fatalf("stale sample %v survived the wrap", d)
		}
	}
}

// beatWorld is a store-backed monitor with a helper for publishing a
// host's per-host claims by hand, at a fixed incarnation and a rising
// sequence.
type beatWorld struct {
	t    *testing.T
	cat  naming.Catalog
	mon  *Monitor
	host string
	seq  uint64
}

func newBeatWorld(t *testing.T, opts Options) *beatWorld {
	t.Helper()
	store := rcds.NewStore("liveness-test")
	cat := naming.StoreCatalog(store)
	mon := NewMonitor(cat, opts)
	t.Cleanup(mon.Close)
	return &beatWorld{t: t, cat: cat, mon: mon, host: naming.HostURL("h1")}
}

// beatInc is the incarnation beatWorld claims are written at.
const beatInc = 1

func (w *beatWorld) claim(inc uint64, state uint8, load float64) {
	w.seq++
	u := gossip.Update{Host: w.host, Inc: inc, Seq: w.seq, State: state, Load: load}
	w.cat.Set(w.host, rcds.AttrHeartbeat, gossip.FormatClaim(u))
}

func (w *beatWorld) beat(load float64) { w.claim(beatInc, gossip.StateAlive, load) }

func (w *beatWorld) tombstone() { w.claim(beatInc, gossip.StateLeft, 0) }

func (w *beatWorld) waitState(want State, d time.Duration) {
	w.t.Helper()
	deadline := time.Now().Add(d)
	for {
		if got := w.mon.State(w.host); got == want {
			return
		}
		if time.Now().After(deadline) {
			w.t.Fatalf("state = %v, want %v", w.mon.State(w.host), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func quickOptions() Options {
	return Options{
		CheckInterval: 2 * time.Millisecond,
		MinSuspect:    30 * time.Millisecond,
		MaxSuspect:    60 * time.Millisecond,
		DeadFactor:    2,
	}
}

func TestMonitorStateMachine(t *testing.T) {
	w := newBeatWorld(t, quickOptions())
	events, cancel := w.mon.Subscribe(0)
	defer cancel()

	// Claims at a steady cadence: alive.
	for i := 0; i < 8; i++ {
		w.beat(1.0)
		time.Sleep(5 * time.Millisecond)
	}
	w.waitState(Alive, time.Second)

	// Silence: suspect, then dead — in that order.
	w.waitState(Dead, 2*time.Second)
	var seen []State
	for done := false; !done; {
		select {
		case ev := <-events:
			seen = append(seen, ev.To)
		default:
			done = true
		}
	}
	var names []string
	for _, s := range seen {
		names = append(names, s.String())
	}
	trace := strings.Join(names, "→")
	if !strings.HasSuffix(trace, "suspect→dead") {
		t.Fatalf("transition trace %q does not end alive→suspect→dead", trace)
	}

	// A fresh (higher-seq) claim revives even a dead host.
	w.beat(0.5)
	w.waitState(Alive, time.Second)
	if info := w.mon.Snapshot(); len(info) != 1 || info[0].Load != 0.5 {
		t.Fatalf("snapshot after revival: %+v", info)
	}
}

func TestTombstoneGoesToLeftNeverSuspect(t *testing.T) {
	w := newBeatWorld(t, quickOptions())
	events, cancel := w.mon.Subscribe(0)
	defer cancel()
	for i := 0; i < 5; i++ {
		w.beat(0)
		time.Sleep(5 * time.Millisecond)
	}
	w.waitState(Alive, time.Second)
	w.tombstone()
	w.waitState(Left, time.Second)

	// Linger past both bounds: a departed host must never be suspected
	// or declared dead.
	time.Sleep(150 * time.Millisecond)
	if got := w.mon.State(w.host); got != Left {
		t.Fatalf("state after linger = %v", got)
	}
	for done := false; !done; {
		select {
		case ev := <-events:
			if ev.To == Suspect || ev.To == Dead {
				t.Fatalf("clean shutdown produced %v (%s)", ev.To, ev.Reason)
			}
		default:
			done = true
		}
	}

	// The restarted host claims a new incarnation, its sequence
	// restarting far below the departed life's.
	w.seq = 0
	w.claim(beatInc+1, gossip.StateAlive, 0)
	w.waitState(Alive, time.Second)
}

func TestMonitorSeedsFromExistingRecords(t *testing.T) {
	store := rcds.NewStore("seed-test")
	cat := naming.StoreCatalog(store)
	pre := gossip.Update{Host: naming.HostURL("pre"), Inc: beatInc, Seq: 9, State: gossip.StateAlive, Load: 1}
	cat.Set(pre.Host, rcds.AttrHeartbeat, gossip.FormatClaim(pre))
	mon := NewMonitor(cat, quickOptions())
	defer mon.Close()
	if got := mon.State(naming.HostURL("pre")); got != Alive {
		t.Fatalf("pre-existing record not seeded: %v", got)
	}
}
