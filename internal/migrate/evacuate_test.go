package migrate

import (
	"testing"
	"time"

	"snipe/internal/gossip"
	"snipe/internal/liveness"
	"snipe/internal/task"
	"snipe/internal/testutil"
)

// suspect feeds the monitor a gossip suspicion of host — the intake
// every production verdict takes — at the incarnation it tracks once
// the host's digest claims have arrived. The claim's sequence runs far
// ahead of the live daemon's own, so its next digest cannot refute the
// suspicion mid-test.
func suspect(t *testing.T, mon *liveness.Monitor, host string) {
	t.Helper()
	var cur liveness.Info
	testutil.WaitFor(t, 5*time.Second, func() bool {
		for _, info := range mon.Snapshot() {
			if info.Host == host && info.Inc > 0 {
				cur = info
				return true
			}
		}
		return false
	}, "monitor never tracked "+host)
	mon.ObserveGossip(gossip.Update{Host: host, Inc: cur.Inc, Seq: cur.Seq + 1<<20, State: gossip.StateSuspect})
}

func TestEvacuatorMovesTasksOffSuspectHost(t *testing.T) {
	w := newWorld(t)
	w.endpoint("urn:controller") // counter acks land here
	d1 := w.daemon("h1")
	d2 := w.daemon("h2")
	orch := w.endpoint("urn:orchestrator")

	mon := liveness.NewMonitor(w.cat, liveness.Options{
		CheckInterval: time.Hour, // suspicion injected by hand
		MinSuspect:    time.Hour,
		MaxSuspect:    2 * time.Hour,
	})
	t.Cleanup(mon.Close)

	results := make(chan EvacuationResult, 8)
	ev, err := NewEvacuator(EvacuatorConfig{
		Catalog:  w.cat,
		Monitor:  mon,
		Endpoint: orch,
		Dest:     func(exclude string) (string, error) { return d2.URN(), nil },
		OnResult: func(r EvacuationResult) { results <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ev.Close)

	taskURN, err := d1.Spawn(task.Spec{Program: "counter"})
	if err != nil {
		t.Fatal(err)
	}

	suspect(t, mon, d1.HostURL())
	select {
	case r := <-results:
		if r.Err != nil {
			t.Fatalf("evacuation failed: %v", r.Err)
		}
		if r.TaskURN != taskURN || r.From != d1.HostURL() || r.DstURN != d2.URN() {
			t.Fatalf("evacuation result: %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("suspicion never triggered an evacuation")
	}
	// The task now runs on the healthy host, checkpoint intact.
	if st, err := d2.TaskState(taskURN); err != nil || st != task.StateRunning {
		t.Fatalf("evacuated task on h2: %v %v", st, err)
	}
	if st, err := d1.TaskState(taskURN); err == nil && st == task.StateRunning {
		t.Fatal("task still running on the suspect host")
	}
}

func TestEvacuatorRefusesSuspectDestination(t *testing.T) {
	w := newWorld(t)
	w.endpoint("urn:controller")
	d1 := w.daemon("h1")
	orch := w.endpoint("urn:orchestrator")

	mon := liveness.NewMonitor(w.cat, liveness.Options{
		CheckInterval: time.Hour,
		MinSuspect:    time.Hour,
		MaxSuspect:    2 * time.Hour,
	})
	t.Cleanup(mon.Close)

	results := make(chan EvacuationResult, 8)
	ev, err := NewEvacuator(EvacuatorConfig{
		Catalog:  w.cat,
		Monitor:  mon,
		Endpoint: orch,
		// A degenerate Dest that can only offer the suspect host itself.
		Dest:     func(exclude string) (string, error) { return d1.URN(), nil },
		OnResult: func(r EvacuationResult) { results <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ev.Close)

	if _, err := d1.Spawn(task.Spec{Program: "counter"}); err != nil {
		t.Fatal(err)
	}
	suspect(t, mon, d1.HostURL())
	select {
	case r := <-results:
		if r.Err == nil {
			t.Fatal("evacuation back onto the suspect host succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no evacuation attempt recorded")
	}
}

func TestEvacuatorConfigValidation(t *testing.T) {
	if _, err := NewEvacuator(EvacuatorConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}
