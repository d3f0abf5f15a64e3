package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"snipe/internal/comm"
	"snipe/internal/gossip"
	"snipe/internal/liveness"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/service"
)

// --- Service groups: replicated RPC under a mid-run host kill ------------
//
// N echo replicas register under one service URN; a swarm of client
// workers issues streaming calls continuously. Mid-run one replica's
// host is killed cold — its claims stop, endpoint dies, no drain. The
// claim under test is the tentpole invariant: between per-attempt
// retry and the liveness-fed balancer, NOT ONE client call fails, and
// throughput recovers to the pre-kill level once detection narrows the
// rotation.

// ServicePhasePoint summarises one phase of the run relative to the
// kill: "before" (start → kill), "during" (kill → the balancer drops
// the victim from rotation) and "after" (rotation narrowed → end).
type ServicePhasePoint struct {
	Phase       string  `json:"phase"`
	Calls       int     `json:"calls"`
	Failures    int     `json:"failures"`
	Secs        float64 `json:"secs"`
	CallsPerSec float64 `json:"calls_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
}

// ServiceResult is one full service-kill run.
type ServiceResult struct {
	Replicas    int                 `json:"replicas"`
	Workers     int                 `json:"workers"`
	RespBytes   int                 `json:"resp_bytes"`
	KilledHost  string              `json:"killed_host"`
	SuspectMs   float64             `json:"suspect_ms"`   // kill → monitor suspects the host (-1: never)
	RebalanceMs float64             `json:"rebalance_ms"` // kill → victim out of client rotation (-1: never)
	Calls       int                 `json:"calls"`
	Failures    int                 `json:"failures"`
	Phases      []ServicePhasePoint `json:"phases"`
}

type serviceSample struct {
	at     time.Duration // call completion, relative to run start
	lat    time.Duration
	failed bool
}

// MeasureServiceKill runs the service-group kill experiment: replicas
// echo replicas padded to respBytes, workers concurrent callers, warm
// of pre-kill traffic and post of post-detection traffic.
func MeasureServiceKill(replicas, workers, respBytes int, warm, post time.Duration) (ServiceResult, error) {
	res := ServiceResult{Replicas: replicas, Workers: workers, RespBytes: respBytes, SuspectMs: -1, RebalanceMs: -1}
	cat := naming.StoreCatalog(rcds.NewStore("bench-service"))

	endpoint := func(urn string) (*comm.Endpoint, error) {
		r := naming.NewResolver(cat)
		r.SetTTL(20 * time.Millisecond)
		ep := comm.NewEndpoint(urn, comm.WithResolver(r))
		route, err := ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
		if err != nil {
			return nil, err
		}
		return ep, naming.Register(cat, urn, []comm.Route{route})
	}

	// Per-host alive claims at a fixed incarnation and a rising
	// sequence, stoppable per host to simulate the kill.
	hbStop := make(map[string]chan struct{})
	var hbWG sync.WaitGroup
	beatHost := func(host string) {
		hostURL := naming.HostURL(host)
		done := make(chan struct{})
		hbStop[host] = done
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			claim := gossip.Update{Host: hostURL, Inc: 1, State: gossip.StateAlive, Load: 0.5}
			for {
				claim.Seq++
				cat.Set(hostURL, rcds.AttrHeartbeat, gossip.FormatClaim(claim))
				select {
				case <-done:
					return
				case <-tick.C:
				}
			}
		}()
	}
	defer func() {
		for _, ch := range hbStop {
			select {
			case <-ch:
			default:
				close(ch)
			}
		}
		hbWG.Wait()
	}()

	mon := liveness.NewMonitor(cat, liveness.Options{
		CheckInterval: 10 * time.Millisecond,
		MinSuspect:    100 * time.Millisecond,
		MaxSuspect:    400 * time.Millisecond,
	})
	defer mon.Close()

	pad := make([]byte, respBytes)
	for i := range pad {
		pad[i] = byte(i)
	}
	var eps []*comm.Endpoint
	for i := 0; i < replicas; i++ {
		host := fmt.Sprintf("svc%d", i+1)
		beatHost(host)
		ep, err := endpoint(naming.ProcessURN(host, "echo"))
		if err != nil {
			return res, err
		}
		defer ep.Close()
		srv, err := service.NewServer(service.ServerConfig{
			Name: "bench-echo", Catalog: cat, Endpoint: ep,
		})
		if err != nil {
			return res, err
		}
		defer srv.Close()
		srv.Handle("echo", func(ctx context.Context, st *comm.Stream) error {
			for {
				if _, err := st.Read(ctx); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
			}
			return st.Write(ctx, pad)
		})
		eps = append(eps, ep)
	}

	cliEP, err := endpoint(naming.ProcessURN("cli", "bench"))
	if err != nil {
		return res, err
	}
	defer cliEP.Close()
	cli, err := service.NewClient(service.ClientConfig{
		Service: "bench-echo", Catalog: cat, Endpoint: cliEP,
		Monitor: mon, Attempts: replicas, AttemptTimeout: 700 * time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	defer cli.Close()

	// The load: workers call as fast as the group answers, recording
	// every outcome with its completion time.
	var mu sync.Mutex
	var samples []serviceSample
	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	start := time.Now()
	for wkr := 0; wkr < workers; wkr++ {
		loadWG.Add(1)
		go func() {
			defer loadWG.Done()
			req := []byte("bench request")
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				t0 := time.Now()
				resp, err := cli.Call(ctx, "echo", req)
				cancel()
				s := serviceSample{at: time.Since(start), lat: time.Since(t0), failed: err != nil}
				if err == nil && len(resp) != respBytes {
					s.failed = true
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}

	time.Sleep(warm)

	// The kill: victim is the first replica. Its claims stop and the
	// endpoint drops cold, exactly like a host crash.
	victimHost := "svc1"
	victimURL := naming.HostURL(victimHost)
	res.KilledHost = victimURL
	killAt := time.Since(start)
	close(hbStop[victimHost])
	eps[0].Close()

	kill := time.Now()
	for time.Since(kill) < 10*time.Second {
		if st := mon.State(victimURL); st == liveness.Suspect || st == liveness.Dead {
			if res.SuspectMs < 0 {
				res.SuspectMs = float64(time.Since(kill)) / 1e6
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	rebalancedAt := time.Duration(-1)
	for time.Since(kill) < 10*time.Second {
		cands, err := cli.Candidates()
		if err == nil {
			inRotation := false
			for _, urn := range cands {
				if liveness.HostOfURN(urn) == victimURL {
					inRotation = true
				}
			}
			if !inRotation {
				res.RebalanceMs = float64(time.Since(kill)) / 1e6
				rebalancedAt = time.Since(start)
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}

	time.Sleep(post)
	close(stopLoad)
	loadWG.Wait()

	// Phase accounting by completion time.
	if rebalancedAt < 0 {
		rebalancedAt = killAt // degenerate: everything post-kill is "after"
	}
	phases := map[string][]serviceSample{}
	for _, s := range samples {
		switch {
		case s.at < killAt:
			phases["before"] = append(phases["before"], s)
		case s.at < rebalancedAt:
			phases["during"] = append(phases["during"], s)
		default:
			phases["after"] = append(phases["after"], s)
		}
		res.Calls++
		if s.failed {
			res.Failures++
		}
	}
	bounds := map[string]float64{
		"before": killAt.Seconds(),
		"during": (rebalancedAt - killAt).Seconds(),
		"after":  (time.Since(start) - rebalancedAt).Seconds(),
	}
	for _, name := range []string{"before", "during", "after"} {
		ss := phases[name]
		pt := ServicePhasePoint{Phase: name, Calls: len(ss), Secs: bounds[name]}
		lats := make([]float64, 0, len(ss))
		for _, s := range ss {
			if s.failed {
				pt.Failures++
			} else {
				lats = append(lats, float64(s.lat)/1e6)
			}
		}
		if pt.Secs > 0 {
			pt.CallsPerSec = float64(pt.Calls) / pt.Secs
		}
		pt.P50Ms = pctlMs(lats, 0.50)
		pt.P99Ms = pctlMs(lats, 0.99)
		res.Phases = append(res.Phases, pt)
	}
	return res, nil
}

// pctlMs picks the q-quantile of a millisecond sample set (-1: empty).
func pctlMs(ms []float64, q float64) float64 {
	if len(ms) == 0 {
		return -1
	}
	sort.Float64s(ms)
	i := int(q * float64(len(ms)-1))
	return ms[i]
}

// ServiceArtifact is the machine-readable run record, written to
// BENCH_service.json.
type ServiceArtifact struct {
	Experiment  string        `json:"experiment"`
	GeneratedAt string        `json:"generated_at"`
	Quick       bool          `json:"quick"`
	Result      ServiceResult `json:"result"`
}

// WriteServiceArtifact writes the run's artifact as indented JSON.
func WriteServiceArtifact(path string, result ServiceResult, quick bool) error {
	art := ServiceArtifact{
		Experiment:  "service",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Quick:       quick,
		Result:      result,
	}
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
