package main

import (
	"runtime"

	"snipe/internal/comm"
	"snipe/internal/rcds"
	"snipe/internal/stats"
)

// counterSet is one reading of every layer's public MetricsSnapshot,
// summed over the cluster's endpoints and catalog replicas.
type counterSet struct {
	comm    map[string]uint64
	store   map[string]uint64
	storeH  map[string]stats.HistogramSnapshot
	client  map[string]uint64
	logLen  int
	uris    int
	tombs   int
	gorouts int
}

// readCounters sums the snapshots of eps, the replicas' stores and rc.
func readCounters(eps []*comm.Endpoint, groups [][]*rcds.Server, rc *rcds.Client) counterSet {
	cs := counterSet{
		comm:    make(map[string]uint64),
		store:   make(map[string]uint64),
		storeH:  make(map[string]stats.HistogramSnapshot),
		client:  rc.MetricsSnapshot().Counters,
		gorouts: runtime.NumGoroutine(),
	}
	for _, ep := range eps {
		for k, v := range ep.MetricsSnapshot().Counters {
			cs.comm[k] += v
		}
	}
	for _, srvs := range groups {
		for _, s := range srvs {
			st := s.Store()
			snap := st.MetricsSnapshot()
			for k, v := range snap.Counters {
				cs.store[k] += v
			}
			for k, h := range snap.Histograms {
				cs.storeH[k] = addHist(cs.storeH[k], h)
			}
			cs.logLen += st.LogLen()
			u, _, t := st.Stats()
			cs.uris += u
			cs.tombs += t
		}
	}
	return cs
}

// addHist sums two histograms over the same bounds.
func addHist(a, b stats.HistogramSnapshot) stats.HistogramSnapshot {
	if a.Count == 0 && len(a.Counts) == 0 {
		b.Counts = append([]uint64(nil), b.Counts...)
		return b
	}
	for i := range a.Counts {
		if i < len(b.Counts) {
			a.Counts[i] += b.Counts[i]
		}
	}
	a.Count += b.Count
	a.Sum += b.Sum
	a.Min, a.Max = min(a.Min, b.Min), max(a.Max, b.Max)
	return a
}

// subHist is the histogram of observations made between a and b.
func subHist(b, a stats.HistogramSnapshot) stats.HistogramSnapshot {
	out := b
	out.Counts = append([]uint64(nil), b.Counts...)
	for i := range out.Counts {
		if i < len(a.Counts) {
			out.Counts[i] -= a.Counts[i]
		}
	}
	out.Count -= a.Count
	out.Sum -= a.Sum
	return out
}

// ratio is n/d, or 0 when nothing was counted.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// counterMetrics turns the counter deltas of a window of ops operations,
// writes of them Sets, into per-layer metrics.
func counterMetrics(before, after counterSet, ops, writes int, memBefore, memAfter *runtime.MemStats) map[string]metric {
	d := func(m0, m1 map[string]uint64, k string) float64 { return float64(m1[k] - m0[k]) }
	c := func(k string) float64 { return d(before.comm, after.comm, k) }
	s := func(k string) float64 { return d(before.store, after.store, k) }
	cl := func(k string) float64 { return d(before.client, after.client, k) }
	n := float64(max(ops, 1))
	lookup := subHist(after.storeH["lookup_latency_us"], before.storeH["lookup_latency_us"])
	lag := subHist(after.storeH["replication_lag_us"], before.storeH["replication_lag_us"])
	hits, misses := cl("cache_hits"), cl("cache_misses")
	return map[string]metric{
		"comm.msgs_per_op":           {c("sent") / n, "count"},
		"comm.fragments_per_op":      {c("fragments") / n, "count"},
		"comm.retried_per_kop":       {1000 * c("retried") / n, "count"},
		"comm.duplicates_per_kop":    {1000 * c("duplicates") / n, "count"},
		"comm.ack_batched_ratio":     {ratio(c("acks_batched"), c("received")), "ratio"},
		"comm.route_cache_hit_ratio": {ratio(c("route_cache_hits"), c("route_cache_hits")+c("resolves")), "ratio"},

		"service.catalog_reads_per_op": {(hits + misses) / n, "count"},

		"rcds.store.lookups_per_op":     {s("lookups") / n, "count"},
		"rcds.store.lookup_p99_us":      {lookup.Quantile(0.99), "us"},
		"rcds.store.repl_applied_ratio": {ratio(s("remote_ops_applied"), s("remote_ops")), "ratio"},
		"rcds.store.repl_lag_p50_us":    {lag.Quantile(0.50), "us"},
		"rcds.store.log_ops_per_write":  {ratio(float64(after.logLen-before.logLen), float64(writes)), "count"},
		"rcds.store.tombstones_per_uri": {ratio(float64(after.tombs), float64(after.uris)), "ratio"},

		"rcds.client.cache_hit_ratio":       {ratio(hits, hits+misses), "ratio"},
		"rcds.client.rpcs_per_op":           {cl("requests") / n, "count"},
		"rcds.client.failovers":             {cl("failovers"), "count"},
		"rcds.client.wrong_shard_redirects": {cl("wrong_shard_redirects"), "count"},

		"proc.allocs_per_op": {float64(memAfter.Mallocs-memBefore.Mallocs) / n, "count"},
		"proc.bytes_per_op":  {float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / n, "B"},
		"proc.gc_per_kop":    {1000 * float64(memAfter.NumGC-memBefore.NumGC) / n, "count"},
		"proc.goroutines":    {float64(after.gorouts), "count"},
	}
}
