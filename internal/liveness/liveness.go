// Package liveness is SNIPE's failure-detection subsystem: the paper's
// "failure notification" made a system property instead of a private
// habit of each layer.
//
// Liveness evidence has one form, the gossip claim (host, incarnation,
// sequence, state, load; see internal/gossip). Host daemons run SWIM
// gossip agents within small groups, and each group's elected reporter
// folds its members' claims into ONE replicated catalog write per
// interval, the group digest. A Monitor watches the catalog and merges
// every claim it finds, whether from a digest, from a host's own
// per-host record or from a colocated agent's Observer feed, through
// one rule, ObserveGossipQuorum. It tracks every host through the
// state machine
//
//	alive → suspect → dead
//
// using the digests' own suspect/dead verdicts plus an adaptive timeout
// derived from the observed inter-arrival history (in the spirit of
// the φ accrual detector, Hayashibara et al., SRDS 2004) rather than a
// fixed deadline, so a group whose reporter falls silent still ages
// out.
//
// Consumers: resource managers filter suspect/dead hosts out of
// placement and re-report tasks stranded on dead hosts; service
// clients drop replicas on such hosts from rotation; the migration
// layer evacuates checkpointable tasks off hosts entering suspicion. A
// clean daemon shutdown writes the host's final Left claim to its
// per-host record, so planned exits transition to "left" at once and
// never look like crashes.
package liveness

import (
	"strconv"
	"strings"

	"snipe/internal/gossip"
	"snipe/internal/naming"
	"snipe/internal/rcds"
)

// HostOfURN maps a process URN to its host's distinguished URL, the key
// the Monitor tracks. Returns "" for names outside the process
// namespace (liveness is a host property, not a task property).
func HostOfURN(urn string) string {
	rest, ok := strings.CutPrefix(urn, naming.ProcessPrefix)
	if !ok {
		return ""
	}
	host, _, ok := strings.Cut(rest, ":")
	if !ok || host == "" {
		return ""
	}
	return naming.HostURL(host)
}

// HostLoad reads a host's load figure. A daemon-run host (it carries a
// gossip-group attribute) publishes load through its group's digest,
// so that is consulted first; the standalone load attribute covers
// records published by hand.
func HostLoad(cat naming.Catalog, hostURL string) (float64, bool) {
	if v, ok, err := cat.FirstValue(hostURL, rcds.AttrGossipGroup); err == nil && ok {
		if load, ok := digestLoad(cat, hostURL, v); ok {
			return load, true
		}
	}
	if v, ok, err := cat.FirstValue(hostURL, rcds.AttrLoad); err == nil && ok {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f, true
		}
	}
	return 0, false
}

// digestLoad resolves a host's load from its gossip group's digest.
// groupAttr is the host's "<group>/<groups>" membership attribute.
func digestLoad(cat naming.Catalog, hostURL, groupAttr string) (float64, bool) {
	idx, _, ok := strings.Cut(groupAttr, "/")
	if !ok {
		return 0, false
	}
	g, err := strconv.Atoi(idx)
	if err != nil || g < 0 {
		return 0, false
	}
	v, ok, err := cat.FirstValue(naming.LivenessGroupURI(g), rcds.AttrGroupDigest)
	if err != nil || !ok {
		return 0, false
	}
	d, err := gossip.ParseDigest(v)
	if err != nil {
		return 0, false
	}
	for _, u := range d.Members {
		if u.Host == hostURL {
			return u.Load, true
		}
	}
	return 0, false
}
