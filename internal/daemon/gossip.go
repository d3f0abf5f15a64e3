package daemon

import (
	"fmt"
	"strings"

	"snipe/internal/comm"
	"snipe/internal/gossip"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/task"
)

// This file is the daemon's side of the hierarchical liveness tier:
// each daemon runs a gossip.Agent that probes its group peers over the
// daemon's own comm endpoint (task.TagGossip) and — when elected
// reporter — folds the group's state into ONE digest write per
// interval, O(N/groupSize) replicated writes across the cluster where
// a catalog write per host per tick would cost O(N). The only per-host
// liveness write is the Left claim of a clean shutdown (see
// Daemon.shutdown).

// startGossip publishes the host's group membership and brings up its
// gossip agent. Called from Start after the endpoint is routable.
func (d *Daemon) startGossip() error {
	groups := d.cfg.Gossip.Groups
	if groups <= 0 {
		groups = 1
	}
	group := gossip.GroupOf(d.hostURL, groups)
	if err := d.cfg.Catalog.Set(d.hostURL, rcds.AttrGossipGroup, fmt.Sprintf("%d/%d", group, groups)); err != nil {
		return fmt.Errorf("daemon %s: publishing gossip group: %w", d.cfg.HostName, err)
	}
	ag, err := gossip.NewAgent(gossip.Config{
		Self:          d.hostURL,
		Group:         group,
		Groups:        groups,
		ProbeInterval: d.cfg.HeartbeatInterval,
		Transport:     gossip.TransportFunc(d.sendGossip),
		Peers:         func() ([]string, error) { return d.gossipPeers(group, groups) },
		WriteDigest:   d.writeDigest,
		Gate:          d.cfg.Gossip.Gate,
		Load:          d.Load,
	})
	if err != nil {
		return fmt.Errorf("daemon %s: %w", d.cfg.HostName, err)
	}
	d.mu.Lock()
	d.agent = ag
	d.mu.Unlock()
	return ag.Start()
}

// sendGossip carries one gossip message to a peer host's daemon over
// the comm layer.
func (d *Daemon) sendGossip(to string, m *gossip.Message) error {
	name := strings.TrimPrefix(to, naming.HostPrefix)
	return d.ep.Send(naming.ProcessURN(name, "daemon"), task.TagGossip, m.Encode())
}

// handleGossip ingests one gossip message from a peer daemon.
func (d *Daemon) handleGossip(m *comm.Message) {
	g, err := gossip.DecodeMessage(m.Payload)
	if err != nil {
		return
	}
	d.mu.Lock()
	ag := d.agent
	d.mu.Unlock()
	if ag != nil {
		ag.Deliver(&g)
	}
}

// gossipPeers lists this daemon's group members from the catalog: the
// hosts that published a matching gossip-group attribute and hash into
// the same group. Hand-registered host records never publish the
// attribute, so they are never probed.
func (d *Daemon) gossipPeers(group, groups int) ([]string, error) {
	urls, err := d.cfg.Catalog.URIs(naming.HostPrefix)
	if err != nil {
		return nil, err
	}
	want := fmt.Sprintf("%d/%d", group, groups)
	peers := make([]string, 0, len(urls))
	for _, url := range urls {
		if url == d.hostURL {
			continue
		}
		v, ok, err := d.cfg.Catalog.FirstValue(url, rcds.AttrGossipGroup)
		if err != nil || !ok || v != want {
			continue
		}
		peers = append(peers, url)
	}
	return peers, nil
}

// writeDigest publishes the group digest — the reporter's one catalog
// assertion per interval.
func (d *Daemon) writeDigest(dg *gossip.Digest) error {
	err := d.cfg.Catalog.Set(naming.LivenessGroupURI(dg.Group), rcds.AttrGroupDigest, dg.Format())
	if err == nil {
		d.mDigests.Inc()
	}
	return err
}

// GossipAgent returns the daemon's gossip agent (nil before Start) —
// the hook tests and experiments use to inspect group state.
func (d *Daemon) GossipAgent() *gossip.Agent {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.agent
}
