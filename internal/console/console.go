// Package console implements SNIPE consoles (paper §3.7): processes
// that communicate with humans.
//
// A console is an ordinary SNIPE process; this one doubles as an HTTP
// server, "allowing text and graphical output and forms and
// mouse-click input from any web browser". It registers a binding
// between its URN and its current HTTP location in RC metadata, so a
// browser can find it even if it moves, and it acts as the paper's
// proxy server "which allows any web browser to resolve the URI of any
// RCDS-registered resource".
//
// Because "there is no SNIPE virtual machine apart from the entire
// Internet, there is no way to list all SNIPE processes" — the console
// therefore answers queries scoped the way the paper describes: the
// processes initiated by a particular host's daemon (host metadata),
// and the state of the processes in a process group (group metadata).
package console

import (
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"snipe/internal/comm"
	"snipe/internal/daemon"
	"snipe/internal/liveness"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/stats"
	"snipe/internal/task"
)

// AttrHTTPLocation is the assertion name binding a console URN to its
// current HTTP address.
const AttrHTTPLocation = "http-location"

var reqIDs atomic.Uint64

// Console is a human-facing SNIPE process with an HTTP interface.
type Console struct {
	name string
	urn  string
	cat  naming.Catalog
	ep   *comm.Endpoint
	mux  *http.ServeMux
}

// New creates a console process with its own endpoint.
func New(name string, cat naming.Catalog) (*Console, error) {
	c := &Console{
		name: name,
		urn:  naming.ProcessURN(name, "console"),
		cat:  cat,
	}
	c.ep = comm.NewEndpoint(c.urn, comm.WithResolver(naming.NewResolver(cat)))
	route, err := c.ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, fmt.Errorf("console: %w", err)
	}
	if err := naming.Register(cat, c.urn, []comm.Route{route}); err != nil {
		c.ep.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", c.handleIndex)
	mux.HandleFunc("/resolve", c.handleResolve)
	mux.HandleFunc("/hosts", c.handleHosts)
	mux.HandleFunc("/tasks", c.handleTasks)
	mux.HandleFunc("/group", c.handleGroup)
	mux.HandleFunc("/stats", c.handleStats)
	c.mux = mux
	return c, nil
}

// URN returns the console's process URN.
func (c *Console) URN() string { return c.urn }

// Close stops the console and withdraws its advertised addresses, so
// peers do not accumulate dead routes for the URN.
func (c *Console) Close() {
	naming.Unregister(c.cat, c.urn)
	c.ep.Close()
}

// ServeHTTP implements http.Handler.
func (c *Console) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// RegisterHTTPBinding records the console's current HTTP location in
// RC metadata so browsers can find it across migrations or replicas.
func (c *Console) RegisterHTTPBinding(httpURL string) error {
	return c.cat.Set(c.urn, AttrHTTPLocation, httpURL)
}

// ResolveHTTPBinding finds the current HTTP location of any console or
// HTTP-serving process by URN.
func ResolveHTTPBinding(cat naming.Catalog, urn string) (string, error) {
	v, ok, err := cat.FirstValue(urn, AttrHTTPLocation)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("console: %s has no HTTP binding", urn)
	}
	return v, nil
}

func (c *Console) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprintf(w, "<html><head><title>SNIPE console %s</title></head><body>\n", html.EscapeString(c.name))
	fmt.Fprintf(w, "<h1>SNIPE console %s</h1>\n<ul>\n", html.EscapeString(c.name))
	fmt.Fprintln(w, `<li><a href="/hosts">hosts</a></li>`)
	fmt.Fprintln(w, `<li>/resolve?uri=&lt;URI&gt; — resolve any RCDS-registered resource</li>`)
	fmt.Fprintln(w, `<li>/tasks?host=&lt;host URL&gt; — tasks started by a host daemon</li>`)
	fmt.Fprintln(w, `<li>/group?urn=&lt;group URN&gt; — process-group state</li>`)
	fmt.Fprintln(w, `<li>/stats?host=&lt;host URL&gt; — live daemon metrics snapshot (JSON)</li>`)
	fmt.Fprintln(w, "</ul></body></html>")
}

// handleResolve is the URI proxy: it renders the live assertions of
// any registered resource.
func (c *Console) handleResolve(w http.ResponseWriter, r *http.Request) {
	uri := r.URL.Query().Get("uri")
	if uri == "" {
		http.Error(w, "missing uri parameter", http.StatusBadRequest)
		return
	}
	as, err := c.assertions(uri)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if len(as) == 0 {
		http.NotFound(w, r)
		return
	}
	fmt.Fprintf(w, "<html><body><h1>%s</h1><table border=1>\n", html.EscapeString(uri))
	fmt.Fprintln(w, "<tr><th>attribute</th><th>value</th></tr>")
	for _, a := range as {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(a.name), html.EscapeString(a.value))
	}
	fmt.Fprintln(w, "</table></body></html>")
}

type attrPair struct{ name, value string }

// loadString renders a host's load figure for display, reading the
// digest-carried value (with AttrLoad fallback); "?" when the host
// publishes neither.
func loadString(cat naming.Catalog, hostURL string) string {
	if load, ok := liveness.HostLoad(cat, hostURL); ok {
		return fmt.Sprintf("%.2f", load)
	}
	return "?"
}

// assertions collects all live (name, value) pairs of a URI. The
// Catalog interface is value-oriented, so we enumerate the well-known
// attribute names plus whatever a Get on the raw client would return;
// to stay interface-clean we probe the standard attribute set.
func (c *Console) assertions(uri string) ([]attrPair, error) {
	names := []string{
		rcds.AttrArch, rcds.AttrCPUs, rcds.AttrMemory, rcds.AttrLoad,
		rcds.AttrHeartbeat,
		rcds.AttrHostDaemonURL, rcds.AttrInterface, rcds.AttrBroker,
		rcds.AttrCommAddr, rcds.AttrState, rcds.AttrNotify,
		rcds.AttrLocation, rcds.AttrMcastRouter, rcds.AttrPublicKey,
		rcds.AttrSupervisorLIFN, rcds.AttrCodeHash, rcds.AttrProtocol,
		AttrHTTPLocation, "host", "task", "member",
	}
	var out []attrPair
	for _, n := range names {
		vals, err := c.cat.Values(uri, n)
		if err != nil {
			return nil, err
		}
		for _, v := range vals {
			out = append(out, attrPair{n, v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].value < out[j].value
	})
	return out, nil
}

func (c *Console) handleHosts(w http.ResponseWriter, r *http.Request) {
	hosts, err := c.cat.URIs(naming.HostPrefix)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	fmt.Fprintln(w, "<html><body><h1>SNIPE hosts</h1><table border=1>")
	fmt.Fprintln(w, "<tr><th>host</th><th>arch</th><th>load</th><th>daemon</th></tr>")
	for _, h := range hosts {
		arch, _, _ := c.cat.FirstValue(h, rcds.AttrArch)
		durn, _, _ := c.cat.FirstValue(h, rcds.AttrHostDaemonURL)
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(h), html.EscapeString(arch),
			html.EscapeString(loadString(c.cat, h)), html.EscapeString(durn))
	}
	fmt.Fprintln(w, "</table></body></html>")
}

// handleTasks shows "the SNIPE processes which were initiated by the
// SNIPE daemon on any particular host" (§3.7), queried live from that
// daemon.
func (c *Console) handleTasks(w http.ResponseWriter, r *http.Request) {
	host := r.URL.Query().Get("host")
	if host == "" {
		http.Error(w, "missing host parameter", http.StatusBadRequest)
		return
	}
	durn, ok, err := c.cat.FirstValue(host, rcds.AttrHostDaemonURL)
	if err != nil || !ok {
		http.Error(w, "host has no daemon", http.StatusNotFound)
		return
	}
	tasks, err := daemon.StatusRemote(c.ep, durn, reqIDs.Add(1), 5*time.Second)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	urns := make([]string, 0, len(tasks))
	for u := range tasks {
		urns = append(urns, u)
	}
	sort.Strings(urns)
	fmt.Fprintf(w, "<html><body><h1>Tasks on %s</h1><table border=1>\n", html.EscapeString(host))
	fmt.Fprintln(w, "<tr><th>task</th><th>state</th></tr>")
	for _, u := range urns {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(u), html.EscapeString(string(tasks[u])))
	}
	fmt.Fprintln(w, "</table></body></html>")
}

// handleGroup shows the state of each process in a process group: "the
// state of each process in a process group is maintained as metadata
// associated with that process group" (§3.7).
func (c *Console) handleGroup(w http.ResponseWriter, r *http.Request) {
	urn := r.URL.Query().Get("urn")
	if urn == "" {
		http.Error(w, "missing urn parameter", http.StatusBadRequest)
		return
	}
	members, err := GroupState(c.cat, urn)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	fmt.Fprintf(w, "<html><body><h1>Group %s</h1><table border=1>\n", html.EscapeString(urn))
	fmt.Fprintln(w, "<tr><th>member</th><th>state</th></tr>")
	for _, m := range members {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(m.URN), html.EscapeString(string(m.State)))
	}
	fmt.Fprintln(w, "</table></body></html>")
}

// Stats fetches the composed metrics snapshot (daemon, comm, RC
// catalog) of a host's daemon over the message protocol.
func (c *Console) Stats(host string) (stats.Snapshot, error) {
	durn, ok, err := c.cat.FirstValue(host, rcds.AttrHostDaemonURL)
	if err != nil {
		return stats.Snapshot{}, err
	}
	if !ok {
		return stats.Snapshot{}, fmt.Errorf("console: %s has no daemon", host)
	}
	return daemon.StatsRemote(c.ep, durn, reqIDs.Add(1), 5*time.Second)
}

// RenderStats produces the terminal metrics view for one host — the
// console's `stats` command. With host "", every registered host is
// queried.
func (c *Console) RenderStats(host string) (string, error) {
	hosts := []string{host}
	if host == "" {
		var err error
		hosts, err = c.cat.URIs(naming.HostPrefix)
		if err != nil {
			return "", err
		}
	}
	var b strings.Builder
	for _, h := range hosts {
		s, err := c.Stats(h)
		if err != nil {
			if host == "" {
				fmt.Fprintf(&b, "%s: unreachable (%v)\n", h, err)
				continue
			}
			return "", err
		}
		fmt.Fprintf(&b, "stats for %s\n%s", h, s.Render())
	}
	return b.String(), nil
}

// handleStats serves a host daemon's metrics snapshot as JSON.
func (c *Console) handleStats(w http.ResponseWriter, r *http.Request) {
	host := r.URL.Query().Get("host")
	if host == "" {
		http.Error(w, "missing host parameter", http.StatusBadRequest)
		return
	}
	s, err := c.Stats(host)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	b, err := s.JSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// GroupMember is one process-group member's recorded state.
type GroupMember struct {
	URN   string
	State task.State
}

// AddGroupMember records a process in a process group's metadata.
func AddGroupMember(cat naming.Catalog, groupURN, memberURN string) error {
	return cat.Add(groupURN, "member", memberURN)
}

// GroupState reads the group's member list and each member's state
// from RC metadata.
func GroupState(cat naming.Catalog, groupURN string) ([]GroupMember, error) {
	members, err := cat.Values(groupURN, "member")
	if err != nil {
		return nil, err
	}
	out := make([]GroupMember, 0, len(members))
	for _, m := range members {
		st, _, err := cat.FirstValue(m, rcds.AttrState)
		if err != nil {
			return nil, err
		}
		out = append(out, GroupMember{URN: m, State: task.State(st)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URN < out[j].URN })
	return out, nil
}

// RenderText produces a terminal listing of hosts and their tasks —
// the character-based console mode the paper mentions.
func (c *Console) RenderText() (string, error) {
	var b strings.Builder
	hosts, err := c.cat.URIs(naming.HostPrefix)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "SNIPE console %s — %d host(s)\n", c.name, len(hosts))
	for _, h := range hosts {
		arch, _, _ := c.cat.FirstValue(h, rcds.AttrArch)
		fmt.Fprintf(&b, "  %s arch=%s load=%s\n", h, arch, loadString(c.cat, h))
		tasks, err := c.cat.Values(h, "task")
		if err != nil {
			continue
		}
		sort.Strings(tasks)
		for _, t := range tasks {
			st, _, _ := c.cat.FirstValue(t, rcds.AttrState)
			fmt.Fprintf(&b, "    %s [%s]\n", t, st)
		}
	}
	return b.String(), nil
}
