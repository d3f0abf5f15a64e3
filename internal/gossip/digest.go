package gossip

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Digest is one gossip group's liveness summary: the member
// incarnation vector plus suspect/dead/left verdicts and per-member
// load, written by the group's reporter as ONE catalog assertion per
// interval. The catalog value format is
//
//	v1 <group> <digest-seq> <quorum 0|1> <reporter> <member>...
//
// with each member entry "<host>,<inc>,<seq>,<state-letter>,<load>"
// (plus a trailing ",n" when the member is catalog-unreachable). Host
// names are full host URLs; they never contain spaces or commas
// (validHostName), so the format splits unambiguously.
type Digest struct {
	Group    int    // gossip group index
	Reporter string // host URL of the member that wrote this digest
	Seq      uint64 // reporter's digest sequence, monotone per incarnation
	Quorum   bool   // reporter could see a majority of known members
	Members  []Update
}

// maxDigestMembers caps parsing: a group is tens of members; reject
// hostile values long before allocation.
const maxDigestMembers = 1 << 16

var digestStateLetter = map[uint8]string{
	StateAlive:   "a",
	StateSuspect: "s",
	StateDead:    "d",
	StateLeft:    "l",
}

var digestLetterState = map[string]uint8{
	"a": StateAlive,
	"s": StateSuspect,
	"d": StateDead,
	"l": StateLeft,
}

// Format renders the digest in its catalog value format. Members are
// sorted by host so equal group states render identically. Members
// whose host names cannot ride the format are skipped (they cannot
// occur for daemon-published hosts; the guard is for open metadata).
func (d *Digest) Format() string {
	q := "0"
	if d.Quorum {
		q = "1"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "v1 %d %d %s %s", d.Group, d.Seq, q, d.Reporter)
	members := make([]Update, 0, len(d.Members))
	for _, u := range d.Members {
		if validHostName(u.Host) {
			members = append(members, u)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Host < members[j].Host })
	for _, u := range members {
		b.WriteByte(' ')
		writeClaim(&b, u)
	}
	return b.String()
}

// FormatClaim renders one member claim in the digest's member-entry
// format, "<host>,<inc>,<seq>,<state-letter>,<load>" (plus ",n" when
// NoCat): the one value format every kind of liveness evidence in the
// catalog shares.
func FormatClaim(u Update) string {
	var b strings.Builder
	writeClaim(&b, u)
	return b.String()
}

func writeClaim(b *strings.Builder, u Update) {
	fmt.Fprintf(b, "%s,%d,%d,%s,%.3f", u.Host, u.Inc, u.Seq, digestStateLetter[u.State], u.Load)
	if u.NoCat {
		b.WriteString(",n")
	}
}

// ParseDigest reads a catalog digest value written by Format.
func ParseDigest(s string) (*Digest, error) {
	fields := strings.Fields(s)
	if len(fields) < 4 || fields[0] != "v1" {
		return nil, fmt.Errorf("gossip: malformed digest %q", truncate(s))
	}
	var d Digest
	var err error
	if d.Group, err = strconv.Atoi(fields[1]); err != nil || d.Group < 0 {
		return nil, fmt.Errorf("gossip: digest group %q", fields[1])
	}
	if d.Seq, err = strconv.ParseUint(fields[2], 10, 64); err != nil {
		return nil, fmt.Errorf("gossip: digest seq: %w", err)
	}
	switch fields[3] {
	case "0":
	case "1":
		d.Quorum = true
	default:
		return nil, fmt.Errorf("gossip: digest quorum flag %q", fields[3])
	}
	if len(fields) < 5 {
		return nil, fmt.Errorf("gossip: digest missing reporter")
	}
	d.Reporter = fields[4]
	entries := fields[5:]
	if len(entries) > maxDigestMembers {
		return nil, fmt.Errorf("gossip: digest member count %d exceeds cap", len(entries))
	}
	d.Members = make([]Update, 0, len(entries))
	for _, entry := range entries {
		u, err := ParseClaim(entry)
		if err != nil {
			return nil, err
		}
		d.Members = append(d.Members, u)
	}
	return &d, nil
}

// ParseClaim reads one member claim written by FormatClaim.
func ParseClaim(entry string) (Update, error) {
	var u Update
	parts := strings.Split(entry, ",")
	if len(parts) != 5 && len(parts) != 6 {
		return u, fmt.Errorf("gossip: digest member entry %q", truncate(entry))
	}
	u.Host = parts[0]
	if !validHostName(u.Host) {
		return u, fmt.Errorf("gossip: digest member host %q", truncate(parts[0]))
	}
	var err error
	if u.Inc, err = strconv.ParseUint(parts[1], 10, 64); err != nil {
		return u, fmt.Errorf("gossip: digest member inc: %w", err)
	}
	if u.Seq, err = strconv.ParseUint(parts[2], 10, 64); err != nil {
		return u, fmt.Errorf("gossip: digest member seq: %w", err)
	}
	st, ok := digestLetterState[parts[3]]
	if !ok {
		return u, fmt.Errorf("gossip: digest member state %q", truncate(parts[3]))
	}
	u.State = st
	if u.Load, err = strconv.ParseFloat(parts[4], 64); err != nil {
		return u, fmt.Errorf("gossip: digest member load: %w", err)
	}
	if len(parts) == 6 {
		if parts[5] != "n" {
			return u, fmt.Errorf("gossip: digest member trailer %q", truncate(parts[5]))
		}
		u.NoCat = true
	}
	return u, nil
}

// truncate bounds hostile input in error strings.
func truncate(s string) string {
	if len(s) > 64 {
		return s[:64] + "…"
	}
	return s
}
