package gossip

import (
	"strings"
	"testing"
)

func TestSupersedes(t *testing.T) {
	u := func(inc, seq uint64, state uint8) Update {
		return Update{Host: "h", Inc: inc, Seq: seq, State: state}
	}
	cases := []struct {
		name string
		a, b Update
		want bool
	}{
		{"higher inc wins", u(2, 1, StateAlive), u(1, 9, StateDead), true},
		{"lower inc loses", u(1, 9, StateLeft), u(2, 1, StateAlive), false},
		{"suspect beats alive at equal inc", u(1, 1, StateSuspect), u(1, 9, StateAlive), true},
		{"alive does not refute suspect at equal inc", u(1, 9, StateAlive), u(1, 1, StateSuspect), false},
		{"dead beats suspect", u(1, 1, StateDead), u(1, 5, StateSuspect), true},
		{"left beats dead", u(1, 1, StateLeft), u(1, 5, StateDead), true},
		{"same state higher seq wins", u(1, 5, StateAlive), u(1, 4, StateAlive), true},
		{"same state same seq is not fresher", u(1, 4, StateAlive), u(1, 4, StateAlive), false},
	}
	for _, c := range cases {
		if got := c.a.Supersedes(c.b); got != c.want {
			t.Errorf("%s: Supersedes = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestGroupOf(t *testing.T) {
	if GroupOf("snipe://hosts/a", 0) != 0 || GroupOf("snipe://hosts/a", 1) != 0 {
		t.Fatal("n<=1 must map to group 0")
	}
	const n = 16
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		host := "snipe://hosts/h" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
		g := GroupOf(host, n)
		if g < 0 || g >= n {
			t.Fatalf("GroupOf(%q, %d) = %d out of range", host, n, g)
		}
		if g != GroupOf(host, n) {
			t.Fatalf("GroupOf not deterministic for %q", host)
		}
		seen[g] = true
	}
	if len(seen) < n/2 {
		t.Fatalf("200 hosts hit only %d/%d groups; hash badly skewed", len(seen), n)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Kind: kindPing, From: "snipe://hosts/a", ProbeID: 7},
		{Kind: kindAck, From: "snipe://hosts/b", Target: "snipe://hosts/c", ProbeID: 1 << 40},
		{Kind: kindPush, From: "snipe://hosts/a", Updates: []Update{
			{Host: "snipe://hosts/a", Inc: 3, Seq: 99, State: StateAlive, Load: 1.25},
			{Host: "snipe://hosts/b", Inc: 1, Seq: 2, State: StateSuspect, NoCat: true},
			{Host: "snipe://hosts/c", Inc: 2, Seq: 5, State: StateLeft, Load: 0.5},
		}},
	}
	for _, m := range msgs {
		got, err := DecodeMessage(m.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Kind != m.Kind || got.From != m.From || got.Target != m.Target || got.ProbeID != m.ProbeID {
			t.Fatalf("header mismatch: %+v vs %+v", got, m)
		}
		if len(got.Updates) != len(m.Updates) {
			t.Fatalf("update count %d, want %d", len(got.Updates), len(m.Updates))
		}
		for i, u := range m.Updates {
			if got.Updates[i] != u {
				t.Fatalf("update %d: %+v, want %+v", i, got.Updates[i], u)
			}
		}
	}
}

func TestDecodeMessageRejects(t *testing.T) {
	good := (&Message{Kind: kindPing, From: "a", Updates: []Update{{Host: "h", Inc: 1, Seq: 1, State: StateAlive}}}).Encode()
	cases := map[string][]byte{
		"empty":           {},
		"kind zero":       (&Message{Kind: 0, From: "a"}).Encode(),
		"kind high":       (&Message{Kind: 99, From: "a"}).Encode(),
		"truncated":       good[:len(good)-3],
		"trailing":        append(append([]byte{}, good...), 0, 0, 0, 0),
		"count overclaim": {0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
	}
	for name, b := range cases {
		if _, err := DecodeMessage(b); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
	// A bad state byte inside an update must be rejected too.
	bad := &Message{Kind: kindPush, From: "a", Updates: []Update{{Host: "h", Inc: 1, Seq: 1, State: 9}}}
	if _, err := DecodeMessage(bad.Encode()); err == nil {
		t.Error("invalid member state accepted")
	}
}

func TestDigestRoundTrip(t *testing.T) {
	d := &Digest{
		Group:    3,
		Reporter: "snipe://hosts/a",
		Seq:      41,
		Quorum:   true,
		Members: []Update{
			{Host: "snipe://hosts/b", Inc: 2, Seq: 17, State: StateAlive, Load: 0.5},
			{Host: "snipe://hosts/a", Inc: 1, Seq: 40, State: StateAlive, Load: 1.25, NoCat: true},
			{Host: "snipe://hosts/c", Inc: 1, Seq: 9, State: StateDead},
		},
	}
	got, err := ParseDigest(d.Format())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got.Group != d.Group || got.Reporter != d.Reporter || got.Seq != d.Seq || got.Quorum != d.Quorum {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Members) != 3 {
		t.Fatalf("member count %d", len(got.Members))
	}
	// Format sorts by host.
	for i, want := range []string{"snipe://hosts/a", "snipe://hosts/b", "snipe://hosts/c"} {
		if got.Members[i].Host != want {
			t.Fatalf("member %d host %q, want %q", i, got.Members[i].Host, want)
		}
	}
	if !got.Members[0].NoCat || got.Members[1].NoCat {
		t.Fatal("NoCat trailer lost")
	}
	if got.Members[2].State != StateDead {
		t.Fatalf("state lost: %+v", got.Members[2])
	}
	if got.Members[0].Load != 1.25 || got.Members[1].Load != 0.5 {
		t.Fatal("load lost")
	}
	// Each member entry is a claim that also stands alone.
	for _, u := range d.Members {
		if c, err := ParseClaim(FormatClaim(u)); err != nil || c != u {
			t.Fatalf("claim round trip: %+v -> %+v (%v)", u, c, err)
		}
	}
}

func TestDigestFormatSkipsInvalidHosts(t *testing.T) {
	d := &Digest{Group: 0, Reporter: "snipe://hosts/a", Seq: 1, Members: []Update{
		{Host: "bad host", Inc: 1, Seq: 1, State: StateAlive},
		{Host: "snipe://hosts/a", Inc: 1, Seq: 1, State: StateAlive},
	}}
	got, err := ParseDigest(d.Format())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got.Members) != 1 || got.Members[0].Host != "snipe://hosts/a" {
		t.Fatalf("invalid host not skipped: %+v", got.Members)
	}
}

func TestParseDigestRejects(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"wrong version":  "v2 0 1 1 snipe://hosts/a",
		"missing fields": "v1 0 1",
		"bad group":      "v1 x 1 1 snipe://hosts/a",
		"negative group": "v1 -1 1 1 snipe://hosts/a",
		"bad seq":        "v1 0 x 1 snipe://hosts/a",
		"bad quorum":     "v1 0 1 2 snipe://hosts/a",
		"no reporter":    "v1 0 1 1",
		"short entry":    "v1 0 1 1 snipe://hosts/a h,1,1",
		"bad state":      "v1 0 1 1 snipe://hosts/a h,1,1,z,0.5",
		"bad inc":        "v1 0 1 1 snipe://hosts/a h,x,1,a,0.5",
		"bad load":       "v1 0 1 1 snipe://hosts/a h,1,1,a,x",
		"bad trailer":    "v1 0 1 1 snipe://hosts/a h,1,1,a,0.5,z",
	}
	for name, s := range cases {
		if _, err := ParseDigest(s); err == nil {
			t.Errorf("%s: ParseDigest accepted %q", name, s)
		}
	}
}
