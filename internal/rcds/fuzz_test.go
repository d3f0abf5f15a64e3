//go:build go1.18

package rcds

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"testing"

	"snipe/internal/xdr"
)

func fuzzAssertionBytes(a Assertion) []byte {
	e := xdr.NewEncoder(128)
	a.Encode(e)
	return e.Bytes()
}

func FuzzDecodeAssertion(f *testing.F) {
	f.Add(fuzzAssertionBytes(Assertion{
		URI: "urn:snipe:host:a", Name: "comm-addr", Value: "tcp://h:1",
		Clock: 7, Origin: "srv1", Seq: 3,
	}))
	f.Add(fuzzAssertionBytes(Assertion{
		URI: "urn:x", Name: "n", Value: "", Deleted: true, ServerTime: -1,
		Signature: bytes.Repeat([]byte{1}, 64), Signer: "alice",
	}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := DecodeAssertion(xdr.NewDecoder(b))
		if err != nil {
			return
		}
		again, err := DecodeAssertion(xdr.NewDecoder(fuzzAssertionBytes(a)))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.URI != a.URI || again.Name != a.Name || again.Value != a.Value ||
			again.Clock != a.Clock || again.Origin != a.Origin || again.Seq != a.Seq ||
			again.Deleted != a.Deleted || !bytes.Equal(again.Signature, a.Signature) {
			t.Fatalf("round-trip mismatch:\n%+v\n%+v", a, again)
		}
	})
}

func FuzzDecodeAssertions(f *testing.F) {
	e := xdr.NewEncoder(256)
	EncodeAssertions(e, []Assertion{
		{URI: "urn:a", Name: "n", Value: "v", Clock: 1, Origin: "o", Seq: 1},
		{URI: "urn:b", Name: "m", Value: "w", Clock: 2, Origin: "o", Seq: 2},
	})
	f.Add(e.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // hostile count
	f.Fuzz(func(t *testing.T, b []byte) {
		DecodeAssertions(xdr.NewDecoder(b))
	})
}

func FuzzDecodeVersionVector(f *testing.F) {
	vv := VersionVector{"srv1": 10, "srv2": 3}
	e := xdr.NewEncoder(64)
	vv.Encode(e)
	f.Add(e.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // hostile count, no body
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := DecodeVersionVector(xdr.NewDecoder(b))
		if err != nil {
			return
		}
		e := xdr.NewEncoder(64)
		v.Encode(e)
		again, err := DecodeVersionVector(xdr.NewDecoder(e.Bytes()))
		if err != nil || !again.Dominates(v) || !v.Dominates(again) {
			t.Fatalf("vector round-trip mismatch: %v vs %v (err %v)", v, again, err)
		}
	})
}

func FuzzParseResponse(f *testing.F) {
	f.Add(okResponse(func(e *xdr.Encoder) { e.PutString("pong") }))
	f.Add(errResponse(ErrServer))
	f.Add(wrongShardResponse(2, 7))
	f.Add([]byte{statusWrongShard, 0, 0, 0, 1}) // truncated redirect
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 4, 'j', 'u', 'n', 'k'})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Every status except OK yields an error: statusErr and
		// statusWrongShard by design (server error / typed redirect),
		// everything else as ErrUnknownStatus.
		if len(b) > 0 && b[0] != statusOK {
			if _, err := parseResponse(b); err == nil {
				t.Fatalf("parseResponse accepted non-OK status %d", b[0])
			}
			return
		}
		parseResponse(b)
	})
}

func FuzzDecodeWaitReply(f *testing.F) {
	encode := func(r waitReply) []byte {
		e := xdr.NewEncoder(64)
		e.PutUint64(r.version)
		e.PutBool(r.complete)
		e.PutStringSlice(r.uris)
		return e.Bytes()
	}
	f.Add(encode(waitReply{version: 42, complete: true, uris: []string{"snipe://hosts/a", "urn:b"}}))
	f.Add(encode(waitReply{version: 7}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}) // hostile count
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})                                     // version only
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeWaitReply(xdr.NewDecoder(b))
		if err != nil {
			return
		}
		if len(r.uris) > maxWatchURIs {
			t.Fatalf("decoded %d URIs past the %d cap", len(r.uris), maxWatchURIs)
		}
		again, err := decodeWaitReply(xdr.NewDecoder(encode(r)))
		if err != nil || again.version != r.version || again.complete != r.complete ||
			fmt.Sprint(again.uris) != fmt.Sprint(r.uris) {
			t.Fatalf("wait reply round-trip mismatch: %+v vs %+v (err %v)", r, again, err)
		}
	})
}

// FuzzLoadStore decodes arbitrary bytes as a snapshot in either format.
// Whatever loads must survive a save and reload unchanged.
func FuzzLoadStore(f *testing.F) {
	if v1, err := os.ReadFile("testdata/snapshot-v1.bin"); err == nil {
		f.Add(v1)
	}
	s := NewStore("rc1")
	s.Set("urn:a", "k", "v1")
	s.Set("urn:a", "k", "v2")
	s.ApplyRemote([]Assertion{{URI: "urn:b", Name: "k", Value: "w", Clock: 9, Origin: "rc2", Seq: 1}})
	s.Compact(1)
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := LoadStore(bytes.NewReader(b))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := s.SaveTo(&out); err != nil {
			t.Fatal(err)
		}
		again, err := LoadStore(&out)
		if err != nil {
			t.Fatalf("reload of a saved store failed: %v", err)
		}
		if again.ContentHash() != s.ContentHash() || !maps.Equal(again.Vector(), s.Vector()) ||
			again.LogLen() != s.LogLen() {
			t.Fatalf("save/reload changed the store: vector %v → %v, log %d → %d",
				s.Vector(), again.Vector(), s.LogLen(), again.LogLen())
		}
	})
}
