package rcds

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"snipe/internal/xdr"
)

// probeStore builds a deterministic catalog that exercises every way an
// element can sit in a store: live values, tombstones, a value re-added
// with a higher clock, a tombstone applied before the add it beats (a
// URI holding only tombstones), a signed element, and one attribute
// carrying thousands of tombstones.
func probeStore() *Store {
	s := NewStore("rc1")
	s.SetNowFunc(func() int64 { return 1_000_000 })
	s.Set("urn:a", "n", "v1")
	s.Add("urn:a", "m", "x")
	s.Add("urn:a", "m", "y")
	s.Remove("urn:a", "m", "x")
	s.AddSigned("urn:a", "key", "k1", "alice", []byte{1, 2, 3})

	s.Add("urn:b", "k", "v")
	s.Remove("urn:b", "k", "v")
	s.Add("urn:b", "k", "v") // re-added: live again with a higher clock

	s.ApplyRemote([]Assertion{
		{URI: "urn:c", Name: "k", Value: "v", Clock: 50, Origin: "peer", Seq: 2, Deleted: true, ServerTime: 7},
		{URI: "urn:c", Name: "k", Value: "v", Clock: 40, Origin: "peer", Seq: 1, ServerTime: 6},
	})

	for i := 0; i < 3000; i++ {
		s.Set("urn:hot", "k", fmt.Sprintf("v%04d", (i*7919)%3000))
	}
	s.Add("urn:hot", "other", "z")
	return s
}

// The digest and the snapshot pages of the probe catalog are pinned: the
// store's internal layout may change, but what replicas compare and
// exchange must stay byte-identical.
const (
	probeContentHash  = "aa7279f99435d2de8abfb44f5b153e447cec27bfe179bd73f6f0f8c621e67f23"
	probeSnapshotHash = "7b75e18d63206d0524a516270404d73d2468f8486118cfb001598bb7150810b1"
)

func TestStoreContentHashGolden(t *testing.T) {
	s := probeStore()
	h := s.ContentHash()
	if got := hex.EncodeToString(h[:]); got != probeContentHash {
		t.Errorf("ContentHash = %s, want %s", got, probeContentHash)
	}

	// Page through the snapshot in small pages and hash the elements in
	// the order they arrive, cursors included.
	sum := sha256.New()
	e := xdr.NewEncoder(256)
	after, pages := "", 0
	for {
		ops, next, _ := s.SnapshotPage(after, 2)
		pages++
		for _, a := range ops {
			e.Reset()
			a.Encode(e)
			sum.Write(e.Bytes())
		}
		sum.Write([]byte(next))
		if next == "" {
			break
		}
		after = next
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != probeSnapshotHash {
		t.Errorf("snapshot pages hash = %s, want %s", got, probeSnapshotHash)
	}
	if pages != 3 { // pages never split a URI: [urn:a] [urn:b urn:c] [urn:hot]
		t.Errorf("snapshot took %d pages, want 3", pages)
	}

	// The tombstone-only URI is part of the catalog but has no live value.
	if got := s.Get("urn:c"); len(got) != 0 {
		t.Errorf("urn:c live elements = %v, want none", got)
	}
	if uris, elems, tombs := s.Stats(); uris != 4 || elems != 6 || tombs != 3001 {
		t.Errorf("Stats = %d URIs, %d elements, %d tombstones; want 4, 6, 3001", uris, elems, tombs)
	}
}

// TestStoreManyTombstonesOneURI: 10k Sets of fresh values on one URI
// leave exactly one live value, 9,999 tombstones, and a snapshot that
// still carries every element in (name, value) order.
func TestStoreManyTombstonesOneURI(t *testing.T) {
	const n = 10_000
	s := NewStore("rc1")
	var last string
	for i := 0; i < n; i++ {
		last = fmt.Sprintf("%08x", uint32(i)*2654435761) // distinct, not in write order
		s.Set("urn:hot", "k", last)
	}
	if got := s.Get("urn:hot"); len(got) != 1 || got[0].Value != last || got[0].Deleted {
		t.Fatalf("Get = %v, want only %q", got, last)
	}
	if got := s.Values("urn:hot", "k"); !slices.Equal(got, []string{last}) {
		t.Fatalf("Values = %v, want [%s]", got, last)
	}
	if v, ok := s.FirstValue("urn:hot", "k"); !ok || v != last {
		t.Fatalf("FirstValue = %q %v, want %q", v, ok, last)
	}
	if uris, elems, tombs := s.Stats(); uris != 1 || elems != 1 || tombs != n-1 {
		t.Fatalf("Stats = %d URIs, %d elements, %d tombstones; want 1, 1, %d", uris, elems, tombs, n-1)
	}
	ops, next, _ := s.SnapshotPage("", 0)
	if next != "" || len(ops) != n {
		t.Fatalf("SnapshotPage: %d elements, cursor %q; want %d, \"\"", len(ops), next, n)
	}
	live := 0
	for i, a := range ops {
		if !a.Deleted {
			live++
		}
		if i > 0 && (ops[i-1].Name > a.Name || ops[i-1].Name == a.Name && ops[i-1].Value >= a.Value) {
			t.Fatalf("snapshot out of (name, value) order at %d: %q after %q", i, a.Value, ops[i-1].Value)
		}
	}
	if live != 1 {
		t.Fatalf("snapshot holds %d live elements, want 1", live)
	}
}
