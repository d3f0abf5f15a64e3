package rcds

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore("rc1")
	s.Set("urn:h1", AttrArch, "go-sim")
	s.Add("urn:f1", AttrLocation, "fs1")
	s.Add("urn:f1", AttrLocation, "fs2")
	s.Remove("urn:f1", AttrLocation, "fs1")
	// Remote ops are preserved too.
	other := NewStore("rc2")
	s.ApplyRemote(other.Set("urn:h2", AttrArch, "sparc"))

	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin() != "rc1" {
		t.Fatalf("origin: %s", got.Origin())
	}
	if v, ok := got.FirstValue("urn:h1", AttrArch); !ok || v != "go-sim" {
		t.Fatalf("h1 arch: %q %v", v, ok)
	}
	if locs := got.Values("urn:f1", AttrLocation); len(locs) != 1 || locs[0] != "fs2" {
		t.Fatalf("f1 locations (tombstone lost?): %v", locs)
	}
	if v, ok := got.FirstValue("urn:h2", AttrArch); !ok || v != "sparc" {
		t.Fatalf("remote op lost: %q %v", v, ok)
	}
	// Version vector reconstructed: a caught-up peer gets nothing.
	if ops := got.OpsSince(s.Vector(), 0); len(ops) != 0 {
		t.Fatalf("vector drift: %d ops", len(ops))
	}
}

func TestSnapshotPreservesClocks(t *testing.T) {
	s := NewStore("rc1")
	for i := 0; i < 10; i++ {
		s.Set("u", "n", "v")
	}
	var buf bytes.Buffer
	s.SaveTo(&buf)
	got, err := LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// New local ops on the restored store must supersede pre-snapshot
	// state everywhere (clocks must not regress).
	ops := got.Set("u", "n", "post-restart")
	op := ops[len(ops)-1]
	if !op.Supersedes(&Assertion{Clock: 10, Origin: "rc1", Seq: 10}) {
		t.Fatalf("restored clocks regressed: %+v", op)
	}
}

// saveLoad round-trips s through SaveTo and LoadStore.
func saveLoad(t *testing.T, s *Store) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// assertSameState fails unless got holds want's catalog, vector and
// retained log, and answers tail requests the same way.
func assertSameState(t *testing.T, want, got *Store) {
	t.Helper()
	if want.ContentHash() != got.ContentHash() {
		t.Errorf("ContentHash differs after reload")
	}
	if !maps.Equal(want.Vector(), got.Vector()) {
		t.Errorf("Vector = %v, want %v", got.Vector(), want.Vector())
	}
	if got.LogLen() != want.LogLen() {
		t.Errorf("LogLen = %d, want %d", got.LogLen(), want.LogLen())
	}
	vv := want.Vector()
	probes := []VersionVector{{}, vv}
	for origin, seq := range vv {
		for _, back := range []uint64{1, 9, 10, 11, 50, seq} {
			if back <= seq {
				p := vv.Copy()
				p[origin] = seq - back
				probes = append(probes, p)
			}
		}
	}
	for _, p := range probes {
		if w, g := want.CanServeTail(p), got.CanServeTail(p); w != g {
			t.Errorf("CanServeTail(%v) = %v, want %v", p, g, w)
		}
		if w, g := len(want.OpsSince(p, 0)), len(got.OpsSince(p, 0)); w != g {
			t.Errorf("OpsSince(%v) = %d ops, want %d", p, g, w)
		}
	}
}

// TestSnapshotCompactedRoundTrip: a store whose log was compacted
// reloads with every element, including those whose ops were dropped
// from the log, and with its vector, floor and log tail.
func TestSnapshotCompactedRoundTrip(t *testing.T) {
	s := NewStore("rc1")
	for i := 0; i < 100; i++ {
		s.Set(fmt.Sprintf("urn:%03d", i), "k", "v")
	}
	for i := 0; i < 30; i++ {
		s.Set("urn:hot", "k", fmt.Sprint(i)) // tombstones
	}
	other := NewStore("rc2")
	for i := 0; i < 40; i++ {
		s.ApplyRemote(other.Set(fmt.Sprintf("urn:r%02d", i), "k", "w"))
	}
	s.Compact(10)

	got := saveLoad(t, s)
	if n := len(got.URIs("urn:")); n != 141 {
		t.Fatalf("reloaded %d URIs, want 141", n)
	}
	assertSameState(t, s, got)
	if _, _, tombs := got.Stats(); tombs != 29 {
		t.Fatalf("reloaded %d tombstones, want 29", tombs)
	}

	// The log tail and the catalog share their ops again.
	got.mu.Lock()
	for origin, l := range got.log {
		for seq, op := range l {
			if e := got.elemLocked(op.URI, op.Name, op.Value); e.Origin == origin && e.Seq == seq && e != op {
				t.Errorf("log op %s/%d is a second copy of its catalog element", origin, seq)
			}
		}
	}
	got.mu.Unlock()

	// New local ops continue the saved sequence, above the floor.
	ops := got.Set("urn:new", "k", "v")
	if want := s.Vector()["rc1"] + 1; ops[0].Seq != want {
		t.Fatalf("first op after reload has seq %d, want %d", ops[0].Seq, want)
	}

	// A second save of the reloaded store is stable.
	assertSameState(t, got, saveLoad(t, got))
}

// TestSnapshotLoadsV1: a snapshot in the op-log-only format of earlier
// releases (testdata/snapshot-v1.bin) still loads, and re-saves in the
// current format without change.
func TestSnapshotLoadsV1(t *testing.T) {
	data, err := os.ReadFile("testdata/snapshot-v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	s, err := LoadStore(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	h := s.ContentHash()
	if got := hex.EncodeToString(h[:]); got != "f50558f443bbfa811c7f4267a3abce3f0ed500ca3e6fecdd7036efbe8315329e" {
		t.Errorf("ContentHash = %s", got)
	}
	if want := (VersionVector{"rc1": 6, "rc2": 2}); !maps.Equal(s.Vector(), want) {
		t.Errorf("Vector = %v, want %v", s.Vector(), want)
	}
	if s.LogLen() != 8 {
		t.Errorf("LogLen = %d, want 8", s.LogLen())
	}
	if v, ok := s.FirstValue("urn:b", "loc"); !ok || v != "y" {
		t.Errorf("urn:b loc = %q %v, want y", v, ok)
	}
	assertSameState(t, s, saveLoad(t, s))
}

func TestLoadStoreRejectsGarbage(t *testing.T) {
	if _, err := LoadStore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadStore(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rc.snap")

	// Missing file → fresh store.
	fresh, err := LoadFile(path, "rc9")
	if err != nil || fresh.Origin() != "rc9" {
		t.Fatalf("fresh: %v %v", fresh, err)
	}

	s := NewStore("rc1")
	s.Set("urn:x", "k", "v")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path, "ignored")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got.FirstValue("urn:x", "k"); !ok || v != "v" {
		t.Fatalf("file round trip: %q %v", v, ok)
	}
}

func TestRestartedReplicaCatchesUp(t *testing.T) {
	// A replica snapshots, "crashes", misses writes, restarts from the
	// snapshot, and converges via anti-entropy.
	s0 := NewServer(NewStore("rc0"), WithAntiEntropyInterval(30*time.Millisecond))
	if err := s0.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s0.Close()
	s1 := NewServer(NewStore("rc1"),
		WithPeers(s0.Addr()), WithAntiEntropyInterval(30*time.Millisecond))
	if err := s1.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	s0.SetPeers(s1.Addr())

	c := NewClient([]string{s0.Addr()}, nil)
	defer c.Close()
	c.Set(context.Background(), "urn:a", "k", "before")

	// Replica 1 receives the write, snapshots, and dies.
	c1 := NewClient([]string{s1.Addr()}, nil)
	wctx, wcancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer wcancel()
	if _, err := c1.WaitFor(wctx, "urn:a", "k"); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	var snap bytes.Buffer
	if err := s1.Store().SaveTo(&snap); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// A write lands while replica 1 is down.
	c.Set(context.Background(), "urn:a", "k2", "while-down")

	// Restart from the snapshot; anti-entropy pulls the missed write.
	restored, err := LoadStore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	s1b := NewServer(restored, WithPeers(s0.Addr()), WithAntiEntropyInterval(30*time.Millisecond))
	if err := s1b.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s1b.Close()
	c1b := NewClient([]string{s1b.Addr()}, nil)
	defer c1b.Close()
	wctx2, wcancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel2()
	if v, err := c1b.WaitFor(wctx2, "urn:a", "k2"); err != nil || v != "while-down" {
		t.Fatalf("catch-up: %q %v", v, err)
	}
	// And it kept the pre-crash state.
	if v, ok, _ := c1b.FirstValue(context.Background(), "urn:a", "k"); !ok || v != "before" {
		t.Fatalf("pre-crash state: %q %v", v, ok)
	}
}
