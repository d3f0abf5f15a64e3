package rcds

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"snipe/internal/xdr"
)

// Persistence: SNIPE targets "long-term distributed computing
// applications and data stores", so an RC server must survive restarts
// with its catalog intact. A snapshot holds the replica's clocks, its
// version vector and serving floor, every catalog element (winners and
// tombstones) and the retained op-log tail. The catalog is saved whole
// because log compaction drops ops whose elements are still in it; a
// restarted replica then converges with its peers through normal
// anti-entropy, catching up on whatever it missed while down.

// Snapshot magics guard against loading foreign files. Version 1 files
// hold only the op logs, from which the catalog, version vector and
// clocks are replayed; they are still loaded.
const (
	snapshotMagic   = "SNIPE-RC-SNAPSHOT-2"
	snapshotMagicV1 = "SNIPE-RC-SNAPSHOT-1"
)

// SaveTo writes a snapshot of the replica's state.
func (s *Store) SaveTo(w io.Writer) error {
	s.mu.Lock()
	e := xdr.NewEncoder(1 << 16)
	e.PutString(snapshotMagic)
	e.PutString(s.origin)
	e.PutUint64(s.lamport)
	e.PutUint64(s.seq)
	s.vv.Encode(e)
	VersionVector(s.floor).Encode(e)
	_, elements, tombstones := s.statsLocked()
	e.PutUint32(uint32(elements + tombstones))
	for uri := range s.catalogs {
		s.eachElemLocked(uri, func(a *Assertion) { a.Encode(e) })
	}
	e.PutUint32(uint32(len(s.log)))
	for origin, l := range s.log {
		e.PutString(origin)
		e.PutUint32(uint32(len(l)))
		for _, op := range l {
			op.Encode(e)
		}
	}
	s.mu.Unlock()
	_, err := w.Write(e.Bytes())
	return err
}

// LoadStore reads a snapshot written by SaveTo, in either format, and
// reconstructs the replica.
func LoadStore(r io.Reader) (*Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rcds: reading snapshot: %w", err)
	}
	d := xdr.NewDecoder(data)
	magic, err := d.StringMax(64)
	if err != nil || magic != snapshotMagic && magic != snapshotMagicV1 {
		return nil, fmt.Errorf("rcds: not an RC snapshot (magic %q, err %v)", magic, err)
	}
	origin, err := d.StringMax(maxWireURI)
	if err != nil {
		return nil, err
	}
	lamport, err := d.Uint64()
	if err != nil {
		return nil, err
	}
	seq, err := d.Uint64()
	if err != nil {
		return nil, err
	}
	s := NewStore(origin)
	s.mu.Lock()
	defer s.mu.Unlock()
	if magic == snapshotMagicV1 {
		err = readOps(d, func(op Assertion) { s.logAndApplyLocked(op) })
	} else {
		err = s.loadLocked(d)
	}
	if err != nil {
		return nil, err
	}
	// The saved counters take precedence over what loading inferred
	// (which can only raise lamport to the highest op clock).
	s.lamport = max(s.lamport, lamport)
	s.seq = max(s.seq, seq)
	return s, nil
}

// loadLocked restores the body of a current-format snapshot: vector,
// floor, catalog, then the log tail, whose entries share the catalog's
// *Assertion where the catalog holds the same op. Caller holds s.mu.
func (s *Store) loadLocked(d *xdr.Decoder) error {
	vv, err := DecodeVersionVector(d)
	if err != nil {
		return err
	}
	floor, err := DecodeVersionVector(d)
	if err != nil {
		return err
	}
	if err := readAssertions(d, func(op Assertion) { s.applyLocked(&op) }); err != nil {
		return err
	}
	err = readOps(d, func(op Assertion) {
		a := s.elemLocked(op.URI, op.Name, op.Value)
		if a == nil || a.Origin != op.Origin || a.Seq != op.Seq {
			a = &op
			s.applyLocked(a)
		}
		s.recordLocked(a)
	})
	if err != nil {
		return err
	}
	s.vv, s.floor = vv, floor
	return nil
}

// readOps decodes the per-origin op logs of a snapshot, handing each op
// to fn.
func readOps(d *xdr.Decoder, fn func(Assertion)) error {
	nOrigins, err := d.Uint32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nOrigins; i++ {
		if _, err := d.StringMax(maxWireURI); err != nil { // origin name; ops carry it too
			return err
		}
		if err := readAssertions(d, fn); err != nil {
			return err
		}
	}
	return nil
}

// readAssertions decodes a count-prefixed run of assertions, handing
// each to fn.
func readAssertions(d *xdr.Decoder, fn func(Assertion)) error {
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		op, err := DecodeAssertion(d)
		if err != nil {
			return err
		}
		fn(op)
	}
	return nil
}

// SaveFile snapshots the store to path atomically (write to a temp
// file, then rename).
func (s *Store) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := s.SaveTo(w); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a snapshot from path; a missing file yields a fresh
// store with the given origin (first boot).
func LoadFile(path, origin string) (*Store, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return NewStore(origin), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadStore(bufio.NewReader(f))
}
