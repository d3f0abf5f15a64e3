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
// with its catalog intact. A snapshot serialises the replica's op logs
// (from which the catalog, version vector and Lamport clock are all
// reconstructed deterministically); a restarted replica then converges
// with its peers through normal anti-entropy, catching up on whatever
// it missed while down.

// snapshotMagic guards against loading foreign files.
const snapshotMagic = "SNIPE-RC-SNAPSHOT-1"

// SaveTo writes a snapshot of the replica's state.
func (s *Store) SaveTo(w io.Writer) error {
	s.mu.Lock()
	e := xdr.NewEncoder(1 << 16)
	e.PutString(snapshotMagic)
	e.PutString(s.origin)
	e.PutUint64(s.lamport)
	e.PutUint64(s.seq)
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

// LoadStore reads a snapshot written by SaveTo and reconstructs the
// replica.
func LoadStore(r io.Reader) (*Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rcds: reading snapshot: %w", err)
	}
	d := xdr.NewDecoder(data)
	magic, err := d.StringMax(64)
	if err != nil || magic != snapshotMagic {
		return nil, fmt.Errorf("rcds: not an RC snapshot (magic %q, err %v)", magic, err)
	}
	origin, err := d.StringMax(maxWireURI)
	if err != nil {
		return nil, err
	}
	s := NewStore(origin)
	if s.lamport, err = d.Uint64(); err != nil {
		return nil, err
	}
	if s.seq, err = d.Uint64(); err != nil {
		return nil, err
	}
	nOrigins, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nOrigins; i++ {
		if _, err := d.StringMax(maxWireURI); err != nil { // origin name; ops carry it too
			return nil, err
		}
		nOps, err := d.Uint32()
		if err != nil {
			return nil, err
		}
		for j := uint32(0); j < nOps; j++ {
			op, err := DecodeAssertion(d)
			if err != nil {
				return nil, err
			}
			s.mu.Lock()
			s.logAndApplyLocked(op)
			s.mu.Unlock()
		}
	}
	// The snapshot's lamport/seq take precedence over what replay
	// inferred (replay can only raise lamport, never above the saved
	// value plus op clocks; restore the exact counters).
	d2 := xdr.NewDecoder(data)
	d2.StringMax(64)         // magic
	d2.StringMax(maxWireURI) // origin
	lamport, _ := d2.Uint64()
	seq, _ := d2.Uint64()
	s.mu.Lock()
	if lamport > s.lamport {
		s.lamport = lamport
	}
	if seq > s.seq {
		s.seq = seq
	}
	s.mu.Unlock()
	return s, nil
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
