package eos

import (
	"bytes"
	"testing"
)

// descModel holds, per object id, the descriptor EncodeDescriptor gave at
// the object's last commit point: what every catalog image a checkpoint
// logs must hold byte for byte, whenever the store encoded it.
type descModel map[uint64][]byte

// eagerDesc encodes the named object's descriptor now, under its latch.
func eagerDesc(t *testing.T, s *Store, name string) (uint64, []byte) {
	t.Helper()
	s.mu.Lock()
	e := s.catalog[name]
	s.mu.Unlock()
	if e == nil {
		t.Fatalf("no object %q", name)
	}
	e.latch.Lock()
	defer e.latch.Unlock()
	return e.id, e.obj.EncodeDescriptor()
}

// committed records the named objects' descriptors at a commit point.
func (m descModel) committed(t *testing.T, s *Store, names ...string) {
	t.Helper()
	for _, n := range names {
		id, desc := eagerDesc(t, s, n)
		m[id] = desc
	}
}

// checkpointHolds runs a checkpoint and fails unless the image it logged is
// m, byte for byte.
func (m descModel) checkpointHolds(t *testing.T, s *Store, what string) {
	t.Helper()
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("%s: checkpoint: %v", what, err)
	}
	recs := durableImage(t, s)
	if len(recs) != len(m) {
		t.Fatalf("%s: the image holds %d descriptors, want %d", what, len(recs), len(m))
	}
	for _, r := range recs {
		if want, ok := m[r.id]; !ok || !bytes.Equal(r.desc, want) {
			t.Fatalf("%s: object %q (id %d): the image holds a descriptor of %d bytes that is not the one encoded at its last commit point (%d bytes)", what, r.name, r.id, len(r.desc), len(want))
		}
	}
}

// TestCatalogImageIsTheEagerEncoding checks that a descriptor captured at
// a commit point and encoded later, when a checkpoint's image needs it, is
// the descriptor an eager encoding at the commit point gives: across
// non-transactional writes, a commit, an abort, an object a live
// transaction changes after its capture, and a crash and reopen.
func TestCatalogImageIsTheEagerEncoding(t *testing.T) {
	s, vol, logVol := newStore(t, Options{Threshold: 4})
	m := descModel{}
	open := func(s *Store, n string) *Object {
		t.Helper()
		o, err := s.Open(n)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Non-transactional writes: each publishes and captures, and an object
	// written twice between checkpoints captures twice.
	for i, n := range []string{"a", "b"} {
		o, err := s.Create(n, 0)
		must(err)
		for k := 0; k < 6; k++ {
			must(o.AppendWithHint(pat(10*i+k, 3000), 3000))
		}
		m.committed(t, s, n)
	}
	must(open(s, "a").Insert(5000, pat(30, 4000)))
	must(open(s, "a").Delete(100, 2500))
	must(open(s, "b").Insert(0, pat(31, 700)))
	m.committed(t, s, "a", "b")
	m.checkpointHolds(t, s, "object writes")

	// A commit captures every object it touched, the one it created too.
	tx, err := s.Begin()
	must(err)
	must(tx.Insert("a", 2000, pat(32, 5000)))
	must(tx.Create("c", 0))
	must(tx.Append("c", pat(33, 9000)))
	must(tx.Commit())
	m.committed(t, s, "a", "c")
	m.checkpointHolds(t, s, "commit")

	// An abort leaves the capture of the last commit point.
	tx, err = s.Begin()
	must(err)
	must(tx.Delete("b", 300, 1200))
	must(tx.Abort())
	if id, desc := eagerDesc(t, s, "b"); !bytes.Equal(desc, m[id]) {
		t.Fatal("the abort did not reinstate b's committed descriptor")
	}
	m.checkpointHolds(t, s, "abort")

	// Captured, then changed: a write captures a's published state, and a
	// live transaction changes the same root before the checkpoint encodes
	// the capture.  The image holds the capture, and after the commit the
	// commit's.
	must(open(s, "a").Append(pat(34, 1500)))
	m.committed(t, s, "a")
	tx, err = s.Begin()
	must(err)
	must(tx.Insert("a", 700, pat(35, 6000)))
	must(tx.Delete("a", 0, 400))
	m.checkpointHolds(t, s, "a live transaction changed a captured object")
	must(tx.Commit())
	m.committed(t, s, "a")
	must(open(s, "c").Insert(10, pat(36, 2000)))
	m.committed(t, s, "c")
	m.checkpointHolds(t, s, "after the commit")

	// A crash with commits only in the log: recovery redoes them, and its
	// checkpoint's image is the encoding of what it redid.
	tx, err = s.Begin()
	must(err)
	must(tx.Append("b", pat(37, 3000)))
	must(tx.Insert("c", 50, pat(38, 700)))
	must(tx.Commit())
	s = crashReopen(t, vol, logVol)
	m = descModel{}
	m.committed(t, s, "a", "b", "c")
	if recs := durableImage(t, s); len(recs) != len(m) {
		t.Fatalf("recovery's image holds %d descriptors, want %d", len(recs), len(m))
	} else {
		for _, r := range recs {
			if !bytes.Equal(r.desc, m[r.id]) {
				t.Fatalf("recovery's image: object %q is not the encoding of the recovered object", r.name)
			}
		}
	}
	must(open(s, "b").Delete(10, 2000))
	m.committed(t, s, "b")
	m.checkpointHolds(t, s, "after the reopen")
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}
