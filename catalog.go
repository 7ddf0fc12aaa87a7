package eos

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
	"github.com/eosdb/eos/internal/wal"
)

// The catalog holds every object's descriptor — id, name, threshold,
// growth state, root node, and the LSN of its last logged update.  EOS
// proper leaves descriptor placement to the client (§4: a catalog page,
// or a field of a small record to implement long fields); the Store keeps
// them where it keeps everything else recovery needs: in the write-ahead
// log, with one durable pointer to them on the data volume.
//
// A barrier must make the roots that CHANGED durable behind their data
// (§4.5), not every root.  Commits and aborts are no barriers: each is
// durable at its log force, and recovery redoes a commit from the log
// until a checkpoint has persisted the roots that followed it (an abort
// leaves the roots from before its transaction, which recovery finds
// intact).  The checkpoint is the catalog's only writer.
//
// It appends the full image — every committed descriptor — to the log as
// one RecCheckpoint record, forces it, and then points the MASTER RECORD at
// it, ARIES-style: two copies on data pages 0 and 1, each with a sequence
// number and a CRC, written alternately, so that the copy being written is
// never the one recovery would otherwise load.  A master copy names the
// image's LSN, the LSN recovery's scan starts from (where the log ended
// when the checkpoint took the image, or the first record of a transaction
// then live), nextID and the geometry.  Recovery loads the valid copy with
// the higher seq.
//
// A power cut preserves an arbitrary subset of outstanding page writes;
// every crash state stays loadable because each step waits for the one
// before it to be durable: the data force, then the image's log force,
// then the master copy and its force, and only then the truncation of the
// log in front of the new start.  A torn image is never named; a torn
// master copy fails its CRC and recovery loads the other, whose image and
// records the log still holds and whose pages the reclamation queue keeps
// intact.
//
// Master copy layout: magic u32, version u8, 3 reserved bytes, seq u64,
// spaces u32, space capacity u32, nextID u64, start LSN u64, image LSN
// u64, crc u32 over everything before it.  Image layout:
// entries u32, then per entry id u64, nameLen u16, descLen u32, name,
// descriptor bytes, in id order.

const (
	masterPages = 2  // the two master copies: data pages 0 and 1
	masterCRC   = 48 // the master copy's CRC, over the bytes in front of it
	catCount    = 4  // the image's entry count
	catEntHdr   = 8 + 2 + 4
)

// master is one copy of the master record.
type master struct {
	seq, nextID           uint64
	start, image          uint64
	spaces, spaceCapacity int
}

func (m master) encode(pageSize int) []byte {
	b := make([]byte, pageSize)
	binary.BigEndian.PutUint32(b[0:], storeMagic)
	b[4] = storeVersion
	binary.BigEndian.PutUint64(b[8:], m.seq)
	binary.BigEndian.PutUint32(b[16:], uint32(m.spaces))
	binary.BigEndian.PutUint32(b[20:], uint32(m.spaceCapacity))
	binary.BigEndian.PutUint64(b[24:], m.nextID)
	binary.BigEndian.PutUint64(b[32:], m.start)
	binary.BigEndian.PutUint64(b[40:], m.image)
	binary.BigEndian.PutUint32(b[masterCRC:], crc32.ChecksumIEEE(b[:masterCRC]))
	return b
}

// readMaster returns the valid master copy with the higher seq.  A copy
// of another format version is refused by name rather than called
// corrupt.  Caller holds no locks (called during Open).
func readMaster(vol disk.Device) (master, error) {
	var best master
	found := false
	for k := disk.PageNum(0); k < masterPages; k++ {
		b, err := vol.Read(k, 1)
		if err != nil {
			return master{}, err
		}
		if binary.BigEndian.Uint32(b[0:]) != storeMagic {
			continue
		}
		if b[4] != storeVersion {
			// Not corruption: an intact store of another format generation.
			return master{}, fmt.Errorf("eos: store format version %d, this build reads only version %d (no in-place upgrade: create a new store and copy the objects over)",
				b[4], storeVersion)
		}
		if crc32.ChecksumIEEE(b[:masterCRC]) != binary.BigEndian.Uint32(b[masterCRC:]) {
			continue
		}
		m := master{
			seq:           binary.BigEndian.Uint64(b[8:]),
			spaces:        int(binary.BigEndian.Uint32(b[16:])),
			spaceCapacity: int(binary.BigEndian.Uint32(b[20:])),
			nextID:        binary.BigEndian.Uint64(b[24:]),
			start:         binary.BigEndian.Uint64(b[32:]),
			image:         binary.BigEndian.Uint64(b[40:]),
		}
		if !found || m.seq > best.seq {
			best, found = m, true
		}
	}
	if !found {
		return master{}, fmt.Errorf("%w: no intact master record", ErrCorruptStore)
	}
	return best, nil
}

// writeMaster writes m over the older copy — the one seq's parity names —
// straight to the device.  The write is volatile until the caller forces
// that page.
//
// eos:requires s.mu
func (s *Store) writeMaster(m master) error {
	if err := s.vol.WritePages(disk.PageNum(m.seq%masterPages), 1, m.encode(s.vol.PageSize())); err != nil {
		return err
	}
	s.masterWrites.Add(1)
	return nil
}

// catRec is one descriptor as the image stores it.  desc is never
// modified once set (a lob.Descriptor's bytes are never rewritten).
type catRec struct {
	id   uint64
	name string
	desc []byte
}

// imageLocked returns the catalog image: every committed descriptor.
//
// What the catalog should hold for an object is its last committed state —
// refreshed at every commit point, so for a clean entry it IS the current
// state; a never-committed object is simply omitted.  The walk is over
// byID, not catalog: an object a live transaction has destroyed has lost
// its name but stays in byID until that transaction commits, and until then
// the catalog must keep it.  The read is deliberately latch-free: an
// operation stalled in allocation backpressure holds its object's write
// latch while waiting for exactly this barrier to complete, so taking
// latches here would deadlock.
//
// eos:requires s.mu
func (s *Store) imageLocked() []byte {
	var recs []catRec
	n := catCount
	for _, e := range s.byID {
		if desc := e.loadStableDesc(); desc != nil {
			recs = append(recs, catRec{id: e.id, name: e.name, desc: desc})
			n += catEntHdr + len(e.name) + len(desc)
		}
	}
	slices.SortFunc(recs, func(a, b catRec) int { return cmp.Compare(a.id, b.id) })
	img := binary.BigEndian.AppendUint32(make([]byte, 0, n), uint32(len(recs)))
	for _, r := range recs {
		img = binary.BigEndian.AppendUint64(img, r.id)
		img = binary.BigEndian.AppendUint16(img, uint16(len(r.name)))
		img = binary.BigEndian.AppendUint32(img, uint32(len(r.desc)))
		img = append(img, r.name...)
		img = append(img, r.desc...)
	}
	return img
}

// appendImage appends a catalog image to the log and returns its LSN.
//
// eos:requires s.mu
func (s *Store) appendImage(ck *capture) (uint64, error) {
	lsn, err := s.log.Append(&wal.Record{Type: wal.RecCheckpoint, Data: ck.image, N: int64(ck.start)})
	if err == nil {
		s.imageBytes.Add(int64(len(ck.image)))
	}
	return lsn, err
}

// measure records that e's descriptor takes n bytes in the image the next
// checkpoint logs — e takes none once it has left byID — and has the log
// keep room for that image (wal.Log.Reserve).  A change to the catalog is
// measured before the log takes any record that follows it: a transaction
// measures the object it creates before its create record, and the roots it
// commits before its commit record, so the log never holds more than leaves
// room for the image.  The log goes on keeping room for an image a running
// checkpoint captured when the catalog shrinks meanwhile (wal.Log.Reserve).
//
// eos:requires s.mu
func (s *Store) measure(e *catEntry, n int) {
	size := 0
	if s.byID[e.id] == e {
		size = catEntHdr + len(e.name) + n
	}
	s.catBytes += size - e.catBytes
	e.catBytes = size
	s.log.Reserve(s.catBytes)
}

// loadCatalog makes the image the store's catalog.  The record passed
// the log's CRC, so a malformed image is a bug or a foreign format.
// Caller holds no locks (called during Open).
func (s *Store) loadCatalog(img []byte) error {
	bad := fmt.Errorf("%w: malformed catalog image", ErrCorruptStore)
	if len(img) < catCount {
		return bad
	}
	off := catCount
	for i := binary.BigEndian.Uint32(img); i > 0; i-- {
		if off+catEntHdr > len(img) {
			return bad
		}
		id := binary.BigEndian.Uint64(img[off:])
		nameLen := int(binary.BigEndian.Uint16(img[off+8:]))
		descLen := int(binary.BigEndian.Uint32(img[off+10:]))
		off += catEntHdr
		if off+nameLen+descLen > len(img) {
			return bad
		}
		name := string(img[off : off+nameLen])
		desc := append([]byte{}, img[off+nameLen:off+nameLen+descLen]...)
		off += nameLen + descLen
		obj, err := s.lm.OpenDescriptor(desc)
		if err != nil {
			return fmt.Errorf("object %q: %w", name, err)
		}
		// An append sequence open at the barrier left its untrimmed tail
		// in the descriptor.  Trimming it since was not a published change
		// (FreeUnpublished), so those pages may be someone else's now.
		obj.ForgetTail()
		e := &catEntry{id: id, name: name, obj: obj}
		e.setStableDesc(lob.EncodedDescriptor(desc))
		s.catalog[name] = e
		s.byID[id] = e
	}
	if off != len(img) {
		return bad
	}
	return nil
}
