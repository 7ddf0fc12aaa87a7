package eos

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"github.com/eosdb/eos/internal/disk"
)

// The catalog holds every object's descriptor — id, name, threshold,
// growth state, root node, and the LSN of its last logged update.  EOS
// proper leaves descriptor placement to the client (§4: a catalog page,
// or a field of a small record to implement long fields); the Store keeps
// them on a small run of reserved pages after the header.
//
// A barrier must make the roots that CHANGED durable behind their data
// (§4.5), not every root.  Commits and aborts are no barriers: each is
// durable at its log force, and recovery redoes a commit, or undoes an
// abort's replaces, from the log until a checkpoint has persisted the
// roots that followed it.  The checkpoint is the catalog's only writer.
//
// It writes the reserved region, and that is where recovery starts: the
// log cannot hold the image, because a quiescent checkpoint truncates it
// and the next epoch starts again at offset 0.  The region is a journal of
// TWO slots of CatalogPages pages each, and each slot a small log.  A slot
// starts with one BASE record — the full image — followed by DELTA
// records: the descriptors whose committed state or name changed since the
// slot's previous record, plus the ids of objects that went away.  A
// checkpoint appends one delta to the current slot; when the delta does
// not fit in what is left of the slot, the full image is written as the
// base of the OTHER slot and the roles swap.  Every slot record carries
// the log position its checkpoint took right after its log force and
// before its data force.  An abort record at or below that stamp belongs
// to a rollback the checkpoint forced, so recovery leaves that
// transaction's replaces alone (see checkpointLocked).
//
// A power cut preserves an arbitrary subset of outstanding page writes,
// so three rules keep every crash state of the slots loadable:
//
//   - Every record starts on a page boundary and is written to pages no
//     durable record occupies: a torn write damages the record in flight
//     and nothing else.  (That is why deltas are page-aligned — a delta
//     sharing a page with its predecessor would have to rewrite it.  The
//     write-ahead log lays out its forces by the same rule; it is stated
//     for both in package wal and DESIGN.md §8.1.)
//   - Every record carries a store-wide monotonic sequence number and a
//     CRC.  Recovery replays, per slot, the base and then the deltas whose
//     seq is exactly one past their predecessor's; the chain ends at the
//     first record that is torn, stale (left over from the slot's earlier
//     life — its seq is lower) or absent.  The slot whose chain ends at
//     the highest seq is the checkpointed catalog.
//   - The first checkpoint after Open writes a base into the slot that was
//     NOT loaded, never onto the tail of the loaded one, where a torn
//     record may sit.
//
// A torn slot record therefore loses exactly that checkpoint's record:
// recovery falls back to the record before it, whose index pages the
// durability quarantine keeps intact.  Slot records go to the device
// directly — one vectored write per checkpoint — not through the buffer
// pool.
//
// Slot record layout: magic u32, seq u64, stamp u64 (the log position
// taken before the data force), kind u8, 3 reserved bytes, payloadLen u32,
// crc u32 (over seq..payloadLen and the payload), then the payload:
// upserts u32, per upsert id u64, nameLen u16, descLen u32, name,
// descriptor bytes; tombstones u32, per tombstone id u64.  A base is a
// record that starts from the empty catalog and has no tombstones.

const (
	catalogMagic  = 0xE05CA7A2
	catRecHdrSize = 4 + 8 + 8 + 1 + 3 + 4 + 4
	catEntHdrSize = 8 + 2 + 4

	catKindBase  = 1
	catKindDelta = 2
)

// catRec is one descriptor as the journal stores it.  desc is never
// modified once set (stableDesc slices are replaced, not rewritten).
type catRec struct {
	id   uint64
	name string
	desc []byte
}

// catalogRegionPages is the number of pages reserved after the header:
// two slots of CatalogPages each.
func catalogRegionPages(opts Options) int { return 2 * opts.CatalogPages }

// catSlotStart returns the first page of slot k (k = 0 or 1).
func (s *Store) catSlotStart(k int) disk.PageNum {
	return disk.PageNum(1 + k*s.opts.CatalogPages)
}

// catalogDelta returns what separates the descriptors the catalog should
// hold from the image prev: the entries to upsert, in id order, and the
// ids to drop.  Against a nil prev that is the full image.  full is the
// size of a slot record holding the full image, whatever prev is.
//
// What the catalog should hold for an object is its last committed
// state — refreshed at every commit point, so for a clean entry it IS the
// current state; a never-committed object is simply omitted.  The walk is
// over byID, not catalog: an object a live transaction has destroyed has
// lost its name but stays in byID until that transaction commits, and
// until then the catalog must keep it.  The read is deliberately
// latch-free: an operation stalled in allocation backpressure holds its
// object's write latch while waiting for exactly this barrier to
// complete, so taking latches here would deadlock.
//
// eos:requires s.mu
func (s *Store) catalogDelta(prev map[uint64]catRec) (ups []catRec, tombs []uint64, full int) {
	full = catRecordSize(nil, nil)
	for _, e := range s.byID {
		desc := e.loadStableDesc()
		if desc == nil {
			continue
		}
		full += catEntHdrSize + len(e.name) + len(desc)
		if old, ok := prev[e.id]; !ok || old.name != e.name || !bytes.Equal(old.desc, desc) {
			ups = append(ups, catRec{id: e.id, name: e.name, desc: desc})
		}
	}
	for id := range prev {
		if s.byID[id] == nil {
			tombs = append(tombs, id)
		}
	}
	slices.SortFunc(ups, func(a, b catRec) int { return cmp.Compare(a.id, b.id) })
	slices.Sort(tombs)
	return ups, tombs, full
}

// catalogFits refuses an image of full bytes that one slot cannot hold.
// A checkpoint asks before it writes anything, so the durable catalog
// still replays to the previous checkpoint and the store stays usable.
func (s *Store) catalogFits(full int) error {
	if room := s.opts.CatalogPages * s.vol.PageSize(); full > room {
		return fmt.Errorf("%w: the descriptors need %d bytes, %d pages per slot reserved",
			ErrCatalogFull, full, s.opts.CatalogPages)
	}
	return nil
}

// catRecordSize is the encoded size of a slot record holding ups and tombs.
func catRecordSize(ups []catRec, tombs []uint64) int {
	n := catRecHdrSize + 4 + 4 + 8*len(tombs)
	for _, r := range ups {
		n += catEntHdrSize + len(r.name) + len(r.desc)
	}
	return n
}

// encodeCatRecord serializes one slot record, stamped with a log position,
// into whole pages.
func encodeCatRecord(kind byte, seq, stamp uint64, ups []catRec, tombs []uint64, pageSize int) []byte {
	size := catRecordSize(ups, tombs)
	buf := make([]byte, catRecHdrSize, (size+pageSize-1)/pageSize*pageSize)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ups)))
	for _, r := range ups {
		buf = binary.BigEndian.AppendUint64(buf, r.id)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.name)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.desc)))
		buf = append(buf, r.name...)
		buf = append(buf, r.desc...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(tombs)))
	for _, id := range tombs {
		buf = binary.BigEndian.AppendUint64(buf, id)
	}
	binary.BigEndian.PutUint32(buf[0:], catalogMagic)
	binary.BigEndian.PutUint64(buf[4:], seq)
	binary.BigEndian.PutUint64(buf[12:], stamp)
	buf[20] = kind
	binary.BigEndian.PutUint32(buf[24:], uint32(size-catRecHdrSize))
	binary.BigEndian.PutUint32(buf[28:], catRecCRC(buf[:catRecHdrSize], buf[catRecHdrSize:]))
	return buf[:cap(buf)]
}

// catRecCRC covers everything in a record after its magic, bar the CRC
// field itself.
func catRecCRC(hdr, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr[4:28]), crc32.IEEETable, payload)
}

// writeCatalog makes the checkpointed catalog replay to the current
// committed descriptors: one delta record appended to the current slot,
// or — when the slot has no room for it — the full image as the base of
// the other slot, stamped with the log position stamp.  Nothing is
// written when nothing changed since the slot's newest record.  The write
// is volatile until the caller forces the region.  Caller holds s.mu.
//
// eos:requires s.mu
func (s *Store) writeCatalog(stamp uint64) error {
	ps := s.vol.PageSize()
	slotPages := s.opts.CatalogPages
	ups, tombs, full := s.catalogDelta(s.catImage)
	if err := s.catalogFits(full); err != nil {
		return err
	}
	if len(ups)+len(tombs) == 0 && s.catNext < slotPages {
		return nil
	}
	kind, slot, page := byte(catKindDelta), s.catSlot, s.catNext
	if need := (catRecordSize(ups, tombs) + ps - 1) / ps; page+need > slotPages {
		kind, slot, page = catKindBase, 1-s.catSlot, 0
		ups, tombs, _ = s.catalogDelta(nil)
	}
	buf := encodeCatRecord(kind, s.catSeq+1, stamp, ups, tombs, ps)
	run := make([][]byte, len(buf)/ps)
	for i := range run {
		run[i] = buf[i*ps : (i+1)*ps]
	}
	if err := s.vol.WriteRun(s.catSlotStart(slot)+disk.PageNum(page), run); err != nil {
		// The journal position does not move, so a retry overwrites the
		// same not-yet-durable pages.
		return err
	}
	s.catSeq++
	s.catSlot, s.catNext = slot, page+len(run)
	if kind == catKindBase {
		// The base is the whole image; a fresh map sheds the room of the
		// entries gone since the last one.
		s.catImage = make(map[uint64]catRec, len(ups))
		s.catCompactions.Add(1)
	} else {
		s.catDeltaWrites.Add(1)
	}
	for _, r := range ups {
		s.catImage[r.id] = r
	}
	for _, id := range tombs {
		delete(s.catImage, id)
	}
	s.catPagesWritten.Add(int64(len(run)))
	return nil
}

// parseCatRecord validates the slot record at the start of buf and returns
// its seq, stamp, kind and payload; ok is false for anything that is not
// one whole, intact record.
func parseCatRecord(buf []byte) (seq, stamp uint64, kind byte, payload []byte, ok bool) {
	if len(buf) < catRecHdrSize || binary.BigEndian.Uint32(buf[0:]) != catalogMagic {
		return 0, 0, 0, nil, false
	}
	plen := int(binary.BigEndian.Uint32(buf[24:]))
	if plen < 8 || plen > len(buf)-catRecHdrSize {
		return 0, 0, 0, nil, false
	}
	payload = buf[catRecHdrSize : catRecHdrSize+plen]
	if catRecCRC(buf, payload) != binary.BigEndian.Uint32(buf[28:]) {
		return 0, 0, 0, nil, false
	}
	return binary.BigEndian.Uint64(buf[4:]), binary.BigEndian.Uint64(buf[12:]), buf[20], payload, true
}

// applyCatPayload replays one record's payload onto img.  The payload
// passed its CRC, so a malformed one is a bug or a foreign format.
func applyCatPayload(img map[uint64]catRec, payload []byte) error {
	bad := fmt.Errorf("%w: malformed catalog record", ErrCorruptStore)
	if len(payload) < 4 {
		return bad
	}
	nUps := int(binary.BigEndian.Uint32(payload))
	off := 4
	for i := 0; i < nUps; i++ {
		if off+catEntHdrSize > len(payload) {
			return bad
		}
		id := binary.BigEndian.Uint64(payload[off:])
		nameLen := int(binary.BigEndian.Uint16(payload[off+8:]))
		descLen := int(binary.BigEndian.Uint32(payload[off+10:]))
		off += catEntHdrSize
		if off+nameLen+descLen > len(payload) {
			return bad
		}
		img[id] = catRec{id: id, name: string(payload[off : off+nameLen]), desc: payload[off+nameLen : off+nameLen+descLen]}
		off += nameLen + descLen
	}
	if off+4 > len(payload) {
		return bad
	}
	nTombs := int(binary.BigEndian.Uint32(payload[off:]))
	off += 4
	if off+8*nTombs != len(payload) {
		return bad
	}
	for i := 0; i < nTombs; i++ {
		delete(img, binary.BigEndian.Uint64(payload[off+8*i:]))
	}
	return nil
}

// replayCatalogSlot reads slot k and replays its journal: the base, then
// every delta whose seq continues the chain.  It returns the image, the
// seq of the last record replayed and that record's stamp; img
// is nil when the slot holds no intact base.  Descriptors in img alias the
// read buffer.
func (s *Store) replayCatalogSlot(k int) (img map[uint64]catRec, seq, stamp uint64, err error) {
	ps := s.vol.PageSize()
	buf := make([]byte, s.opts.CatalogPages*ps)
	if err := s.vol.ReadPages(s.catSlotStart(k), s.opts.CatalogPages, buf); err != nil {
		return nil, 0, 0, err
	}
	for off := 0; off < len(buf); {
		recSeq, recStamp, kind, payload, ok := parseCatRecord(buf[off:])
		if !ok {
			break
		}
		if img == nil {
			if kind != catKindBase {
				break
			}
			img = make(map[uint64]catRec)
		} else if kind != catKindDelta || recSeq != seq+1 {
			break
		}
		if err := applyCatPayload(img, payload); err != nil {
			return nil, 0, 0, err
		}
		seq, stamp = recSeq, recStamp
		off += (catRecHdrSize + len(payload) + ps - 1) / ps * ps
	}
	return img, seq, stamp, nil
}

// readCatalog returns the image of the catalog slot whose journal ends at
// the highest seq, and the log position its checkpoint stamped it with:
// recovery undoes no abort at or below it.  Caller holds no locks (called
// during Open).
func (s *Store) readCatalog() (img map[uint64]catRec, stamp uint64, err error) {
	for k := 0; k < 2; k++ {
		slotImg, seq, slotStamp, err := s.replayCatalogSlot(k)
		if err != nil {
			return nil, 0, err
		}
		if slotImg != nil && (img == nil || seq > s.catSeq) {
			img, stamp, s.catSeq, s.catSlot = slotImg, slotStamp, seq, k
		}
	}
	if img == nil {
		return nil, 0, fmt.Errorf("%w: no intact catalog slot", ErrCorruptStore)
	}
	// The loaded slot takes no more records: its tail may hold a torn
	// one, so the first checkpoint compacts into the other slot.
	s.catNext = s.opts.CatalogPages
	return img, stamp, nil
}

// loadCatalog makes the recovered image the store's catalog.  Caller holds
// no locks (called during Open).
func (s *Store) loadCatalog(img map[uint64]catRec) error {
	for _, r := range img {
		desc := append([]byte{}, r.desc...)
		obj, err := s.lm.OpenDescriptor(desc)
		if err != nil {
			return fmt.Errorf("object %q: %w", r.name, err)
		}
		// An append sequence open at the barrier left its untrimmed tail
		// in the descriptor.  Trimming it since was not a published change
		// (FreeUnpublished), so those pages may be someone else's now.
		obj.ForgetTail()
		e := &catEntry{id: r.id, name: r.name, obj: obj}
		e.setStableDesc(desc)
		s.catalog[r.name] = e
		s.byID[r.id] = e
		if r.id >= s.nextID {
			s.nextID = r.id + 1
		}
	}
	return nil
}
