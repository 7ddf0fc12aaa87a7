// Package exodus implements the EXODUS large object storage scheme
// (Carey, DeWitt, Richardson & Shekita, VLDB 1986) as a comparison
// baseline for EOS.
//
// Large objects live on fixed-size leaf data blocks indexed by a
// B-tree-like structure whose keys are byte counts — the structure EOS
// §4 adopts, but with fixed rather than variable-size leaves.  Clients
// can set the leaf block size (in pages) per file; that one knob trades
// search time against storage utilization, the tension §2 of the EOS
// paper highlights: large blocks waste space at partially full leaves,
// small blocks cost many I/Os per read.
//
// Leaf blocks are kept between half and completely full, B-tree style,
// and are updated in place.
package exodus

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
)

// Errors returned by the EXODUS baseline.
var (
	// ErrOutOfBounds is returned for ranges outside the object.
	ErrOutOfBounds = errors.New("exodus: byte range out of bounds")
	// ErrCorrupt is returned when an index page fails validation.
	ErrCorrupt = errors.New("exodus: corrupt index node")
)

// Node page layout: magic, level, entry count, then (cumulative count,
// child page) pairs in EOS's entry layout (lob.PutEntry), so a comparison
// with EOS measures the two designs and not their encodings.
const (
	nodeMagic      = 0xE30D
	nodeHeaderSize = 6
)

type entry struct {
	bytes int64
	ptr   disk.PageNum
}

type node struct {
	level   int // 1 = children are leaf blocks
	entries []entry
}

func (n *node) size() int64 {
	var t int64
	for _, e := range n.entries {
		t += e.bytes
	}
	return t
}

func (n *node) childIndex(off int64) (int, int64) {
	var cum int64
	for i := 0; i < len(n.entries)-1; i++ {
		if off < cum+n.entries[i].bytes {
			return i, cum
		}
		cum += n.entries[i].bytes
	}
	return len(n.entries) - 1, cum
}

// Object is one EXODUS large object.
type Object struct {
	vol       disk.Device
	pool      *buffer.Pool
	alloc     lob.Allocator
	leafPages int // fixed leaf block size
	root      *node
	size      int64
}

// New creates an empty object with the given leaf block size in pages.
func New(vol disk.Device, pool *buffer.Pool, alloc lob.Allocator, leafPages int) (*Object, error) {
	if leafPages < 1 {
		return nil, fmt.Errorf("exodus: invalid leaf block size %d", leafPages)
	}
	if (vol.PageSize()-nodeHeaderSize)/lob.EntrySize < 4 {
		return nil, fmt.Errorf("exodus: page size %d too small", vol.PageSize())
	}
	return &Object{vol: vol, pool: pool, alloc: alloc, leafPages: leafPages, root: &node{level: 1}}, nil
}

// Size returns the object length in bytes.
func (o *Object) Size() int64 { return o.size }

// LeafPages reports the fixed leaf block size.
func (o *Object) LeafPages() int { return o.leafPages }

func (o *Object) leafCap() int64 { return int64(o.leafPages) * int64(o.vol.PageSize()) }

func (o *Object) maxFanout() int { return (o.vol.PageSize() - nodeHeaderSize) / lob.EntrySize }
func (o *Object) minFanout() int { return o.maxFanout() / 2 }

func (o *Object) checkRange(off, n int64) error {
	if off < 0 || n < 0 || off+n > o.size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBounds, off, off+n, o.size)
	}
	return nil
}

// ---- node I/O ----

func (o *Object) readNode(p disk.PageNum) (*node, error) {
	img, err := o.pool.Fix(p)
	if err != nil {
		return nil, err
	}
	defer o.pool.Unpin(p)
	if binary.BigEndian.Uint16(img[0:]) != nodeMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	n := &node{level: int(img[2])}
	count := int(binary.BigEndian.Uint16(img[4:]))
	var prev int64
	off := nodeHeaderSize
	for i := 0; i < count; i++ {
		cum, ptr := lob.GetEntry(img[off:])
		if cum <= prev {
			return nil, fmt.Errorf("%w: non-increasing counts", ErrCorrupt)
		}
		n.entries = append(n.entries, entry{cum - prev, ptr})
		prev = cum
		off += lob.EntrySize
	}
	return n, nil
}

func (o *Object) writeNode(p disk.PageNum, n *node) (disk.PageNum, error) {
	if p == 0 {
		var err error
		p, err = o.alloc.Alloc(1)
		if err != nil {
			return 0, err
		}
	}
	img, err := o.pool.FixNew(p)
	if err != nil {
		return 0, err
	}
	defer o.pool.Unpin(p)
	binary.BigEndian.PutUint16(img[0:], nodeMagic)
	img[2] = uint8(n.level)
	binary.BigEndian.PutUint16(img[4:], uint16(len(n.entries)))
	var cum int64
	off := nodeHeaderSize
	for _, e := range n.entries {
		cum += e.bytes
		if err := lob.PutEntry(img[off:], cum, e.ptr); err != nil {
			return 0, err
		}
		off += lob.EntrySize
	}
	return p, nil
}

func (o *Object) freeNodePage(p disk.PageNum) error {
	o.pool.Discard(p)
	return o.alloc.Free(p, 1)
}

// ---- leaf block I/O ----

// readBlock reads the live bytes of a leaf block.
func (o *Object) readBlock(e entry) ([]byte, error) {
	ps := int64(o.vol.PageSize())
	npages := int((e.bytes + ps - 1) / ps)
	raw := make([]byte, npages*int(ps))
	if err := o.vol.ReadPages(e.ptr, npages, raw); err != nil {
		return nil, err
	}
	return raw[:e.bytes], nil
}

// writeBlock writes data into an existing or fresh leaf block and returns
// its entry.  Leaf blocks always occupy leafPages pages on disk.
func (o *Object) writeBlock(p disk.PageNum, data []byte) (entry, error) {
	if p == 0 {
		var err error
		p, err = o.alloc.Alloc(o.leafPages)
		if err != nil {
			return entry{}, err
		}
	}
	ps := int64(o.vol.PageSize())
	npages := int((int64(len(data)) + ps - 1) / ps)
	if npages == 0 {
		npages = 1
	}
	raw := make([]byte, npages*int(ps))
	copy(raw, data)
	if err := o.vol.WritePages(p, npages, raw); err != nil {
		return entry{}, err
	}
	return entry{bytes: int64(len(data)), ptr: p}, nil
}

func (o *Object) freeBlock(p disk.PageNum) error {
	return o.alloc.Free(p, o.leafPages)
}

// splitBytes partitions data into the fewest blocks of at most leafCap
// bytes, balanced so each holds at least half a block (when more than
// one).
func (o *Object) splitBytes(data []byte) [][]byte {
	cap := o.leafCap()
	nParts := int((int64(len(data)) + cap - 1) / cap)
	if nParts == 0 {
		return nil
	}
	base := len(data) / nParts
	extra := len(data) % nParts
	var parts [][]byte
	pos := 0
	for i := 0; i < nParts; i++ {
		n := base
		if i < extra {
			n++
		}
		parts = append(parts, data[pos:pos+n])
		pos += n
	}
	return parts
}
