// Package lob implements the EOS large object manager (Biliris, ICDE
// 1992, §4): general-purpose large uninterpreted byte strings stored in a
// sequence of variable-size segments of physically contiguous disk pages,
// indexed by a positional B-tree whose keys are byte counts.
//
// The manager supports the paper's full operation set — append bytes at
// the end, read or replace a byte range, insert or delete bytes at an
// arbitrary position — with costs that depend on the bytes involved in an
// operation rather than the object size.  Small updates split segments;
// the byte- and page-reshuffling rules of §4.3–§4.4 (governed by the
// segment size threshold T) bound the resulting fragmentation so that
// sequential reads stay near disk transfer rates and storage utilization
// stays near 100%.
package lob

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/eosdb/eos/internal/disk"
)

// Common large object manager errors.
var (
	// ErrOutOfBounds is returned when an offset or range falls outside
	// the object.
	ErrOutOfBounds = errors.New("lob: byte range out of bounds")
	// ErrCorruptNode is returned when an index page fails validation.
	ErrCorruptNode = errors.New("lob: corrupt index node")
	// ErrBadConfig is returned for invalid manager configuration.
	ErrBadConfig = errors.New("lob: invalid configuration")
)

// Node page layout: a 2-byte magic, 1-byte level, 1-byte pad, 2-byte entry
// count, then (cumulative count, child page) pairs exactly as in the
// paper's Figure 5 — each node N contains (c[i], p[i]) pairs where
// c[i]-c[i-1] is the number of bytes stored in the subtree rooted at p[i].
// An object descriptor holds its root's pairs in the same form.
const (
	nodeMagic      = 0xE051
	nodeHeaderSize = 6
)

// Entry layout: a pair is a 48-bit cumulative byte count and a 32-bit page
// number, big-endian, in EntrySize bytes.  NewManager refuses a volume of
// more than 2^32 pages or 2^48 bytes, so no entry of an object on it can
// exceed either width.
const (
	EntrySize     = 10
	maxEntryCount = 1<<48 - 1
	maxEntryPage  = 1<<32 - 1
)

// errEntryRange is returned when a pair does not fit its entry.
var errEntryRange = errors.New("lob: index entry out of range")

// PutEntry encodes the pair (cum, p) into b[:EntrySize].  It refuses a
// count or page the entry cannot hold rather than truncate it.
func PutEntry(b []byte, cum int64, p disk.PageNum) error {
	if cum < 0 || cum > maxEntryCount {
		return fmt.Errorf("%w: count %d needs more than 48 bits", errEntryRange, cum)
	}
	if p < 0 || p > maxEntryPage {
		return fmt.Errorf("%w: page %d needs more than 32 bits", errEntryRange, p)
	}
	binary.BigEndian.PutUint16(b[0:], uint16(cum>>32))
	binary.BigEndian.PutUint32(b[2:], uint32(cum))
	binary.BigEndian.PutUint32(b[6:], uint32(p))
	return nil
}

// GetEntry decodes the pair PutEntry encoded into b[:EntrySize].
func GetEntry(b []byte) (cum int64, p disk.PageNum) {
	cum = int64(binary.BigEndian.Uint16(b[0:]))<<32 | int64(binary.BigEndian.Uint32(b[2:]))
	return cum, disk.PageNum(binary.BigEndian.Uint32(b[6:]))
}

// putEntries encodes es at the start of b, converting lengths to the
// on-disk cumulative counts.
func putEntries(b []byte, es []entry) error {
	var cum int64
	for i, e := range es {
		cum += e.bytes
		if err := PutEntry(b[i*EntrySize:], cum, e.ptr); err != nil {
			return err
		}
	}
	return nil
}

// getEntries decodes count pairs from the start of b and returns them with
// the bytes they hold in all.  Counts must increase: every subtree holds
// at least one byte.  The entries have no room to spare: a descriptor's
// are a root that an object keeps.
func getEntries(b []byte, count int) ([]entry, int64, error) {
	total, err := checkCounts(b, count)
	if err != nil {
		return nil, 0, err
	}
	return decodeEntries(b, count, count), total, nil
}

// checkCounts returns the last of the count cumulative counts at the start
// of b, or ErrCorruptNode unless they increase.
func checkCounts(b []byte, count int) (int64, error) {
	var prev int64
	for i := 0; i < count; i++ {
		cum, _ := GetEntry(b[i*EntrySize:])
		if cum <= prev {
			return 0, fmt.Errorf("%w: non-increasing count at entry %d", ErrCorruptNode, i)
		}
		prev = cum
	}
	return prev, nil
}

// decodeEntries decodes count pairs checkCounts accepted into entries of
// capacity capacity.
func decodeEntries(b []byte, count, capacity int) []entry {
	es := make([]entry, count, capacity)
	var prev int64
	for i := range es {
		cum, ptr := GetEntry(b[i*EntrySize:])
		es[i] = entry{bytes: cum - prev, ptr: ptr}
		prev = cum
	}
	return es
}

// entry is one (byte count, child pointer) pair of an index node, held in
// memory with the subtree *length* rather than the on-disk cumulative
// count, which makes splicing entry lists trivial.
type entry struct {
	bytes int64        // bytes stored below this child
	ptr   disk.PageNum // child node page, or first page of a leaf segment
}

// node is an in-memory index node.  level 1 nodes point at leaf segments;
// higher levels point at nodes one level down.  The root of an object is
// a node held in the object descriptor rather than on a page of its own
// (the paper leaves root placement to the client).
type node struct {
	level   int
	entries []entry
}

// size returns the total bytes stored below the node.
func (n *node) size() int64 {
	var total int64
	for _, e := range n.entries {
		total += e.bytes
	}
	return total
}

// maxFanout returns the entry capacity of a node page, which the header's
// 16-bit entry count also bounds.
func maxFanout(pageSize int) int {
	return min((pageSize-nodeHeaderSize)/EntrySize, math.MaxUint16)
}

// minFanout is the B-tree occupancy floor for non-root nodes: half full.
func minFanout(pageSize int) int {
	return maxFanout(pageSize) / 2
}

// encodeNode serializes n into the page image img, whatever img held: it
// clears only the bytes past the entries, so a frame FixNew has just
// zeroed is not zeroed twice.
func encodeNode(n *node, img []byte) error {
	end := nodeHeaderSize + len(n.entries)*EntrySize
	if end > len(img) {
		return fmt.Errorf("%w: %d entries exceed page", ErrCorruptNode, len(n.entries))
	}
	binary.BigEndian.PutUint16(img[0:], nodeMagic)
	img[2], img[3] = uint8(n.level), 0
	binary.BigEndian.PutUint16(img[4:], uint16(len(n.entries)))
	clear(img[end:])
	return putEntries(img[nodeHeaderSize:], n.entries)
}

// nodeView is an index node page read in place, in its pinned pool frame:
// what a descent that only looks needs, with no entry decoded but the ones
// it reads.  A view is valid while the frame stays pinned.
type nodeView struct {
	level int
	raw   []byte // the entries, EntrySize bytes each
}

// viewNode checks a page image as an index node — the checks decodeNode
// applies, with the same errors — and returns it as a view.
func viewNode(img []byte) (nodeView, error) {
	if len(img) < nodeHeaderSize {
		return nodeView{}, fmt.Errorf("%w: short page", ErrCorruptNode)
	}
	if binary.BigEndian.Uint16(img[0:]) != nodeMagic {
		return nodeView{}, fmt.Errorf("%w: bad magic", ErrCorruptNode)
	}
	level := int(img[2])
	count := int(binary.BigEndian.Uint16(img[4:]))
	if level < 1 || nodeHeaderSize+count*EntrySize > len(img) {
		return nodeView{}, fmt.Errorf("%w: level %d, %d entries", ErrCorruptNode, level, count)
	}
	raw := img[nodeHeaderSize : nodeHeaderSize+count*EntrySize]
	if _, err := checkCounts(raw, count); err != nil {
		return nodeView{}, err
	}
	return nodeView{level: level, raw: raw}, nil
}

// decodeNode parses a page image into a node.
func decodeNode(img []byte) (*node, error) {
	v, err := viewNode(img)
	if err != nil {
		return nil, err
	}
	return v.decode(), nil
}

// decode returns the viewed node as a node of its own, with room for the
// two entries more that an insert's splice leaves (L, N and R for S), so
// splicing it in place does not move it.
func (v nodeView) decode() *node {
	return &node{level: v.level, entries: decodeEntries(v.raw, v.count(), v.count()+2)}
}

// count is the number of entries in the view.
func (v nodeView) count() int { return len(v.raw) / EntrySize }

// entry returns entry i, given the bytes the entries before it hold.
func (v nodeView) entry(i int, before int64) entry {
	cum, ptr := GetEntry(v.raw[i*EntrySize:])
	return entry{bytes: cum - before, ptr: ptr}
}

// cover returns the entries [i, j) that cover bytes [off, off+n) of the
// view's subtree, and where entry i starts.
func (v nodeView) cover(off, n int64) (i, j int, start int64) {
	var at int64
	for ; j < v.count() && at < off+n; j++ {
		e := v.entry(j, at)
		if at += e.bytes; at <= off {
			i, start = j+1, at
		}
	}
	return i, j, start
}

// total is the bytes the view's subtree holds: its last cumulative count.
func (v nodeView) total() int64 {
	if v.count() == 0 {
		return 0
	}
	cum, _ := GetEntry(v.raw[len(v.raw)-EntrySize:])
	return cum
}

// childIndex returns the index of the child whose subtree contains byte
// offset off — the smallest i with off < c[i], per the paper's search
// step 2 — plus the byte offset of that child's subtree.  off == size
// maps to the last child so that appends address the rightmost path.
func (n *node) childIndex(off int64) (i int, childStart int64) {
	var cum int64
	for i = 0; i < len(n.entries)-1; i++ {
		if off < cum+n.entries[i].bytes {
			return i, cum
		}
		cum += n.entries[i].bytes
	}
	return len(n.entries) - 1, cum
}

// splice replaces entries [i, j) with repl: in place when the entries'
// capacity holds the result — a node's entries are its own, decoded from
// its page, or the root's, which Publish copies and an abort rebuilds from
// a descriptor, so nothing else sees them move —, else in a slice of
// exactly the result's length, so a root an object keeps holds no room it
// does not use.
func (n *node) splice(i, j int, repl []entry) {
	size := len(n.entries) - (j - i) + len(repl)
	if size <= cap(n.entries) {
		n.entries = slices.Replace(n.entries, i, j, repl...)
		return
	}
	out := make([]entry, 0, size)
	out = append(out, n.entries[:i]...)
	out = append(out, repl...)
	n.entries = append(out, n.entries[j:]...)
}

// pagesFor returns the number of pages a segment of b bytes occupies:
// every page full except possibly the last (§4: "There are no holes in
// each segment").
func pagesFor(b int64, pageSize int) int {
	if b <= 0 {
		return 0
	}
	return int((b + int64(pageSize) - 1) / int64(pageSize))
}
