// Package buddy implements the EOS binary buddy disk space manager
// (Biliris, ICDE 1992, §3).
//
// A buddy segment space is a fixed-size section of physically adjacent
// pages together with a one-page directory.  The directory holds a count
// array — the number of free segments of each type t (size 2^t pages) —
// and a page allocation map (amap) encoding the status and size of every
// segment in the space.  The entire allocation and deallocation process is
// performed on the directory page only; data pages are never touched.
//
// The amap encoding follows the paper's Figure 2.  Byte B describes pages
// 4B..4B+3:
//
//	1 s tttttt — a segment of size 2^t >= 4 pages starts at page 4B;
//	             s is the status bit (1 allocated, 0 free).
//	0 000 pqrs — the status of pages 4B..4B+3 individually, one bit per
//	             page (bit 0 = page 4B), 1 allocated, 0 free.
//	0000 0000  — pages 4B..4B+3 belong to a segment that starts to the
//	             left; the first nonzero byte on the left describes it.
//
// The encoding is unambiguous because the canonical buddy invariant (free
// buddy segments are always coalesced) guarantees that four individually
// free aligned pages never occur: they would have merged into a type-2
// segment and been written in the first form.
package buddy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Common buddy system errors.
var (
	// ErrNoSpace is returned when no free segment can satisfy a request.
	ErrNoSpace = errors.New("buddy: no free segment of the requested size")
	// ErrBadRequest is returned for invalid sizes or page ranges.
	ErrBadRequest = errors.New("buddy: invalid request")
	// ErrDoubleFree is returned when freed pages are already free.
	ErrDoubleFree = errors.New("buddy: page already free")
	// ErrCorrupt is returned when the directory page fails validation.
	ErrCorrupt = errors.New("buddy: corrupt directory")
)

// Directory page layout offsets.
const (
	offMagic    = 0  // uint32
	offVersion  = 4  // uint8
	offMaxType  = 5  // uint8
	offCapacity = 8  // uint32
	offBase     = 12 // int64: volume page of space-relative page 0
	offCounts   = 20 // uint16 * (maxType+1)
	dirMagic    = 0xE05B0DD1
	dirVersion  = 1
)

// amap byte encoding.
const (
	bitBig   = 0x80 // segment of size >= 4 starts here
	bitAlloc = 0x40 // big-form status bit
	typeMask = 0x3f // big-form type bits
)

// dir is a view over a directory page image.  All buddy arithmetic
// operates through this type so that the page image is the single source
// of truth — exactly the property that makes one directory page access
// sufficient per request.
type dir struct {
	img []byte
	// st, when set, is the state of the space the directory belongs to:
	// allocScan resumes its skip-scan from the space's hint and counts its
	// probes there, and markFree keeps the hint a lower bound.
	st *dirState
}

// dirHeaderBytes is the fixed directory header size.
const dirHeaderBytes = offCounts

// Layout reports, for a given page size, the maximum segment type and the
// maximum space capacity (in pages) a one-page directory can control.  The
// paper's arithmetic (§3): with 4 KB pages the maximum segment is 2^13
// pages and the map controls about four pages per byte; our header costs a
// few amap bytes relative to the paper's idealized 2-byte-counts-only
// figure.
func Layout(pageSize int) (maxType, maxCapacity int, err error) {
	if pageSize < dirHeaderBytes+8 {
		return 0, 0, fmt.Errorf("%w: page size %d too small for a directory", ErrBadRequest, pageSize)
	}
	// Maximum segment size the paper supports is 2*pageSize pages.
	maxType = bits.Len(uint(2*pageSize)) - 1
	if maxType > typeMask {
		maxType = typeMask
	}
	amapBytes := pageSize - dirHeaderBytes - 2*(maxType+1)
	if amapBytes < 1 {
		return 0, 0, fmt.Errorf("%w: page size %d too small for a directory", ErrBadRequest, pageSize)
	}
	maxCapacity = amapBytes * 4
	return maxType, maxCapacity, nil
}

// displaySegAt is segStartingAt extended with the pair grouping used for
// human-readable snapshots: two allocated pages sharing an aligned pair
// are shown as one 2-page segment, matching the paper's figures.  (The
// encoding itself does not record small allocated groupings.)
func (d dir) displaySegAt(p int) (typ int, alloc bool, err error) {
	typ, alloc, err = d.segStartingAt(p)
	if err != nil || !alloc || typ != 0 {
		return typ, alloc, err
	}
	b := d.amap()[p/4]
	if b&bitBig == 0 && p%2 == 0 && b&(1<<uint(p%4+1)) != 0 {
		return 1, true, nil
	}
	return 0, true, nil
}

func (d dir) magic() uint32   { return binary.BigEndian.Uint32(d.img[offMagic:]) }
func (d dir) maxType() int    { return int(d.img[offMaxType]) }
func (d dir) capacity() int   { return int(binary.BigEndian.Uint32(d.img[offCapacity:])) }
func (d dir) base() int64     { return int64(binary.BigEndian.Uint64(d.img[offBase:])) }
func (d dir) amapOff() int    { return offCounts + 2*(d.maxType()+1) }
func (d dir) amap() []byte    { return d.img[d.amapOff() : d.amapOff()+(d.capacity()+3)/4] }
func (d dir) count(t int) int { return int(binary.BigEndian.Uint16(d.img[offCounts+2*t:])) }
func (d dir) setCount(t, v int) {
	binary.BigEndian.PutUint16(d.img[offCounts+2*t:], uint16(v))
}
func (d dir) incCount(t int) { d.setCount(t, d.count(t)+1) }
func (d dir) decCount(t int) { d.setCount(t, d.count(t)-1) }

// initDir formats a directory image for a space of capacity pages whose
// space-relative page 0 lives at volume page base.  The initial free space
// is the greedy aligned power-of-two decomposition of [0, capacity).
func initDir(img []byte, maxType, capacity int, base int64) {
	for i := range img {
		img[i] = 0
	}
	binary.BigEndian.PutUint32(img[offMagic:], dirMagic)
	img[offVersion] = dirVersion
	img[offMaxType] = uint8(maxType)
	binary.BigEndian.PutUint32(img[offCapacity:], uint32(capacity))
	binary.BigEndian.PutUint64(img[offBase:], uint64(base))
	d := dir{img: img}
	for ps := alignedPieces(0, capacity, maxType); ps.n > 0; {
		p := ps.next()
		d.markFree(p.start, p.typ)
		d.incCount(p.typ)
	}
}

func (d dir) validate() error {
	if d.magic() != dirMagic || d.img[offVersion] != dirVersion {
		return fmt.Errorf("%w: bad magic/version", ErrCorrupt)
	}
	if d.maxType() > typeMask || d.capacity() <= 0 {
		return fmt.Errorf("%w: bad geometry", ErrCorrupt)
	}
	if d.amapOff()+(d.capacity()+3)/4 > len(d.img) {
		return fmt.Errorf("%w: amap exceeds page", ErrCorrupt)
	}
	return nil
}

// piece is an aligned power-of-two run of pages.
type piece struct {
	start int
	typ   int // size is 2^typ
}

func (p piece) size() int { return 1 << p.typ }

// pieces is the decomposition of [start, start+n) into aligned
// power-of-two pieces no larger than 2^maxType, greedily from the left,
// handed out one at a time by next while n > 0.  This is the paper's
// binary-representation carving (§3.2): for a run beginning at an aligned
// boundary the piece sizes follow the binary representation of n from the
// most significant bit; for the free tail they follow it in reverse.
// Greedy left-to-right produces exactly those patterns.
type pieces struct{ start, n, maxType int }

func alignedPieces(start, n, maxType int) pieces { return pieces{start, n, maxType} }

// next returns the leftmost piece not yet handed out.  Callers stop when
// n reaches 0.
func (ps *pieces) next() piece {
	// Largest power of two dividing start (unbounded when start is 0).
	t := ps.maxType
	if ps.start != 0 {
		if a := bits.TrailingZeros(uint(ps.start)); a < t {
			t = a
		}
	}
	// No larger than the remaining length.
	if l := bits.Len(uint(ps.n)) - 1; l < t {
		t = l
	}
	p := piece{ps.start, t}
	ps.start += 1 << t
	ps.n -= 1 << t
	return p
}

// segStartingAt decodes the segment that starts at page p, which must be a
// segment start.  It returns the segment's type and allocation status.
// For pages encoded individually, a free page paired with its free buddy
// is a type-1 segment; an allocated page is reported as type 0 (the
// encoding does not record small allocated segment groupings, and the
// paper's search rule only needs a lower bound to skip correctly).
func (d dir) segStartingAt(p int) (typ int, alloc bool, err error) {
	b := d.amap()[p/4]
	if b&bitBig != 0 {
		if p%4 != 0 {
			return 0, false, fmt.Errorf("%w: big segment start %d not 4-aligned", ErrCorrupt, p)
		}
		return int(b & typeMask), b&bitAlloc != 0, nil
	}
	if b == 0 {
		return 0, false, fmt.Errorf("%w: page %d is interior to another segment", ErrCorrupt, p)
	}
	bit := uint(p % 4)
	if b&(1<<bit) != 0 {
		return 0, true, nil
	}
	// Free page: a type-1 segment iff the aligned buddy page is also free.
	if p%2 == 0 && b&(1<<(bit+1)) == 0 {
		return 1, false, nil
	}
	return 0, false, nil
}

// segContaining locates the segment that covers page p, returning its
// start and type.  Pages in individual encoding are their own (type 0 or
// type 1) segments; pages inside a big segment are resolved by scanning
// left for the first nonzero amap byte, as the paper specifies.
func (d dir) segContaining(p int) (start, typ int, alloc bool, err error) {
	am := d.amap()
	bi := p / 4
	if am[bi]&bitBig != 0 {
		return bi * 4, int(am[bi] & typeMask), am[bi]&bitAlloc != 0, nil
	}
	if am[bi] != 0 {
		bit := uint(p % 4)
		if am[bi]&(1<<bit) != 0 {
			return p, 0, true, nil
		}
		even := p &^ 1
		if am[bi]&(1<<uint(even%4)) == 0 && am[bi]&(1<<uint(even%4+1)) == 0 {
			return even, 1, false, nil
		}
		return p, 0, false, nil
	}
	// Continuation byte: scan left for the describing byte.
	for j := bi - 1; j >= 0; j-- {
		if am[j] == 0 {
			continue
		}
		if am[j]&bitBig == 0 {
			return 0, 0, false, fmt.Errorf("%w: continuation at page %d ends at individual byte", ErrCorrupt, p)
		}
		start = j * 4
		typ = int(am[j] & typeMask)
		if start+(1<<typ) <= p {
			return 0, 0, false, fmt.Errorf("%w: page %d not covered by segment at %d", ErrCorrupt, p, start)
		}
		return start, typ, am[j]&bitAlloc != 0, nil
	}
	return 0, 0, false, fmt.Errorf("%w: page %d has no describing byte", ErrCorrupt, p)
}

// markAlloc writes the encoding for an allocated segment of type t at
// page p, clearing any continuation bytes it covers.
func (d dir) markAlloc(p, t int) {
	d.mark(p, t, true)
}

// markFree writes the encoding for a free segment of type t at page p,
// and lowers the scan hint of type t to p.  It does not coalesce; callers
// use freePow2 for canonical frees.
func (d dir) markFree(p, t int) {
	d.mark(p, t, false)
	if d.st != nil && d.st.low != nil && int32(p) < d.st.low[t] {
		d.st.low[t] = int32(p)
	}
}

func (d dir) mark(p, t int, alloc bool) {
	am := d.amap()
	size := 1 << t
	if size >= 4 {
		b := byte(bitBig | t)
		if alloc {
			b |= bitAlloc
		}
		am[p/4] = b
		for i := p/4 + 1; i < (p+size)/4; i++ {
			am[i] = 0
		}
		return
	}
	// Individual encoding: set or clear the per-page bits.  The byte may
	// currently be a continuation/big byte only if we are rewriting the
	// start of a former big segment piecemeal; callers always rewrite all
	// four pages of such a byte, so flipping to individual mode here is
	// safe as long as we preserve bits already written in this pass.
	bi := p / 4
	if am[bi]&bitBig != 0 {
		am[bi] = 0
	}
	for i := 0; i < size; i++ {
		bit := byte(1) << uint((p+i)%4)
		if alloc {
			am[bi] |= bit
		} else {
			am[bi] &^= bit
		}
	}
}

// locateFree finds the free segment of exactly size 2^t using the paper's
// skip-scan: start at segment 0; if the segment there has size m != n,
// continue at S + max(n, m).  The count array guarantees existence.
// It returns the segment's start page and the number of segment probes
// performed (reported by the scan-cost experiment).  The scan visits
// n-aligned segment starts only and passes none of the free type-t ones,
// so it finds the lowest.
func (d dir) locateFree(t int) (start, probes int, err error) { return d.scanFrom(t, 0) }

// scanFrom is the skip-scan of locateFree begun at page from, which must
// be a 2^t-aligned segment start at or below every free type-t segment:
// it then finds what the scan from page 0 finds.
func (d dir) scanFrom(t, from int) (start, probes int, err error) {
	n := 1 << t
	cap := d.capacity()
	for s := from; s < cap; {
		probes++
		typ, alloc, err := d.segStartingAt(s)
		if err != nil {
			return 0, probes, err
		}
		m := 1 << typ
		if !alloc && typ == t {
			return s, probes, nil
		}
		if m > n {
			s += m
		} else {
			s += n
		}
	}
	return 0, probes, fmt.Errorf("%w: count array claims a free type-%d segment but none found", ErrCorrupt, t)
}

// allocScan finds the lowest free segment of type t for an allocation.
// With a hint it resumes the skip-scan from the start of the segment that
// contains low[t]: low[t] is 2^t-aligned (only type-t starts are ever
// stored), so that segment's start is a 2^t-aligned segment start at or
// below it, even when coalescing has since swallowed low[t] into a larger
// segment or a type-1 pair.  The found segment becomes the new hint.
// The directory is a space's (d.st set).
func (d dir) allocScan(t int) (int, error) {
	if d.st.low == nil {
		d.st.low = make([]int32, d.maxType()+1)
	}
	low := d.st.low
	from, _, _, err := d.segContaining(int(low[t]))
	if err != nil {
		return 0, err
	}
	s, probes, err := d.scanFrom(t, from)
	d.st.stats.ScanProbes += int64(probes)
	if err == nil {
		low[t] = int32(s)
	}
	return s, err
}

// allocPow2 allocates a segment of exactly 2^t pages, splitting a larger
// free segment if necessary (§3.2).  It returns the start page.
func (d dir) allocPow2(t int) (int, error) {
	if t > d.maxType() {
		return 0, fmt.Errorf("%w: type %d exceeds max %d", ErrBadRequest, t, d.maxType())
	}
	j := t
	for j <= d.maxType() && d.count(j) == 0 {
		j++
	}
	if j > d.maxType() {
		return 0, ErrNoSpace
	}
	s, err := d.allocScan(j)
	if err != nil {
		return 0, err
	}
	d.decCount(j)
	// Split recursively: keep the left half, free the right half.
	for j > t {
		j--
		d.markFree(s+(1<<j), j)
		d.incCount(j)
	}
	d.markAlloc(s, t)
	return s, nil
}

// freePow2 frees the segment of 2^t pages at page p and performs the
// iterative buddy coalescing of §3.2: the buddy of a segment is its
// address XOR its size; equal-size free buddies merge until the buddy is
// absent, allocated, or of a different size.
func (d dir) freePow2(p, t int) {
	cur, typ := p, t
	for typ < d.maxType() {
		size := 1 << typ
		buddy := cur ^ size
		if buddy+size > d.capacity() {
			break
		}
		btyp, balloc, err := d.segStartingAt(buddy)
		if err != nil || balloc || btyp != typ {
			break
		}
		// Merge: the pair becomes one free segment of the next type.
		d.decCount(typ)
		if buddy < cur {
			cur = buddy
		}
		typ++
	}
	d.markFree(cur, typ)
	d.incCount(typ)
}

// maxFreeType returns the largest type with a nonzero free count, or -1
// if the space is completely full.
func (d dir) maxFreeType() int {
	for t := d.maxType(); t >= 0; t-- {
		if d.count(t) > 0 {
			return t
		}
	}
	return -1
}

// freePages totals the free pages from the count array.
func (d dir) freePages() int {
	total := 0
	for t := 0; t <= d.maxType(); t++ {
		total += d.count(t) << t
	}
	return total
}

// ceilPow2Type returns the smallest t with 2^t >= n.
func ceilPow2Type(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
