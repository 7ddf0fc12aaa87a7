package disk

// Request shaping.  The cost model prices a request as one reposition
// plus a transfer per page, so two nearby page runs are cheaper to fetch
// as one request — dragging the pages between them along — whenever that
// gap transfers faster than the head repositions.  Everything that reads
// old pages in order to write new ones (insert, delete and replace in the
// large object manager, the baselines' in-place writes) goes through
// Gather, so the rule is applied in one place.

// BridgePages is the largest number of unwanted pages worth transferring
// to save a reposition: the largest gap with
// gap × TransferMicrosPerPage < SeekMicros + RotationalMicros.  A model
// that charges nothing for transfers gives the trade no basis: 0.
func (m CostModel) BridgePages() int {
	if m.TransferMicrosPerPage <= 0 {
		return 0
	}
	return int((m.SeekMicros + m.RotationalMicros - 1) / m.TransferMicrosPerPage)
}

// bridgePages is derived once, from the default model: a Device does not
// carry a model (a file volume has none), and every simulated volume the
// experiments compare uses the default.
var bridgePages = DefaultCostModel().BridgePages()

// PageSpan returns the page run holding bytes [off, off+n) of an extent
// that starts on a page boundary: the index of its first page, its page
// count (0 when n is 0), and the offset of byte off within the first page.
func PageSpan(off, n int64, pageSize int) (first PageNum, pages int, in int64) {
	ps := int64(pageSize)
	first = PageNum(off / ps)
	in = off - int64(first)*ps
	if n > 0 {
		pages = int((off+n-1)/ps-int64(first)) + 1
	}
	return first, pages, in
}

// ByteRange is N bytes starting Off bytes into the extent (a segment)
// whose first page is Start.
type ByteRange struct {
	Start  PageNum
	Off, N int64
}

// Around returns what an in-place write of n bytes at byte off of the
// extent starting at page start must keep: the bytes before it in its
// first page (head) and after it in its last page (tail), either possibly
// empty, and the index of that first page.  Gather(head, n, tail) is then
// the image of the page run to write, the new bytes going at head.N.
func Around(start PageNum, off, n int64, pageSize int) (head, tail ByteRange, first PageNum) {
	first, pages, in := PageSpan(off, n, pageSize)
	runStart := int64(first) * int64(pageSize)
	head = ByteRange{Start: start, Off: runStart, N: in}
	tail = ByteRange{Start: start, Off: off + n, N: runStart + int64(pages)*int64(pageSize) - (off + n)}
	return head, tail, first
}

// PageReader is what Gather reads from: a Device, or a view of one that
// serves some pages from memory.
type PageReader interface {
	PageSize() int
	ReadPages(start PageNum, n int, buf []byte) error
}

// Gather builds a page image out of old bytes and room for new ones: a's
// bytes, then hole bytes for the caller to fill, then b's bytes, then
// zeros up to the page boundary.  The sources are read into the returned
// buffer and moved into place there, so the caller can fill the hole and
// write the image from the same memory.  The image is memory of its own;
// GatherInto builds it in memory the caller reuses.
//
// When a and b lie in the same extent (a first) and at most BridgePages
// pages separate their page runs, one request fetches both; otherwise
// each non-empty range is one request, a's first.  bridged is -1 unless
// one request served two ranges that are not byte-adjacent, and then the
// number of whole pages between them that it transferred for nothing.
func Gather(d PageReader, a ByteRange, hole int64, b ByteRange) (img []byte, bridged int, err error) {
	return GatherInto(nil, d, a, hole, b)
}

// GatherInto is Gather building the image in buf when buf's capacity holds
// what the requests transfer — a bridged request's gap pages too — and in
// fresh memory otherwise.  Whatever buf held is overwritten: the image is
// the same as Gather's, except that the hole's bytes, which are the
// caller's to fill, are unspecified either way.
//
// GatherLen is the capacity that buf needs for that.
func GatherInto(buf []byte, d PageReader, a ByteRange, hole int64, b ByteRange) (img []byte, bridged int, err error) {
	ps := d.PageSize()
	total := a.N + hole + b.N
	imgLen := int((total + int64(ps) - 1) / int64(ps) * int64(ps))
	fa, na, ina := PageSpan(a.Off, a.N, ps)
	fb, nb, inb := PageSpan(b.Off, b.N, ps)
	gap := int(fb) - (int(fa) + na) // -1: the runs share a page
	srcA, srcB := ina, int64(na*ps)+inb
	bridged = -1

	read, together := gatherReads(ps, a, b)
	if n := max(imgLen, read*ps); cap(buf) >= n {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	if together {
		if err := d.ReadPages(a.Start+fa, read, buf[:read*ps]); err != nil {
			return nil, -1, err
		}
		srcB = int64(int(fb-fa)*ps) + inb
		if a.Off+a.N != b.Off {
			bridged = max(gap, 0)
		}
	} else {
		if na > 0 {
			if err := d.ReadPages(a.Start+fa, na, buf[:na*ps]); err != nil {
				return nil, -1, err
			}
		}
		if nb > 0 {
			if err := d.ReadPages(b.Start+fb, nb, buf[na*ps:(na+nb)*ps]); err != nil {
				return nil, -1, err
			}
		}
	}
	// a moves left (or not at all) and ends before b's source begins, so
	// moving it first clobbers nothing; copy handles the overlaps.
	if a.N > 0 {
		copy(buf[:a.N], buf[srcA:])
	}
	if b.N > 0 {
		copy(buf[a.N+hole:total], buf[srcB:])
	}
	clear(buf[total:imgLen])
	return buf[:imgLen], bridged, nil
}

// gatherReads returns how many pages Gather's requests for a and b
// transfer, and whether one request fetches both.
func gatherReads(ps int, a, b ByteRange) (read int, together bool) {
	fa, na, _ := PageSpan(a.Off, a.N, ps)
	fb, nb, _ := PageSpan(b.Off, b.N, ps)
	if na > 0 && nb > 0 && a.Start == b.Start && int(fb)-(int(fa)+na) <= bridgePages {
		return int(fb) + nb - int(fa), true
	}
	return na + nb, false
}

// GatherLen returns the bytes of memory GatherInto builds the image of a,
// hole and b in: the image's whole pages, or the pages its requests
// transfer when those are more.
func GatherLen(ps int, a ByteRange, hole int64, b ByteRange) int {
	read, _ := gatherReads(ps, a, b)
	return max(int((a.N+hole+b.N+int64(ps)-1)/int64(ps))*ps, read*ps)
}
