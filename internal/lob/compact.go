package lob

// Compact rewrites the object into the fewest, largest physically
// contiguous segments the free space allows — the maintenance analogue
// of creating the object with a size hint (§4.1).  A heavily edited
// object regains sequential-scan performance and sheds index pages.
//
// The copy is streamed segment group by segment group, so peak memory is
// bounded by the maximum segment size, and the old pages are freed only
// after the new image is written (no overwrite, as everywhere in EOS).
func (o *Object) Compact() error {
	if o.size == 0 {
		return nil
	}
	if err := o.Trim(); err != nil {
		return err
	}
	m := o.m

	// Allocate the new image first: if space is too fragmented to hold a
	// second copy, fail before touching anything.
	newSegs, _, err := m.allocSegments(o.size, 0, false)
	if err != nil {
		return err
	}
	// Stream the content across, one (max-segment-bounded) segment at a
	// time.
	var logical int64
	for _, seg := range newSegs {
		buf := make([]byte, seg.bytes)
		if err := o.ReadAt(buf, logical); err != nil {
			return err
		}
		if err := m.writeSegment(seg.ptr, buf); err != nil {
			return err
		}
		logical += seg.bytes
	}

	// Free the old tree (segments and index pages) and install the new
	// leaf entries under a fresh root.
	if err := o.walkAll(m.freeing()); err != nil {
		return err
	}
	o.root = &node{level: 1, entries: newSegs}
	if err := o.normalizeRoot(); err != nil {
		return err
	}
	o.size = o.root.size()
	o.nextGrow = 1
	return nil
}
