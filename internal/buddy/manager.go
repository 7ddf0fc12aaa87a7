package buddy

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/eosdb/eos/internal/buffer"
	"github.com/eosdb/eos/internal/disk"
)

// ManagerStats aggregates allocation activity across all spaces.
type ManagerStats struct {
	Allocs         int64
	Frees          int64
	SpacesVisited  int64 // buddy space directories consulted
	SpacesSkipped  int64 // visits avoided by the superdirectory
	FailedAttempts int64 // directory visits that could not satisfy a request
}

// Manager multiplexes allocation over a set of buddy spaces and maintains
// the superdirectory of §3.3: an in-memory array with the size of the
// largest free segment in each space.  Entries start optimistically at
// the maximum possible value; the first wrong guess about a space corrects
// its entry.  The superdirectory is protected by a short-duration latch,
// never by transaction locks.
type Manager struct {
	mu       sync.Mutex // the latch
	pool     *buffer.Pool
	spaces   []*Space // eos:guardedby mu -- append-only; snapshot under mu before probing
	super    []int32  // eos:guardedby mu -- optimistic max free segment size per space, pages
	useSuper bool
	stats    ManagerStats // eos:guardedby mu
}

// NewManager creates a manager over an initial (possibly empty) set of
// spaces.  If useSuperdirectory is false every allocation probes space
// directories in order until one succeeds — the behaviour the
// superdirectory exists to avoid; keeping it switchable supports the
// superdirectory ablation experiment.
func NewManager(pool *buffer.Pool, useSuperdirectory bool) *Manager {
	return &Manager{pool: pool, useSuper: useSuperdirectory}
}

// AddSpace registers a space with the manager.  Its superdirectory entry
// starts at the maximum segment size, per §3.3 ("Initially, it indicates
// that each buddy space ... contains a free segment of the maximum size
// possible.  This information may be erroneous.").
func (m *Manager) AddSpace(s *Space) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spaces = append(m.spaces, s)
	m.super = append(m.super, int32(s.MaxSegmentPages()))
}

// Spaces returns the registered spaces.
func (m *Manager) Spaces() []*Space {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Space, len(m.spaces))
	copy(out, m.spaces)
	return out
}

// Stats returns a snapshot of the manager counters.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// FormatVolume lays a store out on a fresh volume: numSpaces buddy spaces
// of capacity data pages each, packed from firstPage as
// [directory][data...] repeatedly.  It returns a manager over the new
// spaces.
func FormatVolume(pool *buffer.Pool, vol disk.Device, firstPage disk.PageNum, numSpaces, capacity int, useSuperdirectory bool) (*Manager, error) {
	m := NewManager(pool, useSuperdirectory)
	page := firstPage
	for i := 0; i < numSpaces; i++ {
		if page+1+disk.PageNum(capacity) > vol.NumPages() {
			return nil, fmt.Errorf("%w: volume too small for %d spaces of %d pages", ErrBadRequest, numSpaces, capacity)
		}
		s, err := FormatSpace(pool, page, page+1, capacity, vol)
		if err != nil {
			return nil, err
		}
		m.AddSpace(s)
		page += 1 + disk.PageNum(capacity)
	}
	return m, nil
}

// skipLocked reports whether the superdirectory rules space i out for a
// request that needs a free block of blockPages.  Caller holds the latch.
//
// eos:requires m.mu
func (m *Manager) skipLocked(i, blockPages int) bool {
	return m.useSuper && int(m.super[i]) < blockPages
}

// noteVisitLocked records the corrected superdirectory entry after a space
// directory has been examined.  Caller holds the latch.
//
// eos:requires m.mu
func (m *Manager) noteVisitLocked(i int) {
	m.stats.SpacesVisited++
	m.super[i] = int32(m.spaces[i].LastMaxFree())
}

// Alloc allocates n physically contiguous pages from some space and
// returns the starting volume page.  It visits, in order, the spaces whose
// superdirectory entry admits a block of ceil-pow2(n) pages.
func (m *Manager) Alloc(n int) (disk.PageNum, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w: allocation of %d pages", ErrBadRequest, n)
	}
	block := 1 << uint(ceilPow2Type(n))
	m.mu.Lock()
	// m.spaces is append-only, so its header is a snapshot the directory
	// probes below, made outside the latch, can index.
	spaces := m.spaces
	for i := range spaces {
		if m.skipLocked(i, block) {
			m.stats.SpacesSkipped++
		}
	}
	for i, sp := range spaces {
		if m.skipLocked(i, block) {
			continue
		}
		m.mu.Unlock()
		p, err := sp.Alloc(n)
		m.mu.Lock()
		m.noteVisitLocked(i)
		if err == nil {
			m.stats.Allocs++
			m.mu.Unlock()
			return p, nil
		}
		m.stats.FailedAttempts++
		if !errors.Is(err, ErrNoSpace) {
			m.mu.Unlock()
			return 0, err
		}
	}
	m.mu.Unlock()
	return 0, ErrNoSpace
}

// AllocUpTo allocates up to n contiguous pages, preferring the space whose
// superdirectory entry is largest so that big requests fragment as little
// as possible.  It returns the starting volume page and the page count
// obtained.
func (m *Manager) AllocUpTo(n int) (disk.PageNum, int, error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: allocation of %d pages", ErrBadRequest, n)
	}
	m.mu.Lock()
	spaces := m.spaces // a snapshot, as in Alloc
	// The visiting order is a stable sort of the spaces by descending
	// entry, stepped through one space at a time.  The visited spaces'
	// entries are corrected only once the walk ends, so that until then
	// they are still the order's prefix up to the last one.
	last, lastKey := -1, 0
	var (
		p   disk.PageNum
		got int
		err = ErrNoSpace
	)
	for {
		i := m.nextInOrderLocked(len(spaces), last, lastKey)
		if i < 0 {
			break
		}
		last, lastKey = i, m.orderKeyLocked(i)
		m.mu.Unlock()
		p, got, err = spaces[i].AllocUpTo(n)
		m.mu.Lock()
		if err == nil {
			m.stats.Allocs++
			break
		}
		m.stats.FailedAttempts++
		if !errors.Is(err, ErrNoSpace) {
			break
		}
	}
	m.noteOrderPrefixLocked(len(spaces), last, lastKey)
	m.mu.Unlock()
	return p, got, err
}

// orderKeyLocked is space i's key in AllocUpTo's order: its
// superdirectory entry when the superdirectory is on, and the same for
// every space when it is off (index order).
//
// eos:requires m.mu
func (m *Manager) orderKeyLocked(i int) int {
	if m.useSuper {
		return int(m.super[i])
	}
	return 0
}

// inOrderPrefixLocked reports whether space i comes no later than space
// last, of key lastKey, in AllocUpTo's order: a larger key, or the same
// key at no higher index.
//
// eos:requires m.mu
func (m *Manager) inOrderPrefixLocked(i, last, lastKey int) bool {
	k := m.orderKeyLocked(i)
	return last >= 0 && (k > lastKey || k == lastKey && i <= last)
}

// nextInOrderLocked returns the space after last in AllocUpTo's order
// among the first n spaces, or -1 when there is none; last < 0 asks for
// the first.
//
// eos:requires m.mu
func (m *Manager) nextInOrderLocked(n, last, lastKey int) int {
	next, nextKey := -1, 0
	for i := 0; i < n; i++ {
		if m.inOrderPrefixLocked(i, last, lastKey) {
			continue
		}
		if k := m.orderKeyLocked(i); next < 0 || k > nextKey {
			next, nextKey = i, k
		}
	}
	return next
}

// noteOrderPrefixLocked notes the visits of AllocUpTo's order up to and
// including space last.
//
// eos:requires m.mu
func (m *Manager) noteOrderPrefixLocked(n, last, lastKey int) {
	for i := 0; i < n; i++ {
		if m.inOrderPrefixLocked(i, last, lastKey) {
			m.noteVisitLocked(i)
		}
	}
}

// Free returns n pages starting at volume page p to the owning space.
func (m *Manager) Free(p disk.PageNum, n int) error {
	s := m.owner(p)
	if s == nil {
		return fmt.Errorf("%w: page %d belongs to no space", ErrBadRequest, p)
	}
	if err := s.Free(p, n); err != nil {
		return err
	}
	m.mu.Lock()
	m.stats.Frees++
	for i := range m.spaces {
		if m.spaces[i] == s {
			m.noteVisitLocked(i)
			break
		}
	}
	m.mu.Unlock()
	return nil
}

// FreeUnpublished is Free for pages no root ever named (lob.Allocator).
// The buddy system itself never delays a free, so the two do the same
// thing; the separate entry point is for what is layered above.  It makes
// the manager a lob.Allocator by itself, and it is the one way the store
// returns pages without a catalog barrier in between — forcedom's
// durability-quarantine contract covers Free, the release of pages a
// durable root may still name, and has nothing to say about this one.
func (m *Manager) FreeUnpublished(p disk.PageNum, n int) error { return m.Free(p, n) }

// owner finds the space containing volume page p.
func (m *Manager) owner(p disk.PageNum) *Space {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.spaces {
		if s.Contains(p) {
			return s
		}
	}
	return nil
}

// Reserve allocates the exact page range [p, p+n) in its owning space;
// the range must not straddle spaces.
func (m *Manager) Reserve(p disk.PageNum, n int) error {
	s := m.owner(p)
	if s == nil {
		return fmt.Errorf("%w: page %d belongs to no space", ErrBadRequest, p)
	}
	if !s.Contains(p + disk.PageNum(n) - 1) {
		return fmt.Errorf("%w: range [%d,%d) straddles spaces", ErrBadRequest, p, p+disk.PageNum(n))
	}
	if err := s.Reserve(p, n); err != nil {
		return err
	}
	m.mu.Lock()
	for i := range m.spaces {
		if m.spaces[i] == s {
			m.noteVisitLocked(i)
			break
		}
	}
	m.mu.Unlock()
	return nil
}

// AllocAt allocates exactly the pages [p, p+n) when they are free and lie
// in one space whose directory page is resident (Space.AllocAt), and
// reports whether it did.  A probe that fails changes nothing, counts
// nothing and does not wait.
func (m *Manager) AllocAt(p disk.PageNum, n int) bool {
	m.mu.Lock()
	i := slices.IndexFunc(m.spaces, func(s *Space) bool { return s.Contains(p) })
	spaces := m.spaces // a snapshot, as in Alloc
	m.mu.Unlock()
	if i < 0 || !spaces[i].AllocAt(p, n) {
		return false
	}
	m.mu.Lock()
	m.stats.Allocs++
	m.noteVisitLocked(i)
	m.mu.Unlock()
	return true
}

// FreePages totals free pages across all spaces.
func (m *Manager) FreePages() (int, error) {
	total := 0
	for _, s := range m.Spaces() {
		n, err := s.FreePages()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// MaxSegmentPages reports the largest single allocation any space
// supports.
func (m *Manager) MaxSegmentPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	max := 0
	for _, s := range m.spaces {
		if mp := s.MaxSegmentPages(); mp > max {
			max = mp
		}
	}
	return max
}

// Check validates every space.
func (m *Manager) Check() error {
	for _, s := range m.Spaces() {
		if err := s.Check(); err != nil {
			return err
		}
	}
	return nil
}
