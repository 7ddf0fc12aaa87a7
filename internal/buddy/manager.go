package buddy

import (
	"errors"
	"fmt"
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
	super    []int    // eos:guardedby mu -- optimistic max free segment size per space, pages
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
	m.super = append(m.super, s.MaxSegmentPages())
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

// candidates returns the indexes of spaces worth visiting for a request
// that needs a free block of blockPages, most promising first, and counts
// superdirectory skips.  Caller holds the latch.
//
// eos:requires m.mu
func (m *Manager) candidatesLocked(blockPages int) []int {
	idx := make([]int, 0, len(m.spaces))
	for i := range m.spaces {
		if m.useSuper && m.super[i] < blockPages {
			m.stats.SpacesSkipped++
			continue
		}
		idx = append(idx, i)
	}
	return idx
}

// noteVisitLocked records the corrected superdirectory entry after a space
// directory has been examined.  Caller holds the latch.
//
// eos:requires m.mu
func (m *Manager) noteVisitLocked(i int) {
	m.stats.SpacesVisited++
	m.super[i] = m.spaces[i].LastMaxFree()
}

// Alloc allocates n physically contiguous pages from some space and
// returns the starting volume page.
func (m *Manager) Alloc(n int) (disk.PageNum, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w: allocation of %d pages", ErrBadRequest, n)
	}
	block := 1 << uint(ceilPow2Type(n))
	m.mu.Lock()
	cands := m.candidatesLocked(block)
	// Snapshot: AddSpace may append (and reallocate) m.spaces while the
	// per-space directory probes below run outside the latch.
	spaces := append([]*Space(nil), m.spaces...)
	m.mu.Unlock()
	for _, i := range cands {
		p, err := spaces[i].Alloc(n)
		m.mu.Lock()
		m.noteVisitLocked(i)
		if err == nil {
			m.stats.Allocs++
			m.mu.Unlock()
			return p, nil
		}
		m.stats.FailedAttempts++
		m.mu.Unlock()
		if !errors.Is(err, ErrNoSpace) {
			return 0, err
		}
	}
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
	order := make([]int, 0, len(m.spaces))
	for i := range m.spaces {
		order = append(order, i)
	}
	if m.useSuper {
		// Visit larger superdirectory entries first.
		for a := 1; a < len(order); a++ {
			for b := a; b > 0 && m.super[order[b]] > m.super[order[b-1]]; b-- {
				order[b], order[b-1] = order[b-1], order[b]
			}
		}
	}
	spaces := append([]*Space(nil), m.spaces...)
	m.mu.Unlock()
	for _, i := range order {
		p, got, err := spaces[i].AllocUpTo(n)
		m.mu.Lock()
		m.noteVisitLocked(i)
		if err == nil {
			m.stats.Allocs++
			m.mu.Unlock()
			return p, got, nil
		}
		m.stats.FailedAttempts++
		m.mu.Unlock()
		if !errors.Is(err, ErrNoSpace) {
			return 0, 0, err
		}
	}
	return 0, 0, ErrNoSpace
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
