// Package buddy is a stand-in for the engine's buddy allocator with
// the allocate/free shapes the pairs analyzer matches on.
package buddy

// PageNum numbers a page.
type PageNum int64

// Manager is the stand-in buddy-system allocation manager.
type Manager struct{}

// Alloc allocates exactly n physically contiguous pages.
func (m *Manager) Alloc(n int) (PageNum, error) { return 0, nil }

// AllocUpTo allocates between 1 and n contiguous pages.
func (m *Manager) AllocUpTo(n int) (PageNum, int, error) { return 0, n, nil }

// Free returns previously allocated pages.
func (m *Manager) Free(p PageNum, n int) error { return nil }

// FreeUnpublished returns pages no root ever named.
func (m *Manager) FreeUnpublished(p PageNum, n int) error { return nil }
