// Package pairs_alloc_clean holds correct allocation error handling
// the pairs analyzer must accept without diagnostics.
package pairs_alloc_clean

import (
	"errors"

	"buddy"
	"lob"
)

// freesOnError returns the run to the buddy system before failing.
func freesOnError(m *buddy.Manager, ready bool) error {
	pg, err := m.Alloc(4)
	if err != nil {
		return err
	}
	if !ready {
		_ = m.Free(pg, 4)
		return errors.New("not ready")
	}
	return publish(m, pg)
}

// publish consumes the run (ownership transfer on success).
func publish(m *buddy.Manager, pg buddy.PageNum) error { return nil }

// transferredBeforeFailure hands the run to a data structure before
// the fallible step, so a later error return does not leak it.
func transferredBeforeFailure(m *buddy.Manager, ready bool) error {
	pg, err := m.Alloc(4)
	if err != nil {
		return err
	}
	if err := publish(m, pg); err != nil {
		return err
	}
	if !ready {
		return errors.New("not ready")
	}
	return nil
}

// successOnly allocates and returns the run to the caller: a non-error
// exit never reports.
func successOnly(m *buddy.Manager) (buddy.PageNum, error) {
	pg, err := m.Alloc(2)
	if err != nil {
		return 0, err
	}
	return pg, nil
}

// releaseRun frees a run it is handed; pairs exports a release fact.
func releaseRun(a lob.Allocator, pg lob.PageNum, n int) {
	_ = a.Free(pg, n)
}

// viaHelper frees through the helper before the error return.
func viaHelper(a lob.Allocator, ready bool) error {
	pg, n, err := a.AllocUpTo(8)
	if err != nil {
		return err
	}
	if !ready {
		releaseRun(a, pg, n)
		return errors.New("not ready")
	}
	return record(a, pg, n)
}

// givesBackUnpublished returns a run the failed operation never linked
// into any root: the unpublished free is a release like any other.
func givesBackUnpublished(a lob.Allocator, ready bool) error {
	pg, n, err := a.AllocUpTo(8)
	if err != nil {
		return err
	}
	if !ready {
		_ = a.FreeUnpublished(pg, n)
		return errors.New("not ready")
	}
	return record(a, pg, n)
}

// record consumes the run.
func record(a lob.Allocator, pg lob.PageNum, n int) error { return nil }
