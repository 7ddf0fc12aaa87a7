// Package pairs_pin_bad holds pin-discipline violations the pairs
// analyzer must report (the pin spec is the successor of the old
// pinpair checker).
package pairs_pin_bad

import (
	"buffer"
	"errors"
)

var errEmpty = errors.New("empty page")

// leak never unpins on the success path.
func leak(pool *buffer.Pool, pg buffer.PageID) error {
	img, err := pool.Fix(pg) // want "pin leak: Fix\\(pg\\) can reach a function exit without Unpin/Discard\\(pg\\)"
	if err != nil {
		return err
	}
	_ = img
	return nil
}

// leakOnOnePath unpins on the fall-through return but not on the early
// return.
func leakOnOnePath(pool *buffer.Pool, pg buffer.PageID, cond bool) error {
	img, err := pool.Fix(pg) // want "pin leak: Fix\\(pg\\) can reach a function exit without Unpin/Discard\\(pg\\)"
	if err != nil {
		return err
	}
	_ = img
	if cond {
		return nil
	}
	return pool.Unpin(pg)
}

// leakFixNew leaks a freshly allocated frame.
func leakFixNew(pool *buffer.Pool, pg buffer.PageID) {
	img, err := pool.FixNew(pg) // want "pin leak: FixNew\\(pg\\) can reach a function exit without Unpin/Discard\\(pg\\)"
	if err != nil {
		return
	}
	_ = pool.MarkDirty(pg)
	_ = img
}

// leakFixWrite leaks a write pin when the mutation fails.
func leakFixWrite(pool *buffer.Pool, pg buffer.PageID) error {
	img, err := pool.FixWrite(pg) // want "pin leak: FixWrite\\(pg\\) can reach a function exit without Unpin/Discard\\(pg\\)"
	if err != nil {
		return err
	}
	if len(img) == 0 {
		return errEmpty
	}
	img[0] = 1
	_ = pool.MarkDirty(pg)
	return pool.Unpin(pg)
}

// leakInLoop leaks when break exits before the unpin.
func leakInLoop(pool *buffer.Pool, pages []buffer.PageID) error {
	for _, pg := range pages {
		img, err := pool.Fix(pg) // want "pin leak: Fix\\(pg\\) can reach a function exit without Unpin/Discard\\(pg\\)"
		if err != nil {
			return err
		}
		if len(img) == 0 {
			break
		}
		if err := pool.Unpin(pg); err != nil {
			return err
		}
	}
	return nil
}

// touch reads the page but does not release it: calling it is not a
// release, so the pin still leaks.
func touch(pool *buffer.Pool, pg buffer.PageID) {
	_ = pool.MarkDirty(pg)
}

// helperIsNotARelease calls a helper without a release fact.
func helperIsNotARelease(pool *buffer.Pool, pg buffer.PageID) error {
	_, err := pool.Fix(pg) // want "pin leak: Fix\\(pg\\) can reach a function exit without Unpin/Discard\\(pg\\)"
	if err != nil {
		return err
	}
	touch(pool, pg)
	return nil
}

// suppressedWithoutReason is ignored but gives no justification; the
// missing reason is itself a diagnostic.
func suppressedWithoutReason(pool *buffer.Pool, pg buffer.PageID) {
	//eoslint:ignore pairs
	img, _ := pool.Fix(pg) // want "eoslint:ignore pairs without a '-- reason' clause"
	_ = img
}
