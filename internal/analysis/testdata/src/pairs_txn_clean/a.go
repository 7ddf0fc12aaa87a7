// Package pairs_txn_clean holds correct transaction lifecycles the
// pairs analyzer must accept without diagnostics.
package pairs_txn_clean

import "eos"

// commitOrAbort finishes the transaction on both the error and the
// success path.
func commitOrAbort(s *eos.Store, data []byte) error {
	t, err := s.Begin()
	if err != nil {
		return err
	}
	if err := t.Append(1, data); err != nil {
		_ = t.Abort()
		return err
	}
	return t.Commit()
}

// deferAbort uses the abort-on-any-exit pattern; Abort after a
// successful Commit is a no-op in the engine.
func deferAbort(s *eos.Store, data []byte) error {
	t, err := s.Begin()
	if err != nil {
		return err
	}
	defer t.Abort()
	if err := t.Append(1, data); err != nil {
		return err
	}
	return t.Commit()
}

// finish is a helper that always completes the transaction it is
// handed: pairs exports a release fact for it.
func finish(t *eos.Txn, err error) error {
	if err != nil {
		_ = t.Abort()
		return err
	}
	return t.Commit()
}

// viaHelper completes the transaction through the helper.
func viaHelper(s *eos.Store, data []byte) error {
	t, err := s.Begin()
	if err != nil {
		return err
	}
	return finish(t, t.Append(1, data))
}
