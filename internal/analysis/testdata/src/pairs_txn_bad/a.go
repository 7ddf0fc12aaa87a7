// Package pairs_txn_bad holds transaction-lifecycle violations the
// pairs analyzer must report: a Begin whose transaction can reach a
// function exit neither committed nor aborted.
package pairs_txn_bad

import "eos"

// leakOnMidError returns a mid-transaction error without aborting, so
// the transaction's two-phase locks are never released.
func leakOnMidError(s *eos.Store, data []byte) error {
	t, err := s.Begin() // want "txn leak: Begin\\(t\\) can reach a function exit without Commit/Abort\\(t\\)"
	if err != nil {
		return err
	}
	if err := t.Append(1, data); err != nil {
		return err
	}
	return t.Commit()
}

// neverFinished starts a transaction and forgets it entirely.
func neverFinished(s *eos.Store, data []byte) {
	t, err := s.Begin() // want "txn leak: Begin\\(t\\) can reach a function exit without Commit/Abort\\(t\\)"
	if err != nil {
		return
	}
	_ = t.Append(1, data)
}

// commitSkippedOnBranch finishes only one branch.
func commitSkippedOnBranch(s *eos.Store, data []byte, publish bool) error {
	t, err := s.Begin() // want "txn leak: Begin\\(t\\) can reach a function exit without Commit/Abort\\(t\\)"
	if err != nil {
		return err
	}
	if !publish {
		return nil
	}
	if err := t.Append(1, data); err != nil {
		_ = t.Abort()
		return err
	}
	return t.Commit()
}
