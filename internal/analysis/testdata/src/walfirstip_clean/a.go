// Package walfirstip_clean holds transaction methods whose helper
// calls are always covered by a WAL append; walfirstip must stay
// silent.
package walfirstip_clean

import (
	"lob"
	"wal"
)

type Txn struct {
	log *wal.Log
	obj *lob.Object
}

// applyAppend mutates for its callers; every caller below logs first.
func (t *Txn) applyAppend(b []byte) error {
	return t.obj.Apply(&lob.Splice{})
}

func (t *Txn) applyViaHelper(b []byte) error {
	return t.applyAppend(b)
}

// LogThenApply appends before the two-deep mutating chain.
func (t *Txn) LogThenApply(b []byte) error {
	if _, err := t.log.Append(wal.Record{Type: 1, Payload: b}); err != nil {
		return err
	}
	return t.applyViaHelper(b)
}

// logAndApply logs and then mutates: every path through it appends, so
// callers need no append of their own before calling it.
func (t *Txn) logAndApply(b []byte) error {
	if _, err := t.log.Append(wal.Record{Type: 2, Payload: b}); err != nil {
		return err
	}
	return t.obj.Apply(&lob.Splice{})
}

// Apply delegates to the self-logging helper.
func (t *Txn) Apply(b []byte) error {
	return t.logAndApply(b)
}

// BothBranchesLog appends on each branch of the join before the
// mutating helper: all paths are covered even though no single append
// dominates the call.
func (t *Txn) BothBranchesLog(b []byte, compress bool) error {
	if compress {
		if _, err := t.log.Append(wal.Record{Type: 3, Payload: b}); err != nil {
			return err
		}
	} else {
		if _, err := t.log.Append(wal.Record{Type: 4, Payload: b}); err != nil {
			return err
		}
	}
	return t.applyAppend(b)
}

// ReadOnly calls a helper that never mutates.
func (t *Txn) ReadOnly(off int64, b []byte) (int, error) {
	return t.readAt(off, b)
}

func (t *Txn) readAt(off int64, b []byte) (int, error) {
	return t.obj.Read(off, b)
}
