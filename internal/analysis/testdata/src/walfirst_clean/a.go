// Package walfirst_clean holds transaction methods that log before
// mutating; forcedom's write-ahead rule must accept them without
// diagnostics.
package walfirst_clean

import (
	"lob"
	"wal"
)

type Txn struct {
	log *wal.Log
	obj *lob.Object
}

// AppendLogged is the canonical order: prepare — which writes only pages no
// root names and so may run first —, append the record, then apply.
func (t *Txn) AppendLogged(b []byte) error {
	sp, err := t.obj.PrepareAppend(b)
	if err != nil {
		return err
	}
	if _, err := t.log.Append(wal.Record{Type: 1, Payload: b}); err != nil {
		return err
	}
	return t.obj.Apply(sp)
}

// BranchesBothLogged logs on every path that reaches the mutation.  The
// in-place Replace also overwrites forced state, so its record is forced
// first too (the force-ahead rule).
func (t *Txn) BranchesBothLogged(off int64, b []byte, replace bool) error {
	var rec wal.Record
	if replace {
		rec = wal.Record{Type: 2, Payload: b}
	} else {
		rec = wal.Record{Type: 1, Payload: b}
	}
	lsn, err := t.log.Append(rec)
	if err != nil {
		return err
	}
	if replace {
		if err := t.log.ForceLSN(lsn); err != nil {
			return err
		}
		return t.obj.Replace(off, b)
	}
	return t.obj.Apply(&lob.Splice{})
}

// logRecord appends the operation's record on every path through it.
func (t *Txn) logRecord(b []byte) error {
	_, err := t.log.Append(wal.Record{Type: 3, Payload: b})
	return err
}

// LogViaHelper logs through the self-logging helper and then mutates
// directly: every path to the mutation has appended the record.
func (t *Txn) LogViaHelper(b []byte) error {
	if err := t.logRecord(b); err != nil {
		return err
	}
	return t.obj.Apply(&lob.Splice{})
}

// ReadOnly never mutates, so nothing needs logging.
func (t *Txn) ReadOnly(off int64, b []byte) (int, error) {
	return t.obj.Read(off, b)
}

// Abort reinstates the roots from before the transaction: it applies
// nothing, so it needs no record first — its own record follows.
func (t *Txn) Abort() error {
	_, err := t.log.Append(wal.Record{Type: 4})
	return err
}

// helper has a different receiver type; the write-ahead rule only
// constrains the transaction layer (-recv=Txn).
type helper struct{ obj *lob.Object }

func (h *helper) rewrite(b []byte) error {
	return h.obj.Apply(&lob.Splice{})
}
