// Package walfirst_clean holds transaction methods that log before
// mutating; walfirst must accept them without diagnostics.
package walfirst_clean

import (
	"lob"
	"wal"
)

type Txn struct {
	log *wal.Log
	obj *lob.Object
}

// AppendLogged is the canonical order: append the record, then mutate.
func (t *Txn) AppendLogged(b []byte) error {
	if _, err := t.log.Append(wal.Record{Type: 1, Payload: b}); err != nil {
		return err
	}
	return t.obj.Append(b)
}

// BranchesBothLogged logs on every path that reaches the mutation.
func (t *Txn) BranchesBothLogged(off int64, b []byte, replace bool) error {
	var rec wal.Record
	if replace {
		rec = wal.Record{Type: 2, Payload: b}
	} else {
		rec = wal.Record{Type: 1, Payload: b}
	}
	if _, err := t.log.Append(rec); err != nil {
		return err
	}
	if replace {
		return t.obj.Replace(off, b)
	}
	return t.obj.Append(b)
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
	return t.obj.Append(b)
}

// ReadOnly never mutates, so nothing needs logging.
func (t *Txn) ReadOnly(off int64, b []byte) (int, error) {
	return t.obj.Read(off, b)
}

// Abort-style logical undo: the forward operations already logged
// every pre-image this replays, so the write-ahead rule is satisfied
// by the forward records.
//
//eoslint:ignore walfirst -- logical undo replays pre-images the forward ops logged
func (t *Txn) Abort() error {
	return t.obj.Truncate(0)
}

// helper has a different receiver type; walfirst only constrains the
// transaction layer (-recv=Txn).
type helper struct{ obj *lob.Object }

func (h *helper) rewrite(b []byte) error {
	return h.obj.Append(b)
}
