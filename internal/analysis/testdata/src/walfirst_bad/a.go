// Package walfirst_bad holds transaction methods that mutate before
// logging; walfirst must report each unlogged mutation.
package walfirst_bad

import (
	"lob"
	"wal"
)

type Txn struct {
	log *wal.Log
	obj *lob.Object
}

// AppendUnlogged mutates with no log record at all.
func (t *Txn) AppendUnlogged(b []byte) error {
	sp, err := t.obj.PrepareAppend(b)
	if err != nil {
		return err
	}
	return t.obj.Apply(sp) // want "mutation Object.Apply can execute before its WAL record"
}

// MutateThenLog has the order backwards.
func (t *Txn) MutateThenLog(off int64, b []byte) error {
	if err := t.obj.Replace(off, b); err != nil { // want "mutation Object.Replace can execute before its WAL record"
		return err
	}
	_, err := t.log.Append(wal.Record{Type: 1, Payload: b})
	return err
}

// LogOnOnePath appends the record only on the durable branch, so the
// other branch reaches the mutation unlogged.
func (t *Txn) LogOnOnePath(b []byte, durable bool) error {
	if durable {
		if _, err := t.log.Append(wal.Record{Type: 2, Payload: b}); err != nil {
			return err
		}
	}
	return t.obj.Apply(&lob.Splice{}) // want "mutation Object.Apply can execute before its WAL record"
}
