// Package walfirstip_bad holds transaction methods that reach a
// mutation through helper calls before logging; forcedom's write-ahead
// rule must report each exposed call with the chain.  Unexported helpers
// are not roots: the direct unlogged mutations inside them are not
// reported.
package walfirstip_bad

import (
	"lob"
	"wal"
)

type Txn struct {
	log *wal.Log
	obj *lob.Object
}

// applyAppend mutates directly; its callers are judged by its summary.
func (t *Txn) applyAppend(b []byte) error {
	return t.obj.Apply(&lob.Splice{})
}

// applyViaHelper is exposed one hop further down.  Unexported methods
// are not roots: the report lands in the exported method that calls
// this chain unlogged.
func (t *Txn) applyViaHelper(b []byte) error {
	return t.applyAppend(b)
}

// AppendUnlogged reaches the mutation through a two-deep chain with no
// log record anywhere above it.
func (t *Txn) AppendUnlogged(b []byte) error {
	return t.applyViaHelper(b) // want "call can mutate Object.Apply before this transaction's WAL record is appended"
}

// replaceAt mutates directly on behalf of its callers.
func (t *Txn) replaceAt(off int64, b []byte) error {
	return t.obj.Replace(off, b)
}

// MutateThenLog calls the mutating helper first and appends after: the
// order is backwards.
func (t *Txn) MutateThenLog(off int64, b []byte) error {
	if err := t.replaceAt(off, b); err != nil { // want "call can mutate Object.Replace before this transaction's WAL record is appended"
		return err
	}
	_, err := t.log.Append(wal.Record{Type: 1, Payload: b})
	return err
}

// LogOnOnePath appends only on the durable branch; the other branch
// reaches the mutating helper unlogged, and the diagnostic names the
// append that fails to dominate the call.
func (t *Txn) LogOnOnePath(b []byte, durable bool) error {
	if durable {
		if _, err := t.log.Append(wal.Record{Type: 2, Payload: b}); err != nil {
			return err
		}
	}
	return t.applyAppend(b) // want "does not dominate this call"
}
