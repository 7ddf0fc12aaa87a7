// Package eos is a stand-in for the engine's root package with the
// transaction lifecycle shapes the pairs analyzer matches on.
package eos

// Store is the stand-in store.
type Store struct{}

// Begin starts a transaction.
func (s *Store) Begin() (*Txn, error) { return &Txn{}, nil }

// Txn is the stand-in transaction.
type Txn struct{}

func (t *Txn) Commit() error                    { return nil }
func (t *Txn) Abort() error                     { return nil }
func (t *Txn) Append(id uint64, b []byte) error { return nil }
