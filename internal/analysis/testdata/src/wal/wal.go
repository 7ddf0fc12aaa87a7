// Package wal is a stand-in for the engine's write-ahead log with the
// method shape walfirst matches on.
package wal

// Record is one log record.
type Record struct {
	Type    int
	Payload []byte
}

// Log is the stand-in write-ahead log.
type Log struct{}

// Append appends a record and returns its LSN.
func (l *Log) Append(rec Record) (int64, error) { return 0, nil }

// Record types, mirroring the engine's vocabulary.
const (
	RecUpdate = 1
	RecCommit = 2
	RecAbort  = 3
)

// Force makes every appended record durable.
func (l *Log) Force() error { return nil }

// ForceLSN makes every record at or below lsn durable.
func (l *Log) ForceLSN(lsn int64) error { return nil }
