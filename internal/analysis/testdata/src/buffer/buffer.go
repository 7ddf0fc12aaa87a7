// Package buffer is a stand-in for the engine's buffer pool with the
// method shapes the analyzers match on (package name, receiver type
// name, method name).  Like the real pool, Fix, FixWrite and FixNew
// return the pinned frame's byte slice directly.
package buffer

// PageID names a page.
type PageID struct{ Vol, Page uint32 }

// Pool is the stand-in buffer pool.
type Pool struct{}

func (p *Pool) Fix(pg PageID) ([]byte, error)      { return make([]byte, 8), nil }
func (p *Pool) FixNew(pg PageID) ([]byte, error)   { return make([]byte, 8), nil }
func (p *Pool) FixWrite(pg PageID) ([]byte, error) { return make([]byte, 8), nil }
func (p *Pool) Unpin(pg PageID) error              { return nil }
func (p *Pool) Discard(pg PageID) error            { return nil }
func (p *Pool) MarkDirty(pg PageID) error          { return nil }
