// Package lob is a stand-in for the engine's large-object layer with
// the mutator set walfirst matches on: the apply steps Apply, Destroy and
// Replace, and ReplacePlan.Hold.
package lob

// Object is the stand-in large object.
type Object struct{}

// Splice is the stand-in prepared structural update: PrepareAppend writes
// only pages no root names, Apply splices it into the tree.
type Splice struct{}

func (o *Object) PrepareAppend(b []byte) (*Splice, error) { return &Splice{}, nil }
func (o *Object) Apply(sp *Splice) error                  { return nil }

func (o *Object) Append(b []byte) error                 { return nil }
func (o *Object) AppendWithHint(b []byte, h int) error  { return nil }
func (o *Object) Insert(off int64, b []byte) error      { return nil }
func (o *Object) Delete(off, n int64) error             { return nil }
func (o *Object) Replace(off int64, b []byte) error     { return nil }
func (o *Object) Destroy() error                        { return nil }
func (o *Object) Truncate(n int64) error                { return nil }
func (o *Object) Compact() error                        { return nil }
func (o *Object) Read(off int64, b []byte) (int, error) { return 0, nil }
func (o *Object) Size() int64                           { return 0 }

// ReplacePlan is the stand-in prepared replace: Hold keeps its page images
// in the manager, and writes nothing.
type ReplacePlan struct{}

func (o *Object) PrepareReplace(off int64, b []byte, have *PageImages) (*ReplacePlan, error) {
	return &ReplacePlan{}, nil
}

// PageImages is the stand-in for what a read transferred.
type PageImages struct{}

func (p *ReplacePlan) Hold() {}

// Manager is the stand-in large-object manager: PendHeld is a committed
// transaction's held pages entering the write-behind set, that forcedom's
// force-ahead rule anchors on.
type Manager struct{}

func (m *Manager) PendHeld() error { return nil }

// PageNum numbers a page.
type PageNum int64

// Allocator is the stand-in page allocation interface the large-object
// layer is parameterized over; pairs matches its methods through
// dynamic dispatch.
type Allocator interface {
	Alloc(n int) (PageNum, error)
	AllocUpTo(n int) (PageNum, int, error)
	Free(p PageNum, n int) error
	FreeUnpublished(p PageNum, n int) error
	MaxSegmentPages() int
}
