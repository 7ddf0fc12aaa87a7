// Package racecheck_clean holds every shape the lockset rule must stay
// silent on: consistently guarded fields, atomics, channels,
// constructor-fresh writes, annotated fields, and helpers whose lock is
// inherited through eos:requires.
package racecheck_clean

import (
	"sync"
	"sync/atomic"
)

type gauge struct {
	mu sync.Mutex
	n  int          // guarded everywhere (directly or via eos:requires)
	a  atomic.Int64 // hardware-ordered: exempt
	// lo is covered by an external guard the guardedby analyzer owns.
	lo int      // eos:guardedby Pool.mu
	ch chan int // channels synchronize themselves
}

// New writes n before the value escapes: constructor-fresh, exempt.
func New() *gauge {
	g := &gauge{ch: make(chan int)}
	g.n = 1
	return g
}

// Start is the concurrency root.
func Start(g *gauge) {
	go g.work()
}

func (g *gauge) work() {
	g.mu.Lock()
	g.bumpLocked()
	g.mu.Unlock()
	g.a.Add(1)
	<-g.ch
}

// bumpLocked inherits the lock from its caller; the seed token g.mu
// canonicalizes to gauge.mu against the receiver.
//
// eos:requires g.mu
func (g *gauge) bumpLocked() {
	g.n++
}

// Read holds the same lock: the intersection stays {gauge.mu}.
func (g *gauge) Read() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// Send touches only the channel field: not a candidate.
func (g *gauge) Send(v int) {
	g.ch <- v
}

// Open is a constructor (it returns the candidate-owning type), so
// populate — reachable only from it — runs pre-publication and its
// bare write through a non-fresh parameter is exempt.
func Open() (*gauge, error) {
	g := New()
	populate(g)
	return g, nil
}

func populate(g *gauge) {
	g.n = 7
}

// session instances are driven by one goroutine at a time by API
// contract: its fields are not lockset candidates even though Run's
// spawn and Flush would otherwise conflict on buf.
//
// eos:confined
type session struct {
	mu  sync.Mutex
	buf []byte
}

// Run drives the session on its own goroutine.
func Run(s *session) {
	go s.loop()
}

func (s *session) loop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, 1)
}

// Flush may only be called after Run's goroutine has exited.
func (s *session) Flush() {
	s.buf = nil
}
