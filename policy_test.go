package eos

import (
	"math/rand"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// An object created with threshold 0 starts at the store's T, and its
// traffic moves it (lob.Policy): at its first insert or delete after a
// checkpoint, T drops one page when the last window's reshuffle transfers
// (W) cost more than half again its boundary seeks (R), and rises one page,
// never above the store's T, the other way round.  A window with either
// side 0 moves nothing; a T its creator or SetThreshold chose never moves.

// policyObject returns a store (default T = 8, 512-byte pages) and its
// object name, 96 segments of 1 000 bytes laid down by hinted appends and
// checkpointed, created with threshold t.
func policyObject(t *testing.T, name string, threshold int) (*Store, *Object) {
	t.Helper()
	s, _, _ := newStore(t, Options{})
	return s, addPolicyObject(t, s, name, threshold)
}

func addPolicyObject(t *testing.T, s *Store, name string, threshold int) *Object {
	t.Helper()
	o, err := s.Create(name, threshold)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 96; i++ {
		if err := o.AppendWithHint(pat(i, 1000), 1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return o
}

// edits runs n inserts of 100 to 1 500 bytes and n deletes of 1 to 100 at
// offsets rng draws: inserts that reshuffle pages, and deletes that seldom
// reach into a second segment, whose gather would be a boundary seek.
func edits(t *testing.T, o *Object, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := 100 + rng.Intn(1400)
		if err := o.Insert(rng.Int63n(o.Size()+1), pat(i, k)); err != nil {
			t.Fatal(err)
		}
		k = 1 + rng.Intn(100)
		if err := o.Delete(rng.Int63n(o.Size()-int64(k)), int64(k)); err != nil {
			t.Fatal(err)
		}
	}
}

// inserts runs n inserts of 100 to 1 500 bytes at offsets rng draws.
func inserts(t *testing.T, o *Object, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := 100 + rng.Intn(1400)
		if err := o.Insert(rng.Int63n(o.Size()+1), pat(i, k)); err != nil {
			t.Fatal(err)
		}
	}
}

// crossingRead reads the 2 bytes around the first segment boundary of o
// whose next segment does not start on the page after its segment's last
// page: one device request beyond the first, which repositions, counted in
// the current window.  The read must come right after a checkpoint, which
// leaves no page in memory.
func crossingRead(t *testing.T, o *Object) {
	t.Helper()
	o.e.latch.RLock()
	segs, err := o.e.obj.Segments()
	o.e.latch.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].StartPage != segs[i-1].StartPage+disk.PageNum(segs[i-1].Pages) {
			if _, err := o.Read(segs[i].LogicalOff-1, 2); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no segment boundary repositions")
}

// TestEditHeavyObjectLowersItsThreshold: an object of many inserts and
// deletes and one small read across a boundary a window loses one page of T
// at the first edit after each checkpoint, down to 1, where it stays: at 1
// nothing reshuffles.
func TestEditHeavyObjectLowersItsThreshold(t *testing.T) {
	s, o := policyObject(t, "x", 0)
	rng := rand.New(rand.NewSource(1))
	if p := o.Policy(); p.Threshold != 8 || p.Pinned {
		t.Fatalf("new object: %+v, want the store's T of 8, adaptive", p)
	}
	want := 8
	for round := 0; round < 10; round++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		crossingRead(t, o) // counts in the window the checkpoint began
		edits(t, o, rng, 1)
		if round > 0 { // the window before round 0 held the set-up's appends only
			want = max(want-1, 1)
		}
		if got := o.Threshold(); got != want {
			t.Fatalf("round %d: T %d after the window's first edit, want %d", round, got, want)
		}
		edits(t, o, rng, 30)
		if p := o.Policy(); p.Reshuffle <= 0 && want > 1 {
			t.Fatalf("round %d: %+v, want reshuffle transfers", round, p)
		}
	}
	if moves := s.Stats().LOB.ThresholdMoves; moves != 7 {
		t.Errorf("%d threshold moves, want 7", moves)
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestQuietObjectsKeepTheStoreThreshold: an object only read, one only
// appended to, and one only inserted into, never read, each see a side of 0
// in every window, and keep the store's T.
func TestQuietObjectsKeepTheStoreThreshold(t *testing.T) {
	s, read := policyObject(t, "read", 0)
	appended := addPolicyObject(t, s, "appended", 0)
	inserted := addPolicyObject(t, s, "inserted", 0)
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 6; round++ {
		for i := 0; i < 20; i++ {
			if _, err := read.Read(rng.Int63n(read.Size()-4000), 4000); err != nil {
				t.Fatal(err)
			}
			if err := appended.Append(pat(i, 700)); err != nil {
				t.Fatal(err)
			}
		}
		inserts(t, inserted, rng, 20)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range []*Object{read, appended, inserted} {
		inserts(t, o, rng, 1) // each weighs its last window at its next insert
	}
	for _, o := range []*Object{read, appended, inserted} {
		if p := o.Policy(); p.Threshold != 8 || p.Pinned {
			t.Errorf("%s: %+v, want the store's T of 8, adaptive", o.Name(), p)
		}
	}
	if moves := s.Stats().LOB.ThresholdMoves; moves != 0 {
		t.Errorf("%d threshold moves, want 0", moves)
	}
}

// TestPinnedThresholdNeverMoves: traffic that lowers an adaptive object's T
// leaves a T chosen at Create or by SetThreshold alone.
func TestPinnedThresholdNeverMoves(t *testing.T) {
	s, created := policyObject(t, "created", 8)
	set := addPolicyObject(t, s, "set", 0)
	if err := set.SetThreshold(6); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 4; round++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		crossingRead(t, created)
		crossingRead(t, set)
		edits(t, created, rng, 30)
		edits(t, set, rng, 30)
	}
	if p := created.Policy(); p.Threshold != 8 || !p.Pinned {
		t.Errorf("created with 8: %+v", p)
	}
	if p := set.Policy(); p.Threshold != 6 || !p.Pinned {
		t.Errorf("set to 6: %+v", p)
	}
	if moves := s.Stats().LOB.ThresholdMoves; moves != 0 {
		t.Errorf("%d threshold moves, want 0", moves)
	}
}

// TestThresholdMoveTriggersNoCheckpoint: a T move is a hint, not content.
// It marks nothing changed, so neither the transaction whose insert moves it
// nor the next transaction on the object runs a checkpoint
// (Store.checkpointUnlogged).
func TestThresholdMoveTriggersNoCheckpoint(t *testing.T) {
	s, o := policyObject(t, "x", 0)
	rng := rand.New(rand.NewSource(4))
	txnEdits := func(n int) {
		t.Helper()
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			size, _ := tx.Size("x")
			k := 100 + rng.Intn(1400)
			if err := tx.Insert("x", rng.Int63n(size+1), pat(i, k)); err != nil {
				t.Fatal(err)
			}
			k = 1 + rng.Intn(100)
			if err := tx.Delete("x", rng.Int63n(size-int64(k)), int64(k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	crossingRead(t, o)
	txnEdits(30)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Barrier.MasterWrites
	txnEdits(1)
	if got := o.Threshold(); got != 7 {
		t.Fatalf("T %d after the window's first edit, want 7", got)
	}
	txnEdits(1)
	if got := s.Stats().Barrier.MasterWrites; got != before {
		t.Errorf("%d checkpoints around the move and the transaction after it, want 0", got-before)
	}
}

// TestThresholdAndPinSurviveACrash: T and its pin are in the descriptor, so
// the image of a checkpoint carries them through a crash.
func TestThresholdAndPinSurviveACrash(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	moved := addPolicyObject(t, s, "moved", 0)
	pinned := addPolicyObject(t, s, "pinned", 0)
	if err := pinned.SetThreshold(5); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	crossingRead(t, moved)
	edits(t, moved, rng, 30)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	edits(t, moved, rng, 1)
	if got := moved.Threshold(); got != 7 {
		t.Fatalf("T %d, want 7", got)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s = crashReopen(t, vol, logVol)
	for name, want := range map[string]struct {
		t      int
		pinned bool
	}{"moved": {7, false}, "pinned": {5, true}} {
		o, err := s.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if p := o.Policy(); p.Threshold != want.t || p.Pinned != want.pinned {
			t.Errorf("%s after the crash: %+v, want T %d, pinned %v", name, p, want.t, want.pinned)
		}
	}
}
