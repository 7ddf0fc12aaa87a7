// Longfield: transactional large objects with crash recovery (§4.5).
//
// A small content-management scenario: article bodies stored as large
// objects, edited under transactions.  The example shows atomic
// multi-operation commits, rollback on abort, commits that force only the
// log, and recovery after a simulated power failure.
package main

import (
	"bytes"
	"fmt"
	"log"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

func main() {
	vol := disk.MustNewVolume(1024, 16384, disk.DefaultCostModel())
	logVol := disk.MustNewVolume(1024, 4096, disk.DefaultCostModel())
	store, err := eos.Format(vol, logVol, eos.Options{Threshold: 8})
	if err != nil {
		log.Fatal(err)
	}

	// Publish an article outside any transaction, then checkpoint.
	article, err := store.Create("articles/eos-review", 0)
	if err != nil {
		log.Fatal(err)
	}
	body := bytes.Repeat([]byte("The EOS large object manager stores byte strings of unlimited size. "), 2000)
	if err := article.AppendWithHint(body, int64(len(body))); err != nil {
		log.Fatal(err)
	}
	if err := store.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published article: %d KB\n", article.Size()>>10)

	// A reviewer edits the piece atomically: a correction in place, a
	// paragraph inserted, a redundant passage removed.
	tx, err := store.Begin()
	if err != nil {
		log.Fatal(err)
	}
	mustTx(tx.Replace("articles/eos-review", 0, []byte("THE"))) // capitalize
	mustTx(tx.Insert("articles/eos-review", 69, []byte("[EDITOR'S NOTE: reproduced in Go.] ")))
	mustTx(tx.Delete("articles/eos-review", 5000, 690))
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("editorial pass committed: %d KB\n", sizeOf(store, "articles/eos-review")>>10)

	// A vandal's edits are rolled back: the abort reinstates the root from
	// before them.
	before, _ := article.Read(0, 200)
	vandal, _ := store.Begin()
	mustTx(vandal.Replace("articles/eos-review", 0, bytes.Repeat([]byte("X"), 200)))
	mustTx(vandal.Delete("articles/eos-review", 0, 50000))
	if err := vandal.Abort(); err != nil {
		log.Fatal(err)
	}
	after, _ := article.Read(0, 200)
	fmt.Printf("vandal aborted: content restored = %v\n", bytes.Equal(before, after))

	// Every commit forces only the log; index pages and descriptors reach
	// the data volume lazily, at the next checkpoint.
	for i := 0; i < 5; i++ {
		tx, err := store.Begin()
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("articles/draft-%d", i)
		mustTx(tx.Create(name, 0))
		mustTx(tx.Append(name, bytes.Repeat([]byte{byte(i)}, 20480)))
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("ingested 5 drafts, a commit each (%d bytes of log in use)\n", store.LogTail())

	// Power failure!  Everything volatile is lost; the write-ahead log
	// replays the commits.
	if err := vol.Crash(); err != nil {
		log.Fatal(err)
	}
	if err := logVol.Crash(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- simulated power failure --")

	store2, err := eos.Open(vol, logVol, eos.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered store: %d objects\n", len(store2.List()))
	for _, name := range store2.List() {
		o, err := store2.Open(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-24s %7d bytes\n", name, o.Size())
	}
	draft, err := store2.Open("articles/draft-3")
	if err != nil {
		log.Fatal("draft-3 lost in the crash: ", err)
	}
	got, _ := draft.Read(0, draft.Size())
	if !bytes.Equal(got, bytes.Repeat([]byte{3}, 20480)) {
		log.Fatal("draft-3 content corrupted")
	}
	if err := store2.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("redo recovery verified: every commit survived, store check OK")
}

func mustTx(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func sizeOf(s *eos.Store, name string) int64 {
	o, err := s.Open(name)
	if err != nil {
		log.Fatal(err)
	}
	return o.Size()
}
