// Document: an "insertable array" — the paper's long-list use case (§1):
// "in manipulating a long list stored as a large object, elements may be
// removed from or new ones inserted at any place within the list".
//
// A document is a list of fixed-size records stored back to back in one
// large object.  The example edits it heavily at random positions and
// compares two threshold settings, showing the §4.4 trade-off: larger T
// preserves clustering and read speed at a modest update cost.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

const (
	recordBytes = 256
	numRecords  = 8192 // 2 MB document
	numEdits    = 400
)

func record(id int) []byte {
	r := make([]byte, recordBytes)
	binary.BigEndian.PutUint64(r, uint64(id))
	for i := 8; i < recordBytes; i++ {
		r[i] = byte(id)
	}
	return r
}

func runWithThreshold(T int) {
	vol := disk.MustNewVolume(1024, 16384, disk.DefaultCostModel())
	logVol := disk.MustNewVolume(1024, 1024, disk.DefaultCostModel())
	store, err := eos.Format(vol, logVol, eos.Options{Threshold: T})
	if err != nil {
		log.Fatal(err)
	}
	doc, err := store.Create("report.doc", T) // pinned: the sweep compares fixed T
	if err != nil {
		log.Fatal(err)
	}

	// Build the document with a size hint.
	w := doc.OpenAppender(numRecords * recordBytes)
	for i := 0; i < numRecords; i++ {
		if _, err := w.Write(record(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// Edit storm: insert and remove whole records at random positions.
	rng := rand.New(rand.NewSource(42))
	vol.ResetStats()
	for e := 0; e < numEdits; e++ {
		records := doc.Size() / recordBytes
		pos := int64(rng.Intn(int(records))) * recordBytes
		if e%2 == 0 {
			if err := doc.Insert(pos, record(100000+e)); err != nil {
				log.Fatal(err)
			}
		} else {
			if err := doc.Delete(pos, recordBytes); err != nil {
				log.Fatal(err)
			}
		}
	}
	// The edits' new segments may still wait in memory: the checkpoint
	// writes them, a cost of the edits, and the scan then reads the layout
	// they left on the volume.
	if err := store.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	edits := vol.Stats()

	// Full-document scan after the storm.
	vol.ResetStats()
	if _, err := doc.Read(0, doc.Size()); err != nil {
		log.Fatal(err)
	}
	scan := vol.Stats()
	u, _ := doc.Usage()

	fmt.Printf("T=%-3d edits: %5d pages moved, %4d seeks | scan: %4d seeks, %.2fms | segments %4d, util %.1f%%\n",
		T, edits.PagesMoved(), edits.Seeks, scan.Seeks,
		float64(scan.Micros)/1000, u.SegmentCount, u.Utilization(store.PageSize())*100)

	if err := store.Check(); err != nil {
		log.Fatal(err)
	}

	// Sanity: the record directory structure is intact — decode a few
	// record headers.
	for _, idx := range []int64{0, doc.Size()/recordBytes - 1} {
		hdr, err := doc.Read(idx*recordBytes, 8)
		if err != nil {
			log.Fatal(err)
		}
		_ = binary.BigEndian.Uint64(hdr)
	}
}

func main() {
	fmt.Printf("document of %d x %d-byte records, %d random record edits\n\n",
		numRecords, recordBytes, numEdits)
	for _, T := range []int{1, 8, 32} {
		runWithThreshold(T)
	}
	fmt.Println("\nlarger T: edits move more pages, but the document stays clustered and scans stay fast (§4.4)")
}
