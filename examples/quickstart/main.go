// Quickstart: create a store, write a large object, and run the paper's
// full operation set — append, read, replace, insert, delete — while
// watching the simulated I/O costs.
package main

import (
	"bytes"
	"fmt"
	"log"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

func main() {
	// A 64 MB simulated data volume with 4 KB pages, and a log volume.
	vol := disk.MustNewVolume(4096, 16384, disk.DefaultCostModel())
	logVol := disk.MustNewVolume(4096, 2048, disk.DefaultCostModel())
	store, err := eos.Format(vol, logVol, eos.Options{Threshold: 8})
	if err != nil {
		log.Fatal(err)
	}

	// Create an object and append 10 MB with a size hint: EOS allocates
	// segments just large enough (§4.1).
	obj, err := store.Create("demo", 0)
	if err != nil {
		log.Fatal(err)
	}
	payload := make([]byte, 10<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	vol.ResetStats()
	if err := obj.AppendWithHint(payload, int64(len(payload))); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created 10 MB object: %v\n", vol.Stats())

	u, _ := obj.Usage()
	fmt.Printf("segments=%d dataPages=%d indexPages=%d height=%d utilization=%.1f%%\n",
		u.SegmentCount, u.SegmentPages, u.IndexPages, u.TreeHeight,
		u.Utilization(store.PageSize())*100)

	// Sequential scan: physically contiguous segments keep the I/O rate
	// near the transfer rate — few seeks for thousands of pages.
	vol.ResetStats()
	if _, err := obj.Read(0, obj.Size()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full sequential read: %v\n", vol.Stats())

	// Random access: cost independent of object size.
	vol.ResetStats()
	if _, err := obj.Read(7<<20, 4096); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("random 4 KB read at 7 MB: %v\n", vol.Stats())

	// Insert bytes in the middle: only the touched segment splits; the
	// rest of the object is untouched (§4.3.1).
	vol.ResetStats()
	if err := obj.Insert(5<<20, []byte("-- inserted in the middle --")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("small middle insert:  %v\n", vol.Stats())

	// Verify the bytes landed where expected.
	got, _ := obj.Read(5<<20, 28)
	if !bytes.Equal(got, []byte("-- inserted in the middle --")) {
		log.Fatal("insert verification failed")
	}

	// Delete a megabyte: whole segments are freed without being read.
	vol.ResetStats()
	if err := obj.Delete(2<<20, 1<<20); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1 MB middle delete:   %v\n", vol.Stats())

	// Replace overwrites in place: it reads the page whose other bytes it
	// keeps, and the new page waits in memory until the next checkpoint
	// writes it home (§4.5's no-force).
	vol.ResetStats()
	if err := obj.Replace(100, []byte("REPLACED")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-place replace:     %v\n", vol.Stats())

	fmt.Printf("final size: %d bytes\n", obj.Size())
	if err := store.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("store check: OK")
}
