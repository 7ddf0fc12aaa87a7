// Maintenance: watching an object's physical layout degrade under edits
// and restoring it — the operational side of §4.4's threshold trade-off.
//
// The example prints the segment map (what `eosctl dump` shows) at each
// stage: after bulk load, after an edit storm with a deliberately poor
// threshold, and after Compact.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

func report(store *eos.Store, vol *disk.Volume, obj *eos.Object, stage string) {
	segs, err := obj.Segments()
	if err != nil {
		log.Fatal(err)
	}
	u, err := obj.Usage()
	if err != nil {
		log.Fatal(err)
	}
	// The scan reads the layout on the volume: the checkpoint first writes
	// the new segments that still wait in memory.
	if err := store.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	vol.ResetStats()
	if _, err := obj.Read(0, obj.Size()); err != nil {
		log.Fatal(err)
	}
	s := vol.Stats()
	fmt.Printf("%-24s %4d segments, %2d index pages, util %5.1f%%, scan %4d seeks (%8.1fms)\n",
		stage, len(segs), u.IndexPages, u.Utilization(store.PageSize())*100,
		s.Seeks, float64(s.Micros)/1000)

	// Show the first few segments of the physical map.
	for i, sg := range segs {
		if i == 6 {
			fmt.Printf("    ... %d more\n", len(segs)-6)
			break
		}
		fmt.Printf("    seg %2d: logical %7d  pages %4d..%4d (%d)\n",
			i, sg.LogicalOff, sg.StartPage, int64(sg.StartPage)+int64(sg.Pages)-1, sg.Pages)
	}
}

func main() {
	vol := disk.MustNewVolume(1024, 16384, disk.DefaultCostModel())
	logVol := disk.MustNewVolume(1024, 1024, disk.DefaultCostModel())
	store, err := eos.Format(vol, logVol, eos.Options{Threshold: 1}) // worst case
	if err != nil {
		log.Fatal(err)
	}
	obj, err := store.Create("dataset.bin", 0)
	if err != nil {
		log.Fatal(err)
	}
	payload := make([]byte, 2<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := obj.AppendWithHint(payload, int64(len(payload))); err != nil {
		log.Fatal(err)
	}
	report(store, vol, obj, "after bulk load:")

	// Edit storm with T = 1: fragmentation accumulates freely.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		off := int64(rng.Intn(int(obj.Size())))
		if i%2 == 0 {
			if err := obj.Insert(off, payload[:64]); err != nil {
				log.Fatal(err)
			}
		} else if err := obj.Delete(off, min64(64, obj.Size()-off)); err != nil {
			log.Fatal(err)
		}
	}
	report(store, vol, obj, "after 300 edits (T=1):")

	// Raise the threshold for future edits, and compact to repair the
	// damage already done.
	if err := obj.SetThreshold(16); err != nil {
		log.Fatal(err)
	}
	if err := obj.Compact(); err != nil {
		log.Fatal(err)
	}
	report(store, vol, obj, "after Compact:")

	// Edits under T = 16 stay clustered.
	for i := 0; i < 300; i++ {
		off := int64(rng.Intn(int(obj.Size())))
		if i%2 == 0 {
			if err := obj.Insert(off, payload[:64]); err != nil {
				log.Fatal(err)
			}
		} else if err := obj.Delete(off, min64(64, obj.Size()-off)); err != nil {
			log.Fatal(err)
		}
	}
	report(store, vol, obj, "after 300 edits (T=16):")

	if err := store.Check(); err != nil {
		log.Fatal(err)
	}
	if err := store.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	if err := store.CheckNoLeaks(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("store check + leak check: OK")
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
