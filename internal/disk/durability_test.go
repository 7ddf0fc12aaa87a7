package disk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// durableDevice is a Device that reports its unforced pages, as both
// backends do.
type durableDevice interface {
	Device
	DirtyPages() int
}

// stamp fills a page image with repeated (version, page) words, so a
// read can tell which write an image came from and that it is whole.
func stamp(img []byte, version uint32, p PageNum) {
	for off := 0; off+8 <= len(img); off += 8 {
		binary.LittleEndian.PutUint32(img[off:], version)
		binary.LittleEndian.PutUint32(img[off+4:], uint32(p))
	}
}

// TestDurabilityModel drives both backends through one seeded sequence
// of writes, run writes, range forces, full forces, forces that skip
// pages, crashes and reads, and holds them to a two-map model: the
// current image of every page and its last forced one.  After every step
// the unforced-page count matches the model's, and every page — one never
// written reads as zeros — holds the model's current image.
func TestDurabilityModel(t *testing.T) {
	const ps, pages = 64, 24
	backends := []struct {
		name string
		open func(t *testing.T) durableDevice
	}{
		{"sim", func(t *testing.T) durableDevice { return MustNewVolume(ps, pages, CostModel{}) }},
		{"file", func(t *testing.T) durableDevice {
			return testFileVolume(t, ps, pages, FileOptions{CrashShadow: true})
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				checkDurabilityModel(t, b.open(t), seed, ps, pages)
			}
		})
	}
}

func checkDurabilityModel(t *testing.T, v durableDevice, seed int64, ps int, pages PageNum) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	zero := make([]byte, ps)
	cur := make(map[PageNum][]byte)     // current image of every written page
	durable := make(map[PageNum][]byte) // last forced image
	dirty := make(map[PageNum]bool)     // written since its last force
	settle := func(p PageNum) {
		if dirty[p] {
			durable[p] = cur[p]
			delete(dirty, p)
		}
	}
	image := func(m map[PageNum][]byte, p PageNum) []byte {
		if img, ok := m[p]; ok {
			return img
		}
		return zero
	}
	span := func() (PageNum, int) {
		n := 1 + rng.Intn(4)
		return PageNum(rng.Intn(int(pages) - n + 1)), n
	}
	all := make([]byte, int(pages)*ps)
	for step := 0; step < 300; step++ {
		var op string
		var err error
		switch k := rng.Intn(20); {
		case k < 7:
			start, n := span()
			op = fmt.Sprintf("WritePages(%d, %d)", start, n)
			buf := make([]byte, n*ps)
			for i := 0; i < n; i++ {
				img := buf[i*ps : (i+1)*ps]
				stamp(img, uint32(step), start+PageNum(i))
				cur[start+PageNum(i)], dirty[start+PageNum(i)] = img, true
			}
			err = v.WritePages(start, n, buf)
		case k < 11:
			start, n := span()
			op = fmt.Sprintf("WriteRun(%d, %d)", start, n)
			run := make([][]byte, n)
			for i := range run {
				run[i] = make([]byte, ps)
				stamp(run[i], uint32(step), start+PageNum(i))
				cur[start+PageNum(i)], dirty[start+PageNum(i)] = run[i], true
			}
			err = v.WriteRun(start, run)
		case k < 15:
			start, n := span()
			op = fmt.Sprintf("Force(%d, %d)", start, n)
			for i := 0; i < n; i++ {
				settle(start + PageNum(i))
			}
			err = v.Force(start, n)
		case k < 16:
			op = "ForceAll"
			for p := range dirty {
				settle(p)
			}
			err = v.ForceAll()
		case k < 18:
			skip := make(map[PageNum]bool)
			for p := range dirty {
				if rng.Intn(2) == 0 {
					skip[p] = true
				}
			}
			op = fmt.Sprintf("ForceAllExcept(%d pages)", len(skip))
			for p := range dirty {
				if !skip[p] {
					settle(p)
				}
			}
			err = v.ForceAllExcept(skip)
		default:
			op = "Crash"
			for p := range dirty {
				cur[p] = image(durable, p)
			}
			clear(dirty)
			err = v.Crash()
		}
		if err != nil {
			t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
		}
		if got := v.DirtyPages(); got != len(dirty) {
			t.Fatalf("seed %d step %d after %s: DirtyPages = %d, model has %d", seed, step, op, got, len(dirty))
		}
		if err := v.ReadPages(0, int(pages), all); err != nil {
			t.Fatalf("seed %d step %d after %s: read: %v", seed, step, op, err)
		}
		for p := PageNum(0); p < pages; p++ {
			if got := all[int(p)*ps : int(p+1)*ps]; !bytes.Equal(got, image(cur, p)) {
				t.Fatalf("seed %d step %d after %s: page %d holds %x, model %x",
					seed, step, op, p, got[:8], image(cur, p)[:8])
			}
		}
	}
}

// TestSlotBookkeepingIsBounded: the WAL writes one page and forces it,
// over and over, while other pages stay dirty; the volume's dirty list
// tracks only the pages dirty since their last force, and every slot
// is either some page's image, some dirty page's pre-image, or free.
// A crash of a large volume reverts exactly the pages written since
// the last force and leaves every other page as it was.
func TestSlotBookkeepingIsBounded(t *testing.T) {
	const ps = 16
	v := MustNewVolume(ps, 1024, CostModel{})
	img := make([]byte, ps)
	for p := PageNum(0); p < 3; p++ { // dirty throughout
		if err := v.WritePages(p, 1, img); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 10000; round++ {
		p := 3 + PageNum(round%8)
		stamp(img, uint32(round), p)
		if err := v.WritePages(p, 1, img); err != nil {
			t.Fatal(err)
		}
		if err := v.Force(p, 1); err != nil {
			t.Fatal(err)
		}
		if len(v.dirty) != 3 || len(v.free) != 1024-3 {
			t.Fatalf("round %d: dirty list holds %d pages, free stack %d slots; want 3 and %d",
				round, len(v.dirty), len(v.free), 1024-3)
		}
	}
	if cap(v.dirty) > 8 {
		t.Errorf("dirty list grew to a capacity of %d for 4 pages", cap(v.dirty))
	}

	const big = 1 << 18
	v = MustNewVolume(ps, big, CostModel{})
	forced := make([]byte, big*ps)
	for p := PageNum(0); p < big; p++ {
		stamp(forced[int(p)*ps:int(p+1)*ps], 1, p)
	}
	if err := v.WritePages(0, big, forced); err != nil {
		t.Fatal(err)
	}
	if err := v.ForceAll(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []PageNum{0, 77777, big - 1} {
		stamp(img, 2, p)
		if err := v.WritePages(p, 1, img); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Crash(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, big*ps)
	if err := v.ReadPages(0, big, got); err != nil {
		t.Fatal(err)
	}
	for p := PageNum(0); p < big; p++ {
		if !bytes.Equal(got[int(p)*ps:int(p+1)*ps], forced[int(p)*ps:int(p+1)*ps]) {
			t.Fatalf("page %d after the crash holds %x, want its forced image", p, got[int(p)*ps:int(p)*ps+8])
		}
	}
	if v.DirtyPages() != 0 || len(v.free) != big {
		t.Errorf("after the crash: %d dirty pages, %d free slots; want 0 and %d", v.DirtyPages(), len(v.free), big)
	}
}

// TestConcurrentReadsSeeWholePages: readers read page runs beside a
// writer that writes, forces and crashes.  Every page a read returns is
// whole and from one write: all its words carry one version and its own
// page number, or it is still zeros.  Slot moves happen under the write
// lock, so a read never sees a page between two slots.
func TestConcurrentReadsSeeWholePages(t *testing.T) {
	const ps, pages, readers = 256, 64, 3
	v := MustNewVolume(ps, pages, CostModel{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			buf := make([]byte, 16*ps)
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 1 + rng.Intn(16)
				start := PageNum(rng.Intn(pages - n + 1))
				if err := v.ReadPages(start, n, buf[:n*ps]); err != nil {
					errs <- err
					return
				}
				for i := 0; i < n; i++ {
					if err := wholePage(buf[i*ps:(i+1)*ps], start+PageNum(i)); err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(99))
	buf := make([]byte, 8*ps)
	for version := uint32(1); version <= 3000; version++ {
		n := 1 + rng.Intn(8)
		start := PageNum(rng.Intn(pages - n + 1))
		for i := 0; i < n; i++ {
			stamp(buf[i*ps:(i+1)*ps], version, start+PageNum(i))
		}
		if err := v.WritePages(start, n, buf[:n*ps]); err != nil {
			t.Fatal(err)
		}
		var err error
		switch version % 10 {
		case 3:
			err = v.Force(start, n)
		case 6:
			err = v.ForceAll()
		case 9:
			err = v.Crash()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// wholePage reports whether img is page p's image from a single write,
// or zeros.
func wholePage(img []byte, p PageNum) error {
	version := binary.LittleEndian.Uint32(img)
	want := make([]byte, len(img))
	if version != 0 {
		stamp(want, version, p)
	}
	if !bytes.Equal(img, want) {
		return fmt.Errorf("page %d read torn or misplaced: starts %x", p, img[:8])
	}
	return nil
}
