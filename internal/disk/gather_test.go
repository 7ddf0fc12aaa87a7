package disk

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestBridgePages(t *testing.T) {
	for _, c := range []struct {
		m    CostModel
		want int
	}{
		{DefaultCostModel(), 14}, // 14 × 1.7 ms < 24.3 ms < 15 × 1.7 ms
		{CostModel{SeekMicros: 100, RotationalMicros: 20, TransferMicrosPerPage: 40}, 2}, // 3 × 40 is not less than 120
		{CostModel{SeekMicros: 100, TransferMicrosPerPage: 200}, 0},
		{CostModel{SeekMicros: 100}, 0},
	} {
		if got := c.m.BridgePages(); got != c.want {
			t.Errorf("%+v: BridgePages = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestPageSpan(t *testing.T) {
	for _, c := range []struct {
		off, n int64
		first  PageNum
		pages  int
		in     int64
	}{
		{0, 1, 0, 1, 0}, {0, 100, 0, 1, 0}, {0, 101, 0, 2, 0},
		{99, 2, 0, 2, 99}, {250, 900, 2, 10, 50}, {300, 0, 3, 0, 0}, {350, 0, 3, 0, 50},
	} {
		first, pages, in := PageSpan(c.off, c.n, 100)
		if first != c.first || pages != c.pages || in != c.in {
			t.Errorf("PageSpan(%d,%d) = %d,%d,%d; want %d,%d,%d", c.off, c.n, first, pages, in, c.first, c.pages, c.in)
		}
	}
}

// TestGather: whatever the geometry, the image is a | hole | b | zeros,
// fetched in one request when the ranges share an extent and lie within
// the bridge, in one request per non-empty range otherwise.
func TestGather(t *testing.T) {
	const ps = 64
	v := MustNewVolume(ps, 256, DefaultCostModel())
	content := make([]byte, 256*ps)
	rng := rand.New(rand.NewSource(5))
	rng.Read(content)
	if err := v.WritePages(0, 256, content); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		a := ByteRange{Start: PageNum(rng.Intn(8)), Off: int64(rng.Intn(40 * ps)), N: int64(rng.Intn(4 * ps))}
		b := ByteRange{Start: a.Start, Off: a.Off + a.N + int64(rng.Intn(30*ps)), N: int64(rng.Intn(4 * ps))}
		if i%4 == 0 {
			b.Start = PageNum(100 + rng.Intn(8)) // another extent
		}
		if i%7 == 0 {
			a.N = 0
		}
		if i%11 == 0 {
			b.N = 0
		}
		hole := int64(rng.Intn(3 * ps))

		fa, na, _ := PageSpan(a.Off, a.N, ps)
		fb, nb, _ := PageSpan(b.Off, b.N, ps)
		gap := int(fb) - int(fa) - na
		together := na > 0 && nb > 0 && a.Start == b.Start && gap <= DefaultCostModel().BridgePages()
		wantReads, wantBridged := int64(0), -1
		switch {
		case together:
			wantReads = 1
			if a.Off+a.N != b.Off {
				wantBridged = max(gap, 0)
			}
		default:
			if na > 0 {
				wantReads++
			}
			if nb > 0 {
				wantReads++
			}
		}

		before := v.Stats()
		img, bridged, err := Gather(v, a, hole, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.Stats().Reads - before.Reads; got != wantReads || bridged != wantBridged {
			t.Fatalf("Gather(%+v, %d, %+v): %d reads, bridged %d; want %d, %d", a, hole, b, got, bridged, wantReads, wantBridged)
		}
		total := a.N + hole + b.N
		if len(img)%ps != 0 || int64(len(img)) < total || int64(len(img)) >= total+ps {
			t.Fatalf("Gather(%+v, %d, %+v): image of %d bytes for %d", a, hole, b, len(img), total)
		}
		at := func(r ByteRange) []byte { return content[int64(r.Start)*ps+r.Off:][:r.N] }
		if !bytes.Equal(img[:a.N], at(a)) || !bytes.Equal(img[a.N+hole:total], at(b)) {
			t.Fatalf("Gather(%+v, %d, %+v): wrong bytes", a, hole, b)
		}
		for _, c := range img[total:] {
			if c != 0 {
				t.Fatalf("Gather(%+v, %d, %+v): padding not zero", a, hole, b)
			}
		}
		gatherIntoDirty(t, v, img, wantReads, a, hole, b)
	}
}

// gatherIntoDirty checks that GatherInto, given memory full of 0xFF, builds
// want — Gather's image of the same ranges — in that memory, with the same
// requests: no byte the memory held before survives outside the hole, which
// both images get filled with the same bytes first, as a caller would.
func gatherIntoDirty(t *testing.T, v *Volume, want []byte, wantReads int64, a ByteRange, hole int64, b ByteRange) {
	t.Helper()
	scratch := bytes.Repeat([]byte{0xFF}, 128*v.PageSize())
	before := v.Stats()
	got, _, err := GatherInto(scratch[:0], v, a, hole, b)
	if err != nil {
		t.Fatal(err)
	}
	if reads := v.Stats().Reads - before.Reads; reads != wantReads {
		t.Fatalf("GatherInto(%+v, %d, %+v): %d reads, want %d", a, hole, b, reads, wantReads)
	}
	if len(got) > 0 && &got[0] != &scratch[0] {
		t.Fatalf("GatherInto(%+v, %d, %+v): image not built in the memory given", a, hole, b)
	}
	fill := bytes.Repeat([]byte{0x5A}, int(hole))
	copy(got[a.N:], fill)
	want = append([]byte(nil), want...)
	copy(want[a.N:], fill)
	if !bytes.Equal(got, want) {
		t.Fatalf("GatherInto(%+v, %d, %+v) into dirty memory differs from Gather's image", a, hole, b)
	}
}

// TestGatherIntoDirtyScratch: the geometries an update gathers, each built
// in memory a previous image left dirty, give Gather's image and requests.
func TestGatherIntoDirtyScratch(t *testing.T) {
	const ps = 64
	v := MustNewVolume(ps, 256, DefaultCostModel())
	content := make([]byte, 256*ps)
	rand.New(rand.NewSource(7)).Read(content)
	if err := v.WritePages(0, 256, content); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		a           ByteRange
		hole        int64
		b           ByteRange
		reads       int64
		wantBridged int
	}{
		{"bridged", ByteRange{Start: 4, Off: 10, N: 100}, 30, ByteRange{Start: 4, Off: 10*ps + 5, N: 70}, 1, 8},
		{"byte-adjacent", ByteRange{Start: 4, Off: 30, N: 50}, 20, ByteRange{Start: 4, Off: 80, N: 90}, 1, -1},
		{"other extent", ByteRange{Start: 4, Off: 30, N: 50}, 20, ByteRange{Start: 100, Off: 80, N: 90}, 2, -1},
		{"empty a", ByteRange{Start: 4}, 40, ByteRange{Start: 4, Off: 3*ps + 7, N: 100}, 1, -1},
		{"empty b", ByteRange{Start: 4, Off: 5, N: 100}, 10, ByteRange{}, 1, -1},
		{"hole ends mid-page", ByteRange{Start: 4, Off: 0, N: ps / 2}, ps + ps/4, ByteRange{}, 1, -1},
		{"hole only", ByteRange{}, 2*ps + 3, ByteRange{}, 0, -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := v.Stats()
			want, bridged, err := Gather(v, c.a, c.hole, c.b)
			if err != nil {
				t.Fatal(err)
			}
			if reads := v.Stats().Reads - before.Reads; reads != c.reads || bridged != c.wantBridged {
				t.Fatalf("Gather: %d reads, bridged %d; want %d, %d", reads, bridged, c.reads, c.wantBridged)
			}
			gatherIntoDirty(t, v, want, c.reads, c.a, c.hole, c.b)
		})
	}
	// Memory too small for the requests is not written: the image is fresh.
	small := bytes.Repeat([]byte{0xFF}, ps)
	img, _, err := GatherInto(small, v, ByteRange{Start: 4, Off: 0, N: 2 * ps}, 0, ByteRange{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, content[4*ps:6*ps]) || !bytes.Equal(small, bytes.Repeat([]byte{0xFF}, ps)) {
		t.Fatal("GatherInto into memory too small for the image wrote into it or built the wrong image")
	}
}

func TestAround(t *testing.T) {
	for _, c := range []struct {
		off, n         int64
		headOff, headN int64
		tailOff, tailN int64
		first          PageNum
	}{
		{300, 200, 300, 0, 500, 0, 3},   // page-aligned: nothing kept
		{310, 20, 300, 10, 330, 70, 3},  // inside one page
		{350, 150, 300, 50, 500, 0, 3},  // head only
		{350, 400, 300, 50, 750, 50, 3}, // both, pages 3..7
	} {
		head, tail, first := Around(7, c.off, c.n, 100)
		if head != (ByteRange{7, c.headOff, c.headN}) || tail != (ByteRange{7, c.tailOff, c.tailN}) || first != c.first {
			t.Errorf("Around(%d,%d) = %+v, %+v, %d", c.off, c.n, head, tail, first)
		}
	}
}
