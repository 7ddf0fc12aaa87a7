package main

import (
	"bytes"
	"fmt"
	"math/rand"
)

// payload is the one fixed random buffer every byte the benchmark ever
// writes is cut from.  An object's expected content is then a list of
// (offset, length) pieces of it, so the model never copies object bytes
// however large the object is.
type payload []byte

func newPayload(seed int64, n int) payload {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// slice picks n bytes of the payload at a random offset.
func (p payload) slice(rng *rand.Rand, n int) (off int, data []byte) {
	off = rng.Intn(len(p) - n + 1)
	return off, p[off : off+n]
}

type piece struct{ off, n int }

// blockMax bounds a block of the piece table; a fuller one is halved.
const blockMax = 512

// model is the expected content of one object: a piece table kept in
// blocks with their byte counts, so that finding an offset and editing
// there cost a scan of the block sums plus one block, not of every piece
// (an edit_mix object collects tens of thousands).
type model struct {
	blocks [][]piece
	sums   []int64
	size   int64
}

// seek returns the block and index of the piece holding byte off and the
// offset inside it.  off == size yields the end: (len(blocks), 0, 0).
func (m *model) seek(off int64) (b, i, in int) {
	for b = 0; b < len(m.blocks) && off >= m.sums[b]; b++ {
		off -= m.sums[b]
	}
	if b == len(m.blocks) {
		return b, 0, 0
	}
	for i = 0; off >= int64(m.blocks[b][i].n); i++ {
		off -= int64(m.blocks[b][i].n)
	}
	return b, i, int(off)
}

// put inserts pc before piece i of block b and returns where it landed.
func (m *model) put(b, i int, pc piece) (int, int) {
	if b == len(m.blocks) {
		if b == 0 {
			m.blocks, m.sums = append(m.blocks, nil), append(m.sums, 0)
		}
		b = len(m.blocks) - 1
		i = len(m.blocks[b])
	}
	blk := append(m.blocks[b], piece{})
	copy(blk[i+1:], blk[i:])
	blk[i] = pc
	m.blocks[b] = blk
	m.sums[b] += int64(pc.n)
	if len(blk) <= blockMax {
		return b, i
	}
	half := len(blk) / 2
	tail := append([]piece(nil), blk[half:]...)
	var tailSum int64
	for _, t := range tail {
		tailSum += int64(t.n)
	}
	m.blocks = append(m.blocks, nil)
	copy(m.blocks[b+2:], m.blocks[b+1:])
	m.blocks[b], m.blocks[b+1] = blk[:half:half], tail
	m.sums = append(m.sums, 0)
	copy(m.sums[b+2:], m.sums[b+1:])
	m.sums[b], m.sums[b+1] = m.sums[b]-tailSum, tailSum
	if i >= half {
		return b + 1, i - half
	}
	return b, i
}

// split makes off a piece boundary and returns the piece that starts there.
func (m *model) split(off int64) (int, int) {
	b, i, in := m.seek(off)
	if in == 0 {
		return b, i
	}
	pc := m.blocks[b][i]
	m.blocks[b][i] = piece{pc.off, in}
	m.sums[b] -= int64(pc.n - in)
	return m.put(b, i+1, piece{pc.off + in, pc.n - in})
}

func (m *model) insert(off int64, src, n int) {
	b, i := m.split(off)
	m.put(b, i, piece{src, n})
	m.size += int64(n)
}

func (m *model) append(src, n int) { m.insert(m.size, src, n) }

func (m *model) delete(off, n int64) {
	b, i := m.split(off)
	m.size -= n
	for n > 0 {
		blk := m.blocks[b]
		if i == len(blk) {
			b, i = b+1, 0
			continue
		}
		pc := blk[i]
		if int64(pc.n) > n {
			blk[i] = piece{pc.off + int(n), pc.n - int(n)}
			m.sums[b] -= n
			return
		}
		n -= int64(pc.n)
		m.sums[b] -= int64(pc.n)
		m.blocks[b] = append(blk[:i], blk[i+1:]...)
		if len(m.blocks[b]) == 0 {
			m.blocks = append(m.blocks[:b], m.blocks[b+1:]...)
			m.sums = append(m.sums[:b], m.sums[b+1:]...)
		}
	}
}

func (m *model) replace(off int64, src, n int) {
	m.delete(off, int64(n))
	m.insert(off, src, n)
}

// check compares got with the model's bytes [off, off+len(got)).
func (m *model) check(p payload, off int64, got []byte) error {
	if off+int64(len(got)) > m.size {
		return fmt.Errorf("read of [%d,%d) passes the expected size %d", off, off+int64(len(got)), m.size)
	}
	b, i, in := m.seek(off)
	for pos := off; len(got) > 0; i, in = i+1, 0 {
		if i == len(m.blocks[b]) {
			b, i = b+1, 0
		}
		pc := m.blocks[b][i]
		n := pc.n - in
		if n > len(got) {
			n = len(got)
		}
		if !bytes.Equal(got[:n], p[pc.off+in:pc.off+in+n]) {
			return fmt.Errorf("content differs in bytes [%d,%d)", pos, pos+int64(n))
		}
		got = got[n:]
		pos += int64(n)
	}
	return nil
}
