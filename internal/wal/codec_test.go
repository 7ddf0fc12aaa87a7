package wal

import (
	"bytes"
	"testing"
	"testing/quick"
)

// TestQuickEncodeDecodeRoundTrip: any record survives the codec.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(txn, obj uint64, typ8 uint8, off, n int64, data []byte) bool {
		r := &Record{
			LSN:    1,
			Txn:    txn,
			Type:   RecType(typ8%11 + 1),
			Object: obj,
			Off:    off,
			N:      n,
			Data:   data,
		}
		buf := encode(r)
		got, size, err := decode(buf)
		if err != nil || size != len(buf) {
			return false
		}
		return got.Txn == r.Txn && got.Type == r.Type && got.Object == r.Object &&
			got.Off == r.Off && got.N == r.N &&
			bytes.Equal(got.Data, r.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickDecodeNeverPanics: arbitrary bytes either decode or error.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(junk []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("decode panicked")
			}
		}()
		_, _, _ = decode(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickBitFlipsDetected: single bit corruption anywhere in an
// encoded record is caught by the checksum.
func TestQuickBitFlipsDetected(t *testing.T) {
	base := encode(&Record{LSN: 1, Txn: 7, Type: RecInsert, Object: 3, Off: 100, Data: []byte("payload bytes here")})
	f := func(pos16 uint16, bit8 uint8) bool {
		pos := int(pos16) % len(base)
		if pos < 4 {
			pos += 4 // flipping the stored checksum itself also must fail
		}
		buf := append([]byte{}, base...)
		buf[pos%len(buf)] ^= 1 << (bit8 % 8)
		_, _, err := decode(buf)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
