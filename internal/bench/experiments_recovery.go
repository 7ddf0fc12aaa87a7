package bench

import (
	"bytes"
	"fmt"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

// E12Recovery measures the §4.5 recovery design: per-operation log
// volume (replace logs old + new values; insert/delete/append log the
// operation and its parameters), shadowed index pages, and crash
// recovery correctness via the LSN-guarded redo.
func E12Recovery() (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "recovery overhead and crash correctness (§4.5)",
		Claim:   "replace is logged; insert/delete/append shadow index pages and never overwrite leaf pages; the root LSN makes redo idempotent",
		Headers: []string{"operation", "op bytes", "log bytes", "shadowed index pages", "commit pages forced"},
	}
	mkStore := func() (*eos.Store, *disk.Volume, *disk.Volume, error) {
		vol, err := disk.NewVolume(1024, 8192, disk.DefaultCostModel())
		if err != nil {
			return nil, nil, nil, err
		}
		logVol, err := disk.NewVolume(1024, 4096, disk.DefaultCostModel())
		if err != nil {
			return nil, nil, nil, err
		}
		// A small root forces real index nodes so shadowing is visible.
		s, err := eos.Format(vol, logVol, eos.Options{Threshold: 8, MaxRootEntries: 4})
		return s, vol, logVol, err
	}

	s, vol, _, err := mkStore()
	if err != nil {
		return nil, err
	}
	o, err := s.Create("obj", 0)
	if err != nil {
		return nil, err
	}
	// Build the object from chunked appends so it has many segments and
	// a real index tree.
	ap := o.OpenAppender(0)
	for w := 0; w < 1<<20; w += 8192 {
		if _, err := ap.Write(Pattern(w, 8192)); err != nil {
			return nil, err
		}
	}
	if err := ap.Close(); err != nil {
		return nil, err
	}
	if err := s.Checkpoint(); err != nil {
		return nil, err
	}

	type op struct {
		name string
		run  func(tx *eos.Txn) error
	}
	const opBytes = 1024
	ops := []op{
		{"replace", func(tx *eos.Txn) error { return tx.Replace("obj", 5000, Pattern(2, opBytes)) }},
		{"insert", func(tx *eos.Txn) error { return tx.Insert("obj", 5000, Pattern(3, opBytes)) }},
		{"delete", func(tx *eos.Txn) error { return tx.Delete("obj", 5000, opBytes) }},
		{"append", func(tx *eos.Txn) error { return tx.Append("obj", Pattern(4, opBytes)) }},
	}
	for _, op := range ops {
		// Record bytes, not log length: the length also counts the padding
		// each force ends its last page with.
		logBefore := s.Stats().WAL.FlushedBytes
		tx, err := s.Begin()
		if err != nil {
			return nil, err
		}
		if err := op.run(tx); err != nil {
			_ = tx.Abort()
			return nil, err
		}
		shadowed := tx.LOBStats().ShadowedIndexPages
		vol.ResetStats()
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		commitIO := vol.Stats()
		t.AddRow(op.name, fmt.Sprint(opBytes),
			fmtI(s.Stats().WAL.FlushedBytes-logBefore),
			fmtI(shadowed),
			fmtI(commitIO.PagesWritten))
	}

	// Crash-recovery drill: commit transactions whose data pages never
	// reach the disk, crash, reopen, and verify contents byte for byte.
	s2, vol2, logVol2, err := mkStore()
	if err != nil {
		return nil, err
	}
	o2, err := s2.Create("d", 0)
	if err != nil {
		return nil, err
	}
	base := Pattern(5, 200<<10)
	if err := o2.Append(base); err != nil {
		return nil, err
	}
	if err := s2.Checkpoint(); err != nil {
		return nil, err
	}
	model := append([]byte{}, base...)
	for i := 0; i < 10; i++ {
		tx, err := s2.Begin()
		if err != nil {
			return nil, err
		}
		data := Pattern(6+i, 2048)
		off := int64(i * 1000)
		if err := tx.Insert("d", off, data); err != nil {
			_ = tx.Abort()
			return nil, err
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		model = append(model[:off:off], append(append([]byte{}, data...), model[off:]...)...)
	}
	if err := vol2.Crash(); err != nil {
		return nil, err
	}
	if err := logVol2.Crash(); err != nil {
		return nil, err
	}
	vol2.ResetStats()
	s3, err := eos.Open(vol2, logVol2, eos.Options{})
	if err != nil {
		return nil, err
	}
	recoveryIO := vol2.Stats()
	o3, err := s3.Open("d")
	if err != nil {
		return nil, err
	}
	got, err := o3.Read(0, o3.Size())
	if err != nil {
		return nil, err
	}
	verdict := "VERIFIED"
	if !bytes.Equal(got, model) {
		verdict = "MISMATCH"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("crash drill: 10 committed txns, data forces withheld, crash, reopen: content %s", verdict),
		fmt.Sprintf("recovery I/O: %d pages read, %d written (free-space rebuild + redo + checkpoint)",
			recoveryIO.PagesRead, recoveryIO.PagesWritten))
	return t, nil
}
