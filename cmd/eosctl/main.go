// Command eosctl manages EOS stores persisted on disk.
//
// Usage:
//
//	eosctl -store dir [-backend img|file] init [-pages N] [-pagesize N] [-threshold T] [-direct]
//	eosctl -store dir ls
//	eosctl -store dir put <object>            # bytes from stdin
//	eosctl -store dir get <object>            # bytes to stdout
//	eosctl -store dir append <object>         # bytes from stdin
//	eosctl -store dir insert <object> <off>   # bytes from stdin
//	eosctl -store dir delete <object> <off> <n>
//	eosctl -store dir rm <object>
//	eosctl -store dir cp <src> <dst>
//	eosctl -store dir compact <object>
//	eosctl -store dir stat [object]
//	eosctl -store dir dump <object>           # physical segment map
//	eosctl -store dir fsck
//	eosctl -store dir migrate img|file        # convert between backends
//
// Two persistence backends exist.  The default, img, keeps the store as
// simulator volume images (data.img, log.img): every command loads the
// images, performs the operation inside a transaction, checkpoints, and
// saves the images back.  The file backend keeps real page files
// (data.eos, log.eos) that the engine reads and writes in place with
// pread/pwrite and fdatasync — no load/save step, and crash recovery
// replays the write-ahead log on open.  "migrate" converts a store from
// one backend to the other in the same directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

func main() {
	storeDir := flag.String("store", "", "store directory")
	backend := flag.String("backend", "img", "persistence backend: img (simulator images) or file (real page files)")
	pages := flag.Int("pages", 65536, "init: data volume size in pages")
	pageSize := flag.Int("pagesize", 4096, "init: page size in bytes")
	threshold := flag.Int("threshold", 8, "init: default segment size threshold T")
	direct := flag.Bool("direct", false, "file backend: open volumes with O_DIRECT")
	flag.Parse()

	if *storeDir == "" || flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	args := flag.Args()[1:]
	if err := run(*storeDir, *backend, cmd, args, *pages, *pageSize, *threshold, *direct); err != nil {
		fmt.Fprintf(os.Stderr, "eosctl: %v\n", err)
		os.Exit(1)
	}
}

func dataPath(dir string) string { return filepath.Join(dir, "data.img") }
func logPath(dir string) string  { return filepath.Join(dir, "log.img") }

// filePaths are the file-backend volume names (matching eos.CreateAt).
func fileDataPath(dir string) string { return filepath.Join(dir, "data.eos") }
func fileLogPath(dir string) string  { return filepath.Join(dir, "log.eos") }

// openStore loads the store for one command and returns it with a save
// function the mutating commands call: the img backend checkpoints and
// writes the images back, the file backend checkpoints in place (the
// page files are already the store).
func openStore(dir, backend string, direct bool) (*eos.Store, func() error, error) {
	switch backend {
	case "img":
		vol, err := disk.LoadVolume(dataPath(dir), disk.DefaultCostModel())
		if err != nil {
			return nil, nil, err
		}
		logVol, err := disk.LoadVolume(logPath(dir), disk.DefaultCostModel())
		if err != nil {
			return nil, nil, err
		}
		s, err := eos.Open(vol, logVol, eos.Options{})
		if err != nil {
			return nil, nil, err
		}
		save := func() error {
			if err := s.Checkpoint(); err != nil {
				return err
			}
			if err := vol.SaveFile(dataPath(dir)); err != nil {
				return err
			}
			return logVol.SaveFile(logPath(dir))
		}
		return s, save, nil
	case "file":
		s, err := eos.OpenAt(dir, eos.Options{Backend: eos.BackendFile, DirectIO: direct})
		if err != nil {
			return nil, nil, err
		}
		return s, s.Checkpoint, nil
	default:
		return nil, nil, fmt.Errorf("unknown backend %q (want img or file)", backend)
	}
}

func initStore(dir, backend string, pages, pageSize, threshold int, direct bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	logPages := pages/8 + 64
	switch backend {
	case "img":
		vol, err := disk.NewVolume(pageSize, disk.PageNum(pages), disk.DefaultCostModel())
		if err != nil {
			return err
		}
		logVol, err := disk.NewVolume(pageSize, disk.PageNum(logPages), disk.DefaultCostModel())
		if err != nil {
			return err
		}
		s, err := eos.Format(vol, logVol, eos.Options{Threshold: threshold})
		if err != nil {
			return err
		}
		if err := s.Checkpoint(); err != nil {
			return err
		}
		if err := vol.SaveFile(dataPath(dir)); err != nil {
			return err
		}
		if err := logVol.SaveFile(logPath(dir)); err != nil {
			return err
		}
		free, _ := s.FreePages()
		fmt.Printf("initialized store: %d pages of %d bytes, %d free data pages\n", pages, pageSize, free)
		return nil
	case "file":
		s, err := eos.CreateAt(dir, eos.Options{
			Backend:   eos.BackendFile,
			PageSize:  pageSize,
			DataPages: disk.PageNum(pages),
			LogPages:  disk.PageNum(logPages),
			DirectIO:  direct,
			Threshold: threshold,
		})
		if err != nil {
			return err
		}
		free, _ := s.FreePages()
		if err := s.Close(); err != nil {
			return err
		}
		fmt.Printf("initialized file-backed store: %d pages of %d bytes, %d free data pages\n", pages, pageSize, free)
		return nil
	default:
		return fmt.Errorf("unknown backend %q (want img or file)", backend)
	}
}

// migrate converts the store in dir between the two backends by copying
// pages through the disk.Device interface.
func migrate(dir, target string, direct bool) error {
	switch target {
	case "file":
		for _, pair := range [][2]string{
			{dataPath(dir), fileDataPath(dir)},
			{logPath(dir), fileLogPath(dir)},
		} {
			src, err := disk.LoadVolume(pair[0], disk.DefaultCostModel())
			if err != nil {
				return err
			}
			fv, err := disk.MigrateToFile(src, pair[1], disk.FileOptions{Direct: direct})
			if err != nil {
				return err
			}
			if err := fv.Close(); err != nil {
				return err
			}
			fmt.Printf("migrated %s -> %s\n", pair[0], pair[1])
		}
		return nil
	case "img":
		for _, pair := range [][2]string{
			{fileDataPath(dir), dataPath(dir)},
			{fileLogPath(dir), logPath(dir)},
		} {
			src, err := disk.OpenFileVolume(pair[0], disk.FileOptions{})
			if err != nil {
				return err
			}
			sim, err := disk.MigrateToSim(src, disk.DefaultCostModel())
			if err != nil {
				_ = src.Close()
				return err
			}
			if err := src.Close(); err != nil {
				return err
			}
			if err := sim.SaveFile(pair[1]); err != nil {
				return err
			}
			fmt.Printf("migrated %s -> %s\n", pair[0], pair[1])
		}
		return nil
	default:
		return fmt.Errorf("usage: migrate img|file")
	}
}

func run(dir, backend, cmd string, args []string, pages, pageSize, threshold int, direct bool) error {
	if cmd == "init" {
		return initStore(dir, backend, pages, pageSize, threshold, direct)
	}
	if cmd == "migrate" {
		target, err := oneArg(args, "migrate img|file")
		if err != nil {
			return err
		}
		return migrate(dir, target, direct)
	}

	s, save, err := openStore(dir, backend, direct)
	if err != nil {
		return err
	}

	switch cmd {
	case "ls":
		for _, name := range s.List() {
			o, err := s.Open(name)
			if err != nil {
				return err
			}
			fmt.Printf("%-30s %12d bytes\n", name, o.Size())
		}
		return nil

	case "put":
		name, err := oneArg(args, "put <object>")
		if err != nil {
			return err
		}
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		o, err := s.Create(name, 0)
		if err != nil {
			return err
		}
		if err := o.AppendWithHint(data, int64(len(data))); err != nil {
			return err
		}
		fmt.Printf("stored %q: %d bytes\n", name, len(data))
		return save()

	case "get":
		name, err := oneArg(args, "get <object>")
		if err != nil {
			return err
		}
		o, err := s.Open(name)
		if err != nil {
			return err
		}
		data, err := o.Read(0, o.Size())
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err

	case "append":
		name, err := oneArg(args, "append <object>")
		if err != nil {
			return err
		}
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		o, err := s.Open(name)
		if err != nil {
			return err
		}
		if err := o.Append(data); err != nil {
			return err
		}
		fmt.Printf("appended %d bytes to %q (now %d)\n", len(data), name, o.Size())
		return save()

	case "insert":
		if len(args) != 2 {
			return fmt.Errorf("usage: insert <object> <offset>")
		}
		off, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		o, err := s.Open(args[0])
		if err != nil {
			return err
		}
		if err := o.Insert(off, data); err != nil {
			return err
		}
		fmt.Printf("inserted %d bytes at %d of %q (now %d)\n", len(data), off, args[0], o.Size())
		return save()

	case "delete":
		if len(args) != 3 {
			return fmt.Errorf("usage: delete <object> <offset> <n>")
		}
		off, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return err
		}
		o, err := s.Open(args[0])
		if err != nil {
			return err
		}
		if err := o.Delete(off, n); err != nil {
			return err
		}
		fmt.Printf("deleted %d bytes at %d of %q (now %d)\n", n, off, args[0], o.Size())
		return save()

	case "rm":
		name, err := oneArg(args, "rm <object>")
		if err != nil {
			return err
		}
		if err := s.Destroy(name); err != nil {
			return err
		}
		fmt.Printf("destroyed %q\n", name)
		return save()

	case "stat":
		if len(args) == 1 {
			o, err := s.Open(args[0])
			if err != nil {
				return err
			}
			u, err := o.Usage()
			if err != nil {
				return err
			}
			fmt.Printf("object %q\n", args[0])
			fmt.Printf("  size:          %d bytes\n", u.DataBytes)
			fmt.Printf("  segments:      %d (min %d, max %d pages)\n", u.SegmentCount, u.MinSegmentPgs, u.MaxSegmentPgs)
			fmt.Printf("  data pages:    %d\n", u.SegmentPages)
			fmt.Printf("  index pages:   %d (tree height %d)\n", u.IndexPages, u.TreeHeight)
			fmt.Printf("  utilization:   %.1f%%\n", u.Utilization(s.PageSize())*100)
			fmt.Printf("  threshold T:   %d pages\n", o.Threshold())
			return nil
		}
		free, err := s.FreePages()
		if err != nil {
			return err
		}
		// Counters are since this command opened the store: recovery's own
		// checkpoint accounts for the first compaction and one padded log page.
		st := s.Stats()
		fmt.Printf("store: page size %d, %d objects, %d free data pages, log %d bytes (%d bytes of padding written)\n",
			s.PageSize(), len(s.List()), free, s.LogTail(), st.WAL.PadBytes)
		b := st.Barrier
		fmt.Printf("barriers: %d catalog deltas, %d compactions, %d catalog pages, %d header writes, %d directory pages skipped\n",
			b.CatalogDeltaWrites, b.CatalogCompactions, b.CatalogPagesWritten, b.HeaderWrites, b.DirPagesSkipped)
		fmt.Printf("replaces: %d deferred to a later log force, %d of them applied early, %d page runs taken from the read before\n",
			st.DeferredReplaces, st.EarlyReplaceApplies, st.ReplaceReadsSaved)
		fmt.Printf("bridged reads: %d requests saved, %d gap pages transferred for them\n",
			st.LOB.BridgedReads, st.LOB.BridgedGapPages)
		return nil

	case "cp":
		if len(args) != 2 {
			return fmt.Errorf("usage: cp <src> <dst>")
		}
		if err := s.CopyObject(args[0], args[1]); err != nil {
			return err
		}
		fmt.Printf("copied %q to %q\n", args[0], args[1])
		return save()

	case "compact":
		name, err := oneArg(args, "compact <object>")
		if err != nil {
			return err
		}
		o, err := s.Open(name)
		if err != nil {
			return err
		}
		before, err := o.Usage()
		if err != nil {
			return err
		}
		if err := o.Compact(); err != nil {
			return err
		}
		after, err := o.Usage()
		if err != nil {
			return err
		}
		fmt.Printf("compacted %q: %d -> %d segments, %d -> %d index pages\n",
			name, before.SegmentCount, after.SegmentCount, before.IndexPages, after.IndexPages)
		return save()

	case "dump":
		name, err := oneArg(args, "dump <object>")
		if err != nil {
			return err
		}
		o, err := s.Open(name)
		if err != nil {
			return err
		}
		segs, err := o.Segments()
		if err != nil {
			return err
		}
		fmt.Printf("object %q: %d bytes in %d segments (page size %d)\n",
			name, o.Size(), len(segs), s.PageSize())
		fmt.Printf("  %-4s %12s %10s %12s %7s %s\n", "#", "logical off", "bytes", "start page", "pages", "fill")
		for i, sg := range segs {
			fill := float64(sg.Bytes) / (float64(sg.Pages) * float64(s.PageSize()))
			fmt.Printf("  %-4d %12d %10d %12d %7d %.1f%%\n",
				i, sg.LogicalOff, sg.Bytes, sg.StartPage, sg.Pages, fill*100)
		}
		return nil

	case "fsck":
		if err := s.Check(); err != nil {
			return fmt.Errorf("check failed: %w", err)
		}
		if err := s.CheckNoLeaks(); err != nil {
			return fmt.Errorf("leak check failed: %w", err)
		}
		fmt.Println("buddy directories, object trees, page accounting: OK")
		return nil
	}
	return fmt.Errorf("unknown command %q", cmd)
}

func oneArg(args []string, usage string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("usage: %s", usage)
	}
	return args[0], nil
}
