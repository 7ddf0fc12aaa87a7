// Command eosctl manages EOS stores persisted on disk.
//
// Usage:
//
//	eosctl -store dir init [-pages N] [-pagesize N] [-threshold T] [-direct]
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
//
// The store is two page files (data.eos, log.eos) that the engine reads
// and writes in place with pread/pwrite and fdatasync.  Every command
// opens the store, which replays the write-ahead log after a crash, and
// a command that changes it checkpoints before it exits.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

func main() {
	storeDir := flag.String("store", "", "store directory")
	pages := flag.Int("pages", 65536, "init: data volume size in pages")
	pageSize := flag.Int("pagesize", 4096, "init: page size in bytes")
	threshold := flag.Int("threshold", 8, "init: default segment size threshold T")
	direct := flag.Bool("direct", false, "open the page files with O_DIRECT")
	flag.Parse()

	if *storeDir == "" || flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	args := flag.Args()[1:]
	if err := run(*storeDir, cmd, args, *pages, *pageSize, *threshold, *direct); err != nil {
		fmt.Fprintf(os.Stderr, "eosctl: %v\n", err)
		os.Exit(1)
	}
}

// openStore opens the store in dir.  A directory that holds only the
// volume images older releases kept is named as such: this build no
// longer reads them.
func openStore(dir string, direct bool) (*eos.Store, error) {
	s, err := eos.OpenAt(dir, eos.Options{DirectIO: direct})
	if errors.Is(err, fs.ErrNotExist) {
		if _, ierr := os.Stat(filepath.Join(dir, "data.img")); ierr == nil {
			return nil, fmt.Errorf("%s holds volume images (data.img, log.img) and no data.eos: "+
				"convert them with the previous release's \"eosctl -store %s migrate file\"", dir, dir)
		}
	}
	return s, err
}

func initStore(dir string, pages, pageSize, threshold int, direct bool) error {
	s, err := eos.CreateAt(dir, eos.Options{
		PageSize:  pageSize,
		DataPages: disk.PageNum(pages),
		LogPages:  disk.PageNum(pages/8 + 64),
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
	fmt.Printf("initialized store: %d pages of %d bytes, %d free data pages\n", pages, pageSize, free)
	return nil
}

func run(dir, cmd string, args []string, pages, pageSize, threshold int, direct bool) error {
	if cmd == "init" {
		return initStore(dir, pages, pageSize, threshold, direct)
	}
	s, err := openStore(dir, direct)
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
		return s.Checkpoint()

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
		return s.Checkpoint()

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
		return s.Checkpoint()

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
		return s.Checkpoint()

	case "rm":
		name, err := oneArg(args, "rm <object>")
		if err != nil {
			return err
		}
		if err := s.Destroy(name); err != nil {
			return err
		}
		fmt.Printf("destroyed %q\n", name)
		return s.Checkpoint()

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
			if u.IndexPages > 0 {
				fmt.Printf("  index fill:    %d entries in %d node pages of %d (%.1f%%)\n",
					u.IndexEntries, u.IndexPages, u.NodeCapacity, u.IndexFill()*100)
			} else {
				fmt.Printf("  index fill:    no node pages (the root holds every entry)\n")
			}
			fmt.Printf("  utilization:   %.1f%%\n", u.Utilization(s.PageSize())*100)
			pol := o.Policy()
			how := "adaptive"
			if pol.Pinned {
				how = "pinned"
			}
			fmt.Printf("  threshold T:   %d pages, %s; this window W %v of reshuffle transfers, R %v of boundary seeks\n",
				pol.Threshold, how, pol.Reshuffle, pol.Boundary)
			return nil
		}
		free, err := s.FreePages()
		if err != nil {
			return err
		}
		// Counters are since this command opened the store: recovery's own
		// checkpoint accounts for the first master write and image, and for
		// the padding of its log pages.
		st := s.Stats()
		fmt.Printf("store: page size %d, %d objects, %d free data pages, log %d bytes in use (%d bytes of padding written)\n",
			s.PageSize(), len(s.List()), free, s.LogTail(), st.WAL.PadBytes)
		w := st.WAL
		fmt.Printf("log room kept: %d bytes for the end records of %d live transactions, %d for checkpoint images; the oldest transaction pins %d bytes\n",
			w.EndReserve, w.LiveTxns, w.ImageReserve, w.Pinned)
		b := st.Barrier
		r := st.Recovery
		fmt.Printf("checkpoints: %d master writes, %d bytes of catalog image logged; open redid %d operations\n",
			b.MasterWrites, b.ImageBytes, r.Redone)
		fmt.Printf("checkpoint time: %v in all, %v of it holding the store lock; %d Begin or commit sections waited on one, for %v\n",
			b.Time, b.Locked, b.Stalls, b.StallTime)
		fmt.Printf("replaces: %d deferred to their commit, %d page runs taken from the read before\n",
			st.DeferredReplaces, st.ReplaceReadsSaved)
		fmt.Printf("bridged reads: %d requests saved, %d gap pages transferred for them\n",
			st.LOB.BridgedReads, st.LOB.BridgedGapPages)
		fmt.Printf("thresholds: %d one-page moves of adaptive objects' T\n", st.LOB.ThresholdMoves)
		l := st.LOB
		fmt.Printf("placement: %d new segments went right after the pages their update read or their object's last segment, in %d inserts, deletes and appends; %d of the others waited in the write-behind set, %d of those at its next-fit point\n",
			l.SegmentsPlaced, l.Inserts+l.Deletes+l.Appends, l.SegmentsWaiting, l.SegmentsNextFit)
		fmt.Printf("write-behind: %d pages pending (%d of them replaced), at most %d, %d runs written over the limit, %d page reads taken from memory\n",
			l.PendingPages, l.ReplacedPending, l.PendingPagesHigh, l.PendingEvictions, l.PendingReads)
		fmt.Printf("replaced pages: %d left pending by commits, %d of them over a pending page, %d written by a checkpoint, %d over the limit\n",
			l.ReplacedPages, l.ReplacedAbsorbed, l.ReplacedCheckpointed, l.ReplacedEvicted)
		return nil

	case "cp":
		if len(args) != 2 {
			return fmt.Errorf("usage: cp <src> <dst>")
		}
		if err := s.CopyObject(args[0], args[1]); err != nil {
			return err
		}
		fmt.Printf("copied %q to %q\n", args[0], args[1])
		return s.Checkpoint()

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
		return s.Checkpoint()

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
