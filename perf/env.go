package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

const pageSize = 4096

// simGarbageBudget is how much the heap may grow between collections
// while sim volumes inflate it.
const simGarbageBudget = 64 << 20

// backend says where a run keeps its volumes.
type backend struct {
	// sim keeps pages in memory (disk.NewVolume): the smoke test's
	// backend, whose counts repeat and whose Crash drops unforced pages.
	sim bool
	// dir holds the volume files of the file backend.
	dir string
	// direct asks for O_DIRECT; openVolumes clears it, once and with a
	// warning, when the filesystem refuses.
	direct bool
	// shadow opens file volumes with CrashShadow, so Crash discards
	// every unforced page (the traced durability check).
	shadow bool
	// spare holds the sim volumes of the last instance released, for the
	// next one of the same geometry to use again (see release).
	spare *volumes
}

// volumes are the two devices of one store.  The harness owns them: the
// store gets data and log (traced or not), statistics come from the raw
// devices underneath.
type volumes struct {
	data, log       disk.Device
	rawData, rawLog disk.Device
}

func (v *volumes) close() {
	_ = v.rawData.Close()
	_ = v.rawLog.Close()
}

// release gives an instance's volumes back.  File volumes are closed.
// Sim volumes are kept for the next instance: a fresh one is memory no
// page of which has been touched, and the page faults of its first use —
// which on this sandbox cost more, and less repeatably, than formatting
// and populating a store — would otherwise land in setup_s.
func (b *backend) release(v *volumes) {
	if !b.sim {
		v.close()
		return
	}
	b.spare = &volumes{rawData: v.rawData, rawLog: v.rawLog}
}

// reuse readies the spare sim volumes for a new store, if their geometry
// fits.  The data volume needs nothing: Format rewrites the header, the
// catalog and the space directories, and whatever else is there is
// unreferenced.  The log must read empty, or recovery would find the
// previous store's records.
func (b *backend) reuse(dataPages, logPages disk.PageNum) (*volumes, error) {
	v := b.spare
	b.spare = nil
	if v == nil || v.rawData.NumPages() != dataPages || v.rawLog.NumPages() != logPages {
		return nil, nil
	}
	zeros := make([]byte, 256*pageSize)
	for p := disk.PageNum(0); p < logPages; p += 256 {
		n := min(256, int(logPages-p))
		if err := v.rawLog.WritePages(p, n, zeros[:n*pageSize]); err != nil {
			return nil, fmt.Errorf("clear log volume: %w", err)
		}
	}
	for _, d := range []disk.Device{v.rawData, v.rawLog} {
		d.ClearFault()
		if err := d.ForceAll(); err != nil {
			return nil, fmt.Errorf("reuse volume: %w", err)
		}
		d.ResetStats()
	}
	return v, nil
}

// crash drops what a power cut would drop on both devices.
func (v *volumes) crash() error {
	if err := v.rawData.Crash(); err != nil {
		return fmt.Errorf("crash data volume: %w", err)
	}
	if err := v.rawLog.Crash(); err != nil {
		return fmt.Errorf("crash log volume: %w", err)
	}
	return nil
}

// openVolumes creates fresh data and log volumes, wrapping them for
// tracing when rec is set.
func (b *backend) openVolumes(dataPages, logPages disk.PageNum, rec *recorder) (*volumes, error) {
	v, err := b.reuse(dataPages, logPages)
	if err != nil {
		return nil, err
	}
	if v == nil {
		data, err := b.create("data.eos", dataPages)
		if err != nil {
			return nil, err
		}
		log, err := b.create("log.eos", logPages)
		if err != nil {
			_ = data.Close()
			return nil, err
		}
		v = &volumes{rawData: data, rawLog: log}
	}
	v.data, v.log = v.rawData, v.rawLog
	if b.sim {
		// A sim volume is its whole capacity (twice: current and durable
		// image) on the Go heap, which would let the collector wait for
		// as much garbage again before it runs.  The engine would then
		// allocate from never-touched memory all the time, and in this
		// sandbox the page faults that costs vary run to run by more
		// than the engine's own work.  Pace the collector by a fixed
		// garbage budget instead, as with the store's own small heap.
		live := 2 * int64(dataPages+logPages) * pageSize
		debug.SetGCPercent(int(max(1, simGarbageBudget*100/live)))
	}
	if rec != nil {
		v.data = &tracedDevice{Device: v.rawData, dev: 0, rec: rec}
		v.log = &tracedDevice{Device: v.rawLog, dev: 1, rec: rec}
	}
	return v, nil
}

func (b *backend) create(name string, pages disk.PageNum) (disk.Device, error) {
	if b.sim {
		return disk.NewVolume(pageSize, pages, disk.DefaultCostModel())
	}
	path := filepath.Join(b.dir, name)
	opts := disk.FileOptions{Direct: b.direct, CrashShadow: b.shadow}
	v, err := disk.CreateFileVolume(path, pageSize, pages, opts)
	if err != nil && b.direct {
		fmt.Fprintf(os.Stderr, "warning: O_DIRECT refused in %s (%v); falling back to buffered I/O\n", b.dir, err)
		b.direct = false
		opts.Direct = false
		v, err = disk.CreateFileVolume(path, pageSize, pages, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("create volume %s: %w", path, err)
	}
	return v, nil
}

// environment is recorded with every result file.
type environment struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Filesystem string `json:"filesystem"`
	DirectIO   bool   `json:"direct_io"`
	Backend    string `json:"backend"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Repeats    int    `json:"repeats"`
}

func captureEnvironment(b *backend, seed int64, seconds, repeats int) environment {
	env := environment{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Filesystem: "memory",
		DirectIO:   b.direct,
		Backend:    "sim",
		Seed:       seed,
		Seconds:    seconds,
		Repeats:    repeats,
	}
	if !b.sim {
		env.Backend = "file"
		env.Filesystem = filesystemOf(b.dir)
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.GitSHA = s.Value
			}
		}
	}
	return env
}

// filesystemOf names the filesystem type holding dir, from the longest
// mount point in /proc/mounts that is a prefix of it.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, fields[2]
		}
	}
	return fs
}

// storeOptions are the eos.Options a workload asks for.  The catalog gets
// one page per object plus one: a fragmented object's descriptor can fill
// a page, and an overflowing catalog fails commits.  With one client the
// pool is a single shard, which write-back flushes in page order; sharded,
// the flusher goroutines interleave and the devices' seek counts stop
// repeating.
func storeOptions(w *workload, sz sizing) eos.Options {
	opts := eos.Options{
		PoolFrames:   sz.poolFrames,
		CatalogPages: sz.catalogObjects + 1,
	}
	if w.clients == 1 {
		opts.PoolShards = 1
	}
	return opts
}
