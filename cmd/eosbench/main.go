// Command eosbench regenerates the experiment tables of the EOS
// reproduction (see DESIGN.md for the experiment index and EXPERIMENTS.md
// for paper-vs-measured results).
//
// Usage:
//
//	eosbench                 # run every experiment
//	eosbench -exp e5,e6      # run selected experiments
//	eosbench -list           # list experiment IDs
//	eosbench -backend file   # run on real temp-dir page files
//
// The default backend is the cost-modelled simulator, whose time column
// is deterministic modelled microseconds.  With -backend file the same
// experiments run against real file-backed volumes (pread/pwrite/
// fdatasync), and the time column becomes measured wall clock.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/eosdb/eos/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment IDs (e1..e16, see -list) or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	backend := flag.String("backend", "sim", "volume backend: sim (modelled costs) or file (real temp-dir page files)")
	dir := flag.String("dir", "", "file backend: directory for volume files (default: system temp dir)")
	flag.Parse()

	switch *backend {
	case "sim":
	case "file":
		bench.UseFileBackend = true
		bench.FileBackendDir = *dir
		defer bench.CleanupFileVolumes()
	default:
		fmt.Fprintf(os.Stderr, "eosbench: unknown backend %q (want sim or file)\n", *backend)
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []bench.Experiment
	if *exp == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "eosbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for _, e := range selected {
		start := time.Now()
		tab, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "eosbench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		if *csv {
			fmt.Printf("# %s: %s\n", tab.ID, tab.Title)
			tab.FprintCSV(os.Stdout)
			fmt.Println()
			_ = start
		} else {
			tab.Fprint(os.Stdout)
			fmt.Printf("  (%s wall clock)\n\n", time.Since(start).Round(time.Millisecond))
		}
	}
	if failed > 0 {
		bench.CleanupFileVolumes() // os.Exit skips the deferred sweep
		os.Exit(1)
	}
}
