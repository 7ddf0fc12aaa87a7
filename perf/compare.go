package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// compareMain implements `perf compare A.json B.json`: for every workload
// and end-to-end metric it prints both values, the relative change, the
// metric's bound and a verdict.  It exits non-zero when B is worse than A
// by more than the bound anywhere.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perf compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perf compare A.json B.json")
		return 2
	}
	a, err := readResults(fs.Arg(0))
	if err == nil {
		var b *resultFile
		if b, err = readResults(fs.Arg(1)); err == nil {
			var regressed bool
			if regressed, err = compareResults(out, a, b); err == nil && regressed {
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf compare: %v\n", err)
		return 2
	}
	return 0
}

func compareResults(out io.Writer, a, b *resultFile) (regressed bool, err error) {
	if a.Environment.DirectIO != b.Environment.DirectIO || a.Environment.Backend != b.Environment.Backend {
		return false, fmt.Errorf("runs are not comparable: direct_io %v on %s against direct_io %v on %s",
			a.Environment.DirectIO, a.Environment.Backend, b.Environment.DirectIO, b.Environment.Backend)
	}
	fmt.Fprintf(out, "%-17s %-19s %14s %14s %9s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, w := range workloads {
		oa, ob := a.Workloads[w.name], b.Workloads[w.name]
		if oa == nil || ob == nil {
			continue
		}
		for _, d := range endToEnd {
			x, y := oa.EndToEnd[d.Name].Value, ob.EndToEnd[d.Name].Value
			change := (y - x) / x
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict, regressed = "regressed", true
			case worse < -d.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(out, "%-17s %-19s %14.6g %14.6g %+8.2f%% %5.0f%%  %s\n",
				w.name, d.Name, x, y, change*100, d.Bound*100, verdict)
		}
		if ob.Failed > oa.Failed || (oa.Correct && !ob.Correct) {
			fmt.Fprintf(out, "%-17s failed ops %d -> %d, correct %v -> %v  regressed\n",
				w.name, oa.Failed, ob.Failed, oa.Correct, ob.Correct)
			regressed = true
		}
	}
	return regressed, nil
}
