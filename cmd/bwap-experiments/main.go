// bwap-experiments regenerates the tables and figures of the BWAP paper's
// evaluation on the simulated machines.
//
// Usage:
//
//	bwap-experiments -all              # everything (minutes)
//	bwap-experiments -fig 1a,2,4       # selected figures
//	bwap-experiments -table 1,2        # selected tables
//	bwap-experiments -fig 2 -quick     # reduced seeds/budgets (seconds)
//
// Output is plain text in the layout of the corresponding paper artifact;
// EXPERIMENTS.md archives a full run and compares it against the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bwap/internal/experiments"
)

func main() {
	figs := flag.String("fig", "", "comma-separated figures: 1a,1b,2,3a,3b,3c,3d,4,ovh,abl,dyn,fleet,replay,chaos (beyond-paper fleet scenarios)")
	tables := flag.String("table", "", "comma-separated tables: 1,2")
	all := flag.Bool("all", false, "run every figure and table")
	quick := flag.Bool("quick", false, "reduced seeds, work volumes and search budgets")
	parallel := flag.Int("parallel", 0, "worker pool size for experiment cells (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()
	experiments.SetMaxParallel(*parallel)

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		if f = strings.TrimSpace(f); f != "" {
			want["fig"+f] = true
		}
	}
	for _, t := range strings.Split(*tables, ",") {
		if t = strings.TrimSpace(t); t != "" {
			want["table"+t] = true
		}
	}
	if *all {
		for _, id := range []string{"fig1a", "fig1b", "table1", "fig2", "fig3a", "fig3b", "fig3c", "fig3d", "table2", "fig4", "figovh", "figabl", "figdyn", "figfleet", "figreplay", "figchaos"} {
			want[id] = true
		}
	}
	if len(want) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	machA := experiments.MachineA()
	machB := experiments.MachineB()
	if *quick {
		machA, machB = machA.Quick(), machB.Quick()
	}

	run := func(id string, f func() (fmt.Stringer, error)) {
		if !want[id] {
			return
		}
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	run("fig1a", func() (fmt.Stringer, error) { return asStringer(experiments.RunFig1a(machA).Render()), nil })
	run("fig1b", func() (fmt.Stringer, error) {
		f, err := experiments.RunFig1b(machA)
		return render(f, err)
	})
	run("table1", func() (fmt.Stringer, error) {
		t, err := experiments.RunTable1(machB)
		return render(t, err)
	})
	run("fig2", func() (fmt.Stringer, error) {
		var out strings.Builder
		for i, nw := range []int{1, 2, 4} {
			fig, err := experiments.RunCoScheduled(machA, nw, fmt.Sprintf("Figure 2%c", 'a'+i))
			if err != nil {
				return nil, err
			}
			out.WriteString(fig.Render())
			out.WriteString("\n")
		}
		return asStringer(out.String()), nil
	})
	run("fig3a", func() (fmt.Stringer, error) {
		f, err := experiments.RunCoScheduled(machB, 1, "Figure 3a")
		return render(f, err)
	})
	run("fig3b", func() (fmt.Stringer, error) {
		f, err := experiments.RunCoScheduled(machB, 2, "Figure 3b")
		return render(f, err)
	})
	run("fig3c", func() (fmt.Stringer, error) {
		f, err := experiments.RunStandalone(machA, "Figure 3c")
		return render(f, err)
	})
	run("fig3d", func() (fmt.Stringer, error) {
		f, err := experiments.RunStandalone(machB, "Figure 3d")
		return render(f, err)
	})
	run("table2", func() (fmt.Stringer, error) {
		var out strings.Builder
		ta, err := experiments.RunTable2(machA, []int{1, 2, 4})
		if err != nil {
			return nil, err
		}
		out.WriteString(ta.Render())
		tb, err := experiments.RunTable2(machB, []int{1, 2})
		if err != nil {
			return nil, err
		}
		out.WriteString("\n")
		out.WriteString(tb.Render())
		return asStringer(out.String()), nil
	})
	run("fig4", func() (fmt.Stringer, error) {
		f, err := experiments.RunFig4(machA, []int{1, 2})
		return render(f, err)
	})
	run("figovh", func() (fmt.Stringer, error) {
		o, err := experiments.RunOverhead(machA, 2)
		return render(o, err)
	})
	run("figabl", func() (fmt.Stringer, error) {
		a, err := experiments.RunKernelVsUserAblation(machA, 2)
		return render(a, err)
	})
	run("figdyn", func() (fmt.Stringer, error) {
		d, err := experiments.RunDynamicExtension(machB)
		return render(d, err)
	})
	run("figfleet", func() (fmt.Stringer, error) {
		f, err := experiments.RunFleet(*quick)
		return render(f, err)
	})
	run("figreplay", func() (fmt.Stringer, error) {
		r, err := experiments.RunReplay(*quick)
		return render(r, err)
	})
	run("figchaos", func() (fmt.Stringer, error) {
		c, err := experiments.RunChaos(*quick)
		return render(c, err)
	})
}

type asStringer string

func (s asStringer) String() string { return string(s) }

type renderer interface{ Render() string }

func render(r renderer, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return asStringer(r.Render()), nil
}
