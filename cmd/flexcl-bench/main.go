// Command flexcl-bench regenerates every table and figure of the paper's
// evaluation (§4) on the simulated substrate. See EXPERIMENTS.md for the
// experiment index and the paper-vs-measured record.
//
// Usage:
//
//	flexcl-bench -exp table2        # Table 2 (Rodinia, 45 kernels)
//	flexcl-bench -exp polybench     # §4.2 PolyBench accuracy
//	flexcl-bench -exp fig4          # Figure 4 series (hotspot3D, nn)
//	flexcl-bench -exp robustness    # §4.2 KU060 robustness
//	flexcl-bench -exp dsequality    # §4.3 exploration quality/speed
//	flexcl-bench -exp searchcmp     # §4.3 search comparison
//	flexcl-bench -exp table1        # Table 1 memory pattern latencies
//	flexcl-bench -exp ablation      # DESIGN.md §5 ablations
//	flexcl-bench -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (table1|table2|polybench|fig4|robustness|dsequality|searchcmp|ablation|all)")
		maxKernels = flag.Int("max-kernels", 0, "limit kernels per suite (0 = all)")
		simGroups  = flag.Int("sim-groups", 8, "work-groups simulated per design point")
		workers    = flag.Int("workers", 0, "exploration worker goroutines per kernel (0 = all cores, 1 = serial; results are identical)")
		csvDir     = flag.String("csv", "", "also write tables/series as CSV/TSV into this directory")
	)
	flag.Parse()

	writeCSV := func(name, content string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "flexcl-bench:", err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "flexcl-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("(wrote %s)\n", path)
	}

	cfg := experiments.Config{MaxKernels: *maxKernels, SimMaxGroups: *simGroups, Workers: *workers}
	type experiment struct {
		id  string
		run func() error
	}
	var exps []experiment
	add := func(id string, run func() error) { exps = append(exps, experiment{id, run}) }

	add("table1", func() error {
		t := experiments.Table1(cfg)
		t.Write(os.Stdout)
		writeCSV("table1.csv", t.CSV())
		return nil
	})
	add("table2", func() error {
		t, sum, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		t.Write(os.Stdout)
		writeCSV("table2.csv", t.CSV())
		fmt.Printf("\nRodinia summary: FlexCL avg |err| %.1f%% (paper: 9.5%%), "+
			"SDAccel avg |err| %.1f%% (paper: 30.4–84.9%%), baseline failure rate %.0f%% (paper: ~42%%)\n",
			sum.AvgFlexCLErr, sum.AvgSDAccelErr, sum.BaselineFailRate*100)
		fmt.Printf("exploration: model %v vs simulated system run %v (%.0fx)\n",
			sum.TotalModelTime, sum.TotalSimTime,
			float64(sum.TotalSimTime)/float64(sum.TotalModelTime))
		return nil
	})
	add("polybench", func() error {
		t, sum, err := experiments.PolybenchAccuracy(cfg)
		if err != nil {
			return err
		}
		t.Write(os.Stdout)
		writeCSV("polybench.csv", t.CSV())
		fmt.Printf("\nPolyBench summary: FlexCL avg |err| %.1f%% (paper: 8.7%%)\n", sum.AvgFlexCLErr)
		return nil
	})
	add("fig4", func() error {
		series, err := experiments.Fig4(cfg)
		if err != nil {
			return err
		}
		for _, name := range []string{"hotspot3D", "nn"} {
			series[name].Write(os.Stdout)
			writeCSV("fig4_"+name+".tsv", series[name].String())
			fmt.Println()
		}
		return nil
	})
	add("robustness", func() error {
		rows, err := experiments.Robustness(cfg)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("%-24s avg |err| %.1f%% on KU060 (paper: HotSpot 9.7%%, pathfinder 13.6%%)\n",
				r.Kernel, r.AvgErr)
		}
		return nil
	})
	add("dsequality", func() error {
		r, err := experiments.DSEQuality(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Printf("kernels %d: model-selected design within %.1f%% of optimum (paper: 2.1%%)\n",
			r.Kernels, r.AvgGap)
		fmt.Printf("speedup of selected over unoptimized design: %.0fx (paper: 273x)\n", r.AvgSpeedup)
		fmt.Printf("model evaluation %.0fx faster than simulated system run "+
			"(paper: >10,000x vs real synthesis+P&R)\n", r.SpeedupRate)
		return nil
	})
	add("searchcmp", func() error {
		r, err := experiments.SearchComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("PolyBench kernels %d: FlexCL exhaustive optimal %.0f%% (paper: 96%%), "+
			"heuristic [16] optimal %.0f%% (paper: 12%%)\n",
			r.Kernels, r.FlexCLOptimal*100, r.HeuristicOptimal*100)
		return nil
	})
	add("ablation", func() error {
		rows, err := experiments.AblationStudy(cfg, nil)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("%-28s avg |err| %6.1f%%\n", r.Name, r.AvgErr)
		}
		return nil
	})

	ids := make([]string, len(exps))
	known := *exp == "all"
	for i, e := range exps {
		ids[i] = e.id
		known = known || *exp == e.id
	}
	if !known {
		fmt.Fprintf(os.Stderr, "flexcl-bench: unknown -exp %q (want %s or all)\n", *exp, strings.Join(ids, ", "))
		os.Exit(2)
	}
	for _, e := range exps {
		if *exp != "all" && *exp != e.id {
			continue
		}
		fmt.Printf("==== %s ====\n", e.id)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "flexcl-bench %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
