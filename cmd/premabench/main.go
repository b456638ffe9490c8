// Command premabench regenerates the paper's evaluation: every figure and
// table has a registered experiment that reruns its workloads against the
// simulator and prints the same rows/series the paper reports.
//
// Usage:
//
//	premabench                    # run every experiment
//	premabench -exp fig12,fig13   # run selected experiments
//	premabench -list              # list experiment IDs
//	premabench -runs 10           # override the per-config run count
//	premabench -csv results/      # additionally write CSV files
//	premabench -parallel 1        # force sequential execution
//
// Experiments execute through prema.Suite's concurrent engine; -parallel
// bounds its worker pool (default: GOMAXPROCS). Output is byte-identical
// for every worker count. Overlapping sweeps (the NP-FCFS baseline, the
// Static-*/Dynamic-* configurations shared between fig12 and fig15, ...)
// resolve through an in-memory simulation-result cache shared across all
// selected experiments; cached and fresh results are bit-identical.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	prema "repro"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		expFlag  = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		runs     = flag.Int("runs", 0, "simulation runs per configuration (default 25)")
		seed     = flag.Uint64("seed", 0, "workload seed (default: suite default)")
		csvDir   = flag.String("csv", "", "directory to write per-table CSV files")
		parallel = flag.Int("parallel", 0,
			"simulation worker-pool size (0 = GOMAXPROCS, 1 = sequential; results identical)")
	)
	flag.Parse()

	suite, err := prema.NewSuite(prema.SuiteOptions{
		Runs:     *runs,
		Seed:     *seed,
		Parallel: *parallel,
	})
	if err != nil {
		fatal(err)
	}

	if *list {
		for _, e := range suite.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	known := map[string]bool{}
	var all []string
	for _, e := range suite.Experiments() {
		known[e.ID] = true
		all = append(all, e.ID)
	}
	var selected []string
	if *expFlag != "" {
		// Surface typos before any experiment runs.
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				fatal(fmt.Errorf("unknown experiment %q (known: %v)", id, all))
			}
			selected = append(selected, id)
		}
	} else {
		selected = all
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	for _, id := range selected {
		start := time.Now()
		results, err := suite.Run(id)
		if err != nil {
			fatal(err)
		}
		for _, res := range results {
			for _, t := range res.Tables {
				fmt.Println(t.Text)
				if *csvDir != "" {
					path := filepath.Join(*csvDir, t.ID+".csv")
					if err := os.WriteFile(path, []byte(t.CSV), 0o644); err != nil {
						fatal(err)
					}
				}
			}
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "premabench:", err)
	os.Exit(1)
}
