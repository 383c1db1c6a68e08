// Command s2c2-exp regenerates the paper's evaluation artifacts (Figures
// 1–13, the §6.1 predictor table, and the ablation studies) on the
// simulated cluster substrate.
//
// Usage:
//
//	s2c2-exp                  # run every experiment
//	s2c2-exp -exp fig8        # run one experiment
//	s2c2-exp -list            # list experiment IDs
//	s2c2-exp -scale 4         # scale problem sizes toward paper dims
//	s2c2-exp -iters 15        # iterations per job (paper: 15)
//	s2c2-exp -lstm            # use the LSTM forecaster (slower)
//	s2c2-exp -csv traces.csv  # also export the Figure 2 speed traces
//	s2c2-exp -backends        # print available/dispatched kernel backends
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/coded-computing/s2c2/internal/experiments"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/trace"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment ID to run (default: all)")
		list  = flag.Bool("list", false, "list experiment IDs and exit")
		scale = flag.Int("scale", 1, "problem-size multiplier")
		iters = flag.Int("iters", 15, "iterations per job")
		seed  = flag.Int64("seed", 42, "master seed")
		lstm  = flag.Bool("lstm", false, "use the LSTM speed predictor")
		csv   = flag.String("csv", "", "export Figure 2 speed traces to this CSV file")
		backs = flag.Bool("backends", false, "print available and dispatched kernel backends and exit")
	)
	flag.Parse()

	if *backs {
		// CI capability probe: lanes that force S2C2_KERNEL_BACKEND check
		// the backend is actually available on the runner before running.
		fmt.Printf("available=%s dispatched=%s\n", strings.Join(kernel.Backends(), ","), kernel.ActiveBackend())
		return
	}

	ids := make([]string, 0, len(experiments.Registry))
	for id := range experiments.Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			fatal(err)
		}
		tr := trace.DigitalOceanLike(100, 100**scale, *seed)
		// Close even when the write fails, and report both errors.
		if err := errors.Join(tr.WriteCSV(f), f.Close()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csv)
	}

	cfg := experiments.Config{Scale: *scale, Iterations: *iters, Seed: *seed, UseLSTM: *lstm}
	run := ids
	if *exp != "" {
		if _, ok := experiments.Registry[*exp]; !ok {
			fatal(fmt.Errorf("unknown experiment %q (use -list)", *exp))
		}
		run = []string{*exp}
	}
	for _, id := range run {
		tables, err := experiments.Registry[id](cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s2c2-exp:", err)
	os.Exit(1)
}
