// Command flaskbench regenerates every figure of the paper's
// evaluation (§VI) plus this reproduction's extension experiments, on
// the deterministic discrete-event simulator.
//
//	flaskbench -exp fig3            # paper Figure 3
//	flaskbench -exp fig4            # paper Figure 4
//	flaskbench -exp all             # everything
//	flaskbench -exp fig3 -quick     # reduced sweep for smoke runs
//
// It is a shell over the table lab.Experiments (internal/lab/table.go):
// a row there is an -exp name here, and owns its scales, its table and
// its gate. flaskbench runs the selected rows, times them, writes what
// they measured to -json, and exits 1 if any row's gate found something
// broken.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dataflasks/internal/lab"
)

// entry is one experiment's part of the -json document.
type entry struct {
	Experiment string   `json:"experiment"`
	Seed       uint64   `json:"seed"`
	Quick      bool     `json:"quick"`
	Result     any      `json:"result"`
	Broken     []string `json:"broken"`
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id ("+lab.Names()+", all)")
		seed     = flag.Uint64("seed", 42, "simulation seed")
		quick    = flag.Bool("quick", false, "reduced scales for smoke runs")
		ns       = flag.String("ns", "", "override the figures' node sweep, e.g. 500,1000,2000")
		jsonPath = flag.String("json", "", "write every experiment's results and gate findings to this file")
	)
	flag.Parse()

	params := lab.Params{Seed: *seed, Quick: *quick}
	if *ns != "" {
		params.Ns = parseNs(*ns)
	}
	selected := lab.Select(*exp)
	if selected == nil {
		fmt.Fprintf(os.Stderr, "flaskbench: unknown experiment %q (want one of %s, all)\n", *exp, lab.Names())
		os.Exit(2)
	}

	var doc []entry
	failed := false
	for _, e := range selected {
		start := time.Now()
		rep := e.Run(os.Stdout, params)
		fmt.Printf("--- done in %s\n", time.Since(start).Round(time.Millisecond))
		for _, msg := range rep.Broken {
			fmt.Fprintf(os.Stderr, "flaskbench: -exp %s: %s\n", e.Name, msg)
			failed = true
		}
		doc = append(doc, entry{e.Name, *seed, *quick, rep.Result, rep.Broken})
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "flaskbench: write %s: %v\n", *jsonPath, err)
			failed = true
		} else {
			fmt.Printf("wrote %s\n", *jsonPath)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func parseNs(s string) []int {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "flaskbench: bad -ns element %q\n", p)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
