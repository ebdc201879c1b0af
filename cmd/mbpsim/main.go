// Command mbpsim runs a branch predictor over an SBBT trace and prints the
// simulation result as JSON in the layout of Listing 1 of the MBPlib paper.
//
// Being a library, MBPlib leaves main to the user; this command is the
// reference example of such a main: open the (possibly compressed) trace,
// build a predictor, call sim.Run, print the result.
//
// Usage:
//
//	mbpsim -trace traces/SHORT_SERVER-1.sbbt.mlz -predictor gshare:h=25,t=18
//	mbpsim -list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mbplib/internal/cliflags"
	"mbplib/internal/compress"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams injected; it returns the exit
// code: 0 on success, 2 on a usage error, 1 when the simulation fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tracePath = fs.String("trace", "", "SBBT trace file (raw, .gz, .mlz or .mlzs)")
		predSpec  = fs.String("predictor", "gshare", "predictor spec, e.g. gshare:h=25,t=18")
		warmup    = fs.Uint64("warmup", 0, "warm-up instructions (mispredictions not counted)")
		simInstr  = fs.Uint64("sim", 0, "instructions to simulate after warm-up (0 = whole trace)")
		mostN     = fs.Int("most-failed", 0, "cap on most_failed entries (0 = half-of-mispredictions set)")
		list      = fs.Bool("list", false, "list available predictors and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, name := range registry.Names() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *tracePath == "" {
		fmt.Fprintln(stderr, "mbpsim: -trace is required (see -help)")
		return 2
	}
	if err := cliflags.Validate(cliflags.MostFailed(*mostN)); err != nil {
		fmt.Fprintln(stderr, "mbpsim:", err)
		return 2
	}
	if err := simulate(stdout, *tracePath, *predSpec, *warmup, *simInstr, *mostN); err != nil {
		fmt.Fprintln(stderr, "mbpsim:", err)
		return 1
	}
	return 0
}

func simulate(stdout io.Writer, tracePath, predSpec string, warmup, simInstr uint64, mostN int) error {
	p, err := registry.New(predSpec)
	if err != nil {
		return err
	}
	f, err := compress.OpenFile(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := sbbt.NewReader(f)
	if err != nil {
		return err
	}
	res, err := sim.Run(r, p, sim.Config{
		TraceName:          tracePath,
		WarmupInstructions: warmup,
		SimInstructions:    simInstr,
		MostFailedLimit:    mostN,
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
