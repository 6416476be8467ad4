// Command diag compares TRIDENT per-instruction predictions against
// per-instruction fault injection, for model debugging. Its model column
// comes from trident.Load, so it equals trident.Analyze's per-instruction
// SDC probabilities.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"trident"
	"trident/internal/fault"
)

func main() {
	program := flag.String("program", "pathfinder", "benchmark name")
	trials := flag.Int("n", 150, "FI trials per instruction")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	a, err := trident.Load(*program, "", trident.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	model := a.Model
	inj, err := fault.New(a.Module, fault.Options{Seed: 5, Workers: 8})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	targets := inj.Targets()
	sort.Slice(targets, func(i, j int) bool { return targets[i].ID < targets[j].ID })
	fmt.Printf("%-34s %8s %8s %8s %8s %8s %8s %8s\n",
		"instr", "count", "model", "fi-sdc", "gap", "fi-crash", "m-crash", "fi-ben")
	for _, in := range targets {
		res, err := inj.CampaignPerInstr(ctx, in, *trials)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "diag: cancelled")
				return
			}
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		gap := model.InstrSDC(in) - res.SDCProb()
		fmt.Printf("%-34s %8d %8.3f %8.3f %+8.3f %8.3f %8.3f %8.3f\n",
			in.String()+" @"+in.Block.Name, inj.ExecCount(in), model.InstrSDC(in),
			res.SDCProb(), gap, res.Rate(fault.Crash), model.InstrCrash(in), res.Rate(fault.Benign))
	}
}
