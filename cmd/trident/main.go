// Command trident analyzes a program with the TRIDENT model: it profiles
// one execution and prints the predicted overall SDC probability and the
// most SDC-prone instructions, without any fault injection — the paper's
// Figure 1b workflow. Its predictions come from trident.Load, so they are
// the ones trident.Analyze and trident.ExplainTop report.
//
// Usage:
//
//	trident -program pathfinder [-top 15] [-model trident|fs+fc|fs] [-samples N]
//	trident -program nw -top 5 -explain    # propagation paths of each listed row
//	trident -program nw -instr 42          # explain instruction #42 of main
//	trident -ir file.tir [...]
//
// Programs come from the built-in benchmark registry (-program) or from a
// textual IR file (-ir). -explain and -instr decompose a prediction into
// its propagation paths: direct register flow to output, corrupted stores
// chased through memory, and flipped branches with their divergence
// effects.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"trident"
	"trident/internal/ir"
)

// errUsage reports a command line the flag set rejected; it has already
// printed the usage.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trident:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trident", flag.ContinueOnError)
	fs.SetOutput(stderr)
	program := fs.String("program", "", "built-in benchmark name ("+strings.Join(trident.Benchmarks(), ", ")+")")
	irFile := fs.String("ir", "", "textual IR file to analyze instead of a benchmark")
	top := fs.Int("top", 15, "number of most SDC-prone instructions to list")
	modelName := fs.String("model", string(trident.ModelTrident), "model variant: trident, fs+fc, fs")
	samples := fs.Int("samples", 0, "sampled dynamic instructions for the overall estimate (0 = exact)")
	explain := fs.Bool("explain", false, "print the propagation paths of each listed instruction")
	instrID := fs.Int("instr", -1, "explain only the instruction with this ID in main")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	var src []byte
	if *irFile != "" {
		var err error
		if src, err = os.ReadFile(*irFile); err != nil {
			return err
		}
	}
	a, err := trident.Load(*program, string(src), trident.Options{Model: trident.ModelKind(*modelName)})
	if err != nil {
		return err
	}
	m, prof, model := a.Module, a.Profile, a.Model

	if *instrID >= 0 {
		in := m.Func("main").InstrByID(*instrID)
		if in == nil {
			return fmt.Errorf("no instruction #%d in main", *instrID)
		}
		fmt.Fprint(stdout, model.Explain(in).String())
		return nil
	}

	fmt.Fprintf(stdout, "profiled %s:\n", m.Name)
	fmt.Fprintf(stdout, "  %d static instructions, %d dynamic, %d bytes peak memory\n",
		m.NumInstrs(), prof.Golden.DynInstrs, prof.PeakMemBytes)
	fmt.Fprintf(stdout, "  memory dependence: %d dynamic deps pruned to %d static edges (%.2f%%)\n",
		prof.DynMemDeps, prof.NumStaticMemEdges(), prof.PruningRatio()*100)

	overall := model.OverallSDC(*samples, a.Seed)
	fmt.Fprintf(stdout, "\noverall SDC probability (%s): %.2f%%\n", model, overall.SDC*100)

	rows := a.Ranked()
	rows = rows[:min(max(*top, 0), len(rows))]
	fmt.Fprintf(stdout, "\ntop %d SDC-prone instructions:\n", len(rows))
	fmt.Fprintf(stdout, "%-32s %-24s %10s %10s\n", "instruction", "location", "SDC", "execs")
	for _, in := range rows {
		fmt.Fprintf(stdout, "%-32s %-24s %9.2f%% %10d\n",
			ir.FormatInstr(in), in.Pos(), model.InstrSDC(in)*100, prof.ExecCount[in])
	}
	if *explain {
		fmt.Fprintf(stdout, "\npropagation paths:\n\n")
		for _, in := range rows {
			fmt.Fprintln(stdout, model.Explain(in).String())
		}
	}
	return nil
}
