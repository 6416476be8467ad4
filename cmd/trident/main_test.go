package main

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"trident"
	"trident/internal/progs"
)

// TestOverallMatchesLibrary checks that the CLI prints, for every paper
// kernel and model variant, the overall SDC probability trident.Analyze
// reports: both must come from the same profile and model.
func TestOverallMatchesLibrary(t *testing.T) {
	overall := regexp.MustCompile(`overall SDC probability .*: ([0-9.]+)%\n`)
	for _, p := range progs.All() {
		for _, kind := range []trident.ModelKind{trident.ModelTrident, trident.ModelFSFC, trident.ModelFS} {
			var stdout, stderr strings.Builder
			if err := run([]string{"-program", p.Name, "-model", string(kind), "-top", "0"}, &stdout, &stderr); err != nil {
				t.Fatalf("%s/%s: %v\n%s", p.Name, kind, err, stderr.String())
			}
			got := overall.FindStringSubmatch(stdout.String())
			if got == nil {
				t.Fatalf("%s/%s: no overall line in:\n%s", p.Name, kind, stdout.String())
			}
			rep, err := trident.Analyze(p.Name, trident.Options{Model: kind})
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("%.2f", rep.OverallSDC*100); got[1] != want {
				t.Errorf("%s/%s: CLI prints %s%%, trident.Analyze reports %s%%", p.Name, kind, got[1], want)
			}
		}
	}
}

// TestExplainMatchesLibrary checks that -explain prints, byte for byte,
// the propagation-path blocks trident.ExplainTop renders for the listed
// rows.
func TestExplainMatchesLibrary(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"-program", "nw", "-top", "5", "-explain"}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	blocks, err := trident.ExplainTop("nw", 5, trident.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, paths, ok := strings.Cut(stdout.String(), "\npropagation paths:\n\n")
	if !ok {
		t.Fatalf("no propagation paths in:\n%s", stdout.String())
	}
	if want := strings.Join(blocks, "\n") + "\n"; paths != want {
		t.Errorf("-explain prints\n%s\nwant\n%s", paths, want)
	}
}

// TestInstrExplainsOne checks -instr against the library's explanation
// of the same instruction.
func TestInstrExplainsOne(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"-program", "nw", "-instr", "5"}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	a, err := trident.Load("nw", "", trident.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := a.Model.Explain(a.Module.Func("main").InstrByID(5)).String(); stdout.String() != want {
		t.Errorf("-instr 5 prints\n%s\nwant\n%s", stdout.String(), want)
	}
	if err := run([]string{"-program", "nw", "-instr", "100000"}, &stdout, &stderr); err == nil {
		t.Error("-instr with an unknown ID succeeded")
	}
}

// TestRejectsBadInput checks that a malformed command line is a usage
// error, -h is not an error, and a bad program or model is a plain error.
func TestRejectsBadInput(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"-h"}, &stdout, &stderr); err != nil || !strings.Contains(stderr.String(), "-explain") {
		t.Errorf("-h: err = %v, usage:\n%s", err, stderr.String())
	}
	if err := run([]string{"-sample", "5"}, &stdout, &stderr); !errors.Is(err, errUsage) {
		t.Errorf("unknown flag: err = %v, want a usage error", err)
	}
	for _, args := range [][]string{
		{"-program", "nw", "-model", "fm"},
		{"-program", "no-such-kernel"},
		{},
	} {
		if err := run(args, &stdout, &stderr); err == nil || errors.Is(err, errUsage) {
			t.Errorf("%v: err = %v, want a plain error", args, err)
		}
	}
}
