package main

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"testing"

	"trident/internal/experiments"
	"trident/internal/telemetry"
)

// TestRejectsUnknownNames checks that a misspelt experiment or format is
// a usage error naming every registered experiment, not a silent no-op.
func TestRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "fig55,tabel1"},
		{"-run", "table1,"},
		{"-format", "html", "-run", "table1"},
	} {
		var stdout, stderr strings.Builder
		err := run(context.Background(), args, &stdout, &stderr)
		if !errors.Is(err, errUsage) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a report:\n%s", args, stdout.String())
		}
		for _, e := range experiments.Registry {
			if !strings.Contains(stderr.String(), e.Name) {
				t.Errorf("%v: usage does not list %q:\n%s", args, e.Name, stderr.String())
			}
		}
	}
}

// TestMarkdownHeadings runs two experiments with -format md and checks
// that the ### table titles are the only headings: no stamp line sits
// directly above a dash rule, where markdown would read it as a setext
// heading.
func TestMarkdownHeadings(t *testing.T) {
	var stdout, stderr strings.Builder
	args := []string{"-format", "md", "-run", "table1,table2", "-programs", "pathfinder",
		"-perinstr", "5", "-progress=false"}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	out := stdout.String()
	lines := strings.Split(out, "\n")
	setext := regexp.MustCompile(`^ {0,3}(-+|=+) *$`)
	titles := 0
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "### ") {
				t.Errorf("line %d: unexpected heading %q", i+1, line)
			}
			titles++
		}
		if setext.MatchString(line) && i > 0 && lines[i-1] != "" {
			t.Errorf("line %d: %q underlines %q into a heading", i+1, line, lines[i-1])
		}
	}
	if titles != 2 {
		t.Errorf("got %d ### titles, want 2:\n%s", titles, out)
	}
	for _, name := range []string{"table1", "table2"} {
		if !strings.Contains(out, "["+name+" completed in ") {
			t.Errorf("no completion stamp for %s:\n%s", name, out)
		}
	}
}

// TestCheckpointDirReRunReplays is the re-run path for an unchanged
// campaign: a second run over the same -checkpoint-dir replays every
// trial from its log, executes none, and prints the same report as the
// first run and as a run without checkpoints.
func TestCheckpointDirReRunReplays(t *testing.T) {
	base := []string{"-run", "fig5", "-programs", "pathfinder,blackscholes", "-progress=false"}
	ckArgs := append([]string{"-checkpoint-dir", t.TempDir()}, base...)
	executed := telemetry.Default.Counter("fi.trials.executed")
	stamp := regexp.MustCompile(`(?m)^\[\w+ completed in [0-9.]+s\]$`)
	report := func(args []string) string {
		t.Helper()
		var stdout, stderr strings.Builder
		if err := run(context.Background(), args, &stdout, &stderr); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.String())
		}
		return stamp.ReplaceAllString(stdout.String(), "[stamp]")
	}

	plain := report(base)
	if !strings.Contains(plain, "[stamp]") {
		t.Fatalf("no completion stamp in the report:\n%s", plain)
	}
	before := executed.Load()
	first := report(ckArgs)
	if executed.Load() == before {
		t.Fatal("the first -checkpoint-dir run executed no trial")
	}
	before = executed.Load()
	second := report(ckArgs)
	if got := executed.Load() - before; got != 0 {
		t.Errorf("the re-run executed %d trials, want 0", got)
	}
	if second != first {
		t.Errorf("re-run report differs from the first run:\n%s\nvs\n%s", second, first)
	}
	if first != plain {
		t.Errorf("-checkpoint-dir report differs from a run without it:\n%s\nvs\n%s", first, plain)
	}
}
