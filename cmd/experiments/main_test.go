package main

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"testing"

	"trident/internal/experiments"
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
