package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"trident/internal/fault"
	"trident/internal/server"
)

// runFi runs the command in process and returns its stdout, failing the
// test unless it exits 0.
func runFi(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr strings.Builder
	code, err := run(args, &stdout, &stderr)
	if err != nil || code != 0 {
		t.Fatalf("fi %s: exit %d, %v\nstderr:\n%s", strings.Join(args, " "), code, err, stderr.String())
	}
	return stdout.String()
}

// summaryBlock cuts the outcome block and the SDC probability line out
// of a transcript, dropping local-only lines (the pruned count).
func summaryBlock(t *testing.T, out string) string {
	t.Helper()
	var b strings.Builder
	in := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  benign ") {
			in = true
		}
		if !in || strings.Contains(line, "pruned statically") {
			continue
		}
		b.WriteString(line + "\n")
		if strings.HasPrefix(line, "SDC probability:") {
			return b.String()
		}
	}
	t.Fatalf("no outcome block in:\n%s", out)
	return ""
}

// sortedRecords returns a JSONL file's trial records as sorted lines,
// without the checkpoint header — the comparison prunecheck.sh makes,
// since a checkpoint log appends in worker completion order.
func sortedRecords(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.Contains(line, `"version"`) {
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	return lines
}

// TestRemoteMatchesLocal: one campaign run locally and with -remote
// against an in-process server prints the same outcome block and SDC
// probability line, and the remote -trials-out records are the local
// checkpoint log's records.
func TestRemoteMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.New(server.Config{Spool: filepath.Join(dir, "spool")})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		ts.Close()
	})

	campaign := []string{"-program", "pathfinder", "-n", "200", "-seed", "3", "-progress=false"}
	ck := filepath.Join(dir, "local.jsonl")
	trials := filepath.Join(dir, "remote.jsonl")
	local := runFi(t, append(campaign, "-checkpoint", ck)...)
	remote := runFi(t, append(campaign, "-remote", ts.URL, "-trials-out", trials)...)

	if l, r := summaryBlock(t, local), summaryBlock(t, remote); l != r {
		t.Errorf("summaries differ\nlocal:\n%s\nremote:\n%s", l, r)
	}
	l, r := sortedRecords(t, ck), sortedRecords(t, trials)
	if len(l) != 200 || strings.Join(l, "\n") != strings.Join(r, "\n") {
		t.Errorf("remote -trials-out holds %d records, local checkpoint %d; they differ", len(r), len(l))
	}
}

// TestSummaryWithErrored: Errored is listed last and rated over all
// trials, program outcomes over classified trials only, every zero
// program outcome still gets its line, and a tally rebuilt from outcome
// names (the remote path) prints the same.
func TestSummaryWithErrored(t *testing.T) {
	var p fault.Progress
	p.Done, p.Total = 10, 10
	p.Counts[fault.Benign], p.Counts[fault.SDC], p.Counts[fault.Errored] = 5, 3, 2
	want := `  benign         5  (62.50%)
  sdc            3  (37.50%)
  crash          0  (0.00%)
  hang           0  (0.00%)
  detected       0  (0.00%)
  errored        2  (20.00%)
SDC probability: 37.50% ± 31.93% (95% CI)
`
	var local, remote strings.Builder
	printSummary(&local, p, 0)
	printSummary(&remote, tallyOf(10, 10, map[string]int{"benign": 5, "sdc": 3, "errored": 2}), 0)
	if local.String() != want {
		t.Errorf("summary:\n%s\nwant:\n%s", local.String(), want)
	}
	if remote.String() != want {
		t.Errorf("summary from outcome names:\n%s\nwant:\n%s", remote.String(), want)
	}
}

// TestRejectsBadFlags: a -trial-timeout that is not whole milliseconds
// is refused before anything runs, in either mode, and fault.New refuses
// -stratify with -stratify-adaptive.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-program", "pathfinder", "-trial-timeout", "1500us"}, "whole number of milliseconds"},
		{[]string{"-remote", "http://127.0.0.1:1", "-program", "pathfinder", "-trial-timeout", "500us"}, "whole number of milliseconds"},
		{[]string{"-program", "pathfinder", "-n", "10", "-stratify", "-stratify-adaptive"}, "mutually exclusive"},
	} {
		var stdout, stderr strings.Builder
		code, err := run(tc.args, &stdout, &stderr)
		if code != 1 || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("fi %s: exit %d, %v; want exit 1 and %q", strings.Join(tc.args, " "), code, err, tc.want)
		}
	}
}
