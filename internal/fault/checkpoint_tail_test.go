package fault

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"trident/internal/progs"
)

// captureWarnings swaps the package warning sink for the test's
// duration, returning a function that yields everything logged so far.
func captureWarnings(t *testing.T) func() []string {
	t.Helper()
	var got []string
	old := warnf
	warnf = func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...))
	}
	t.Cleanup(func() { warnf = old })
	return func() []string { return got }
}

// TestCheckpointTornTailEveryOffset is the crash-mid-append regression
// suite: a checkpoint truncated at every byte offset of its final
// record must still resume, recovering every intact record and skipping
// the torn tail with a logged warning — never failing the whole resume.
func TestCheckpointTornTailEveryOffset(t *testing.T) {
	m := mustProg(t, "pathfinder").Build()
	inj, err := New(m, Options{Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trials.jsonl")
	const n = 12
	want, err := inj.Campaign(context.Background(), n, Run{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	// Workers append records in completion order, so which record ends
	// the fresh log varies from run to run. Resuming the complete log
	// compacts it into key order, making the final record — and so the
	// set of subtests below — the same on every run.
	if _, err := inj.Campaign(context.Background(), n, Run{Checkpoint: path, Resume: true}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the final record: the log ends with "...\nLAST\n".
	trimmed := bytes.TrimSuffix(data, []byte("\n"))
	lastStart := bytes.LastIndexByte(trimmed, '\n') + 1
	if lastStart <= 0 {
		t.Fatalf("checkpoint has no records:\n%s", data)
	}
	meta := inj.header(modePlain, n)

	// Subtests are named by offset from the start of the final record,
	// not by absolute byte offset.
	for cut := lastStart; cut <= len(data); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("tail+%d", cut-lastStart), func(t *testing.T) {
			warned := captureWarnings(t)
			torn := filepath.Join(dir, fmt.Sprintf("torn-%d.jsonl", cut))
			if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			ck, err := openCheckpoint(torn, meta, true)
			if err != nil {
				t.Fatalf("resume failed on truncation at byte %d: %v", cut, err)
			}
			defer ck.Close()
			// A cut at the record boundary leaves a clean log, and a cut
			// that removes only the trailing newline still leaves a fully
			// parseable final record; anything in between tears it.
			wholeFile := cut >= len(data)-1
			cleanCut := cut == lastStart || wholeFile
			wantRecs := len(want.Trials)
			if !wholeFile {
				wantRecs-- // the torn/removed final record is gone
			}
			// Duplicate sampled specs can collapse records; compare
			// against the cache of the untruncated log instead of n.
			full, err := openCheckpoint(path, meta, true)
			if err != nil {
				t.Fatal(err)
			}
			defer full.Close()
			if wholeFile {
				wantRecs = len(full.cache)
			} else if len(full.cache) < wantRecs {
				wantRecs = len(full.cache) - 1
			}
			if got := len(ck.cache); got < wantRecs {
				t.Errorf("cut at %d: recovered %d records, want at least %d", cut, got, wantRecs)
			}
			warns := warned()
			if cleanCut && len(warns) != 0 {
				t.Errorf("cut at %d: unexpected warning on clean log: %q", cut, warns)
			}
			if !cleanCut {
				found := false
				for _, w := range warns {
					if strings.Contains(w, "torn tail") {
						found = true
					}
				}
				if !found {
					t.Errorf("cut at %d: no torn-tail warning logged (got %q)", cut, warns)
				}
			}
		})
	}
}

// TestCheckpointTornTailResume proves the end-to-end contract: resuming
// from a torn log re-executes exactly the lost trial(s) and reproduces
// the uninterrupted campaign bit for bit.
func TestCheckpointTornTailResume(t *testing.T) {
	m := mustProg(t, "pathfinder").Build()
	inj, err := New(m, Options{Seed: 23, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trials.jsonl")
	const n = 15
	want, err := inj.Campaign(context.Background(), n, Run{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record in half.
	trimmed := bytes.TrimSuffix(data, []byte("\n"))
	lastStart := bytes.LastIndexByte(trimmed, '\n') + 1
	cut := lastStart + (len(data)-lastStart)/2
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	captureWarnings(t)
	got, err := inj.Campaign(context.Background(), n, Run{Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trials) != len(want.Trials) {
		t.Fatalf("resumed %d trials, want %d", len(got.Trials), len(want.Trials))
	}
	for i := range want.Trials {
		if got.Trials[i] != want.Trials[i] {
			t.Errorf("trial %d diverged after torn-tail resume: got %+v want %+v",
				i, got.Trials[i], want.Trials[i])
		}
	}
}

// TestCheckpointMidFileCorruptionRejected pins the other side of the
// contract: a corrupt line *followed by intact records* is not crash
// debris and must fail the load instead of silently dropping data.
func TestCheckpointMidFileCorruptionRejected(t *testing.T) {
	m := mustProg(t, "pathfinder").Build()
	inj, err := New(m, Options{Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	if _, err := inj.Campaign(context.Background(), 8, Run{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("log too short: %d lines", len(lines))
	}
	// Garble a record in the middle of the log.
	mid := len(lines) / 2
	lines[mid] = []byte("{\"fn\": not json\n")
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	captureWarnings(t)
	_, err = openCheckpoint(path, inj.header(modePlain, 8), true)
	if err == nil {
		t.Fatal("mid-file corruption followed by intact records was silently accepted")
	}
	var ce *CheckpointError
	if !errors.As(err, &ce) || ce.Line != mid+1 {
		t.Fatalf("err = %v, want a *CheckpointError at line %d", err, mid+1)
	}
}

// TestCheckpointErrorLines: a log whose header is missing or malformed
// fails with a *CheckpointError at line 1.
func TestCheckpointErrorLines(t *testing.T) {
	for name, data := range map[string]string{
		"missing": "",
		"garbled": "{\"version\": nope\n" + `{"fn":"main","instr":1,"instance":1,"bit":0,"outcome":"benign"}` + "\n",
	} {
		_, _, _, err := readLog(name, []byte(data))
		var ce *CheckpointError
		if !errors.As(err, &ce) || ce.Line != 1 || ce.Path != name {
			t.Errorf("%s header: err = %v, want a *CheckpointError for %s at line 1", name, err, name)
		}
	}
}

// mustProg fetches a built-in benchmark or fails the test.
func mustProg(t *testing.T, name string) progs.Program {
	t.Helper()
	p, err := progs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzCheckpointLog fuzzes the JSONL checkpoint decoder. Whatever the
// bytes, readLog must not panic, and a log it rejects must fail with a
// *CheckpointError positioned on one of its lines; a log it accepts must survive a
// writeLog/readLog round trip with the identical header and records;
// and appending a corrupt line followed by an intact record to an
// accepted log must always fail the load (the torn-tail contract: only
// a corrupt *final* line is crash debris).
func FuzzCheckpointLog(f *testing.F) {
	p, err := progs.ByName("pathfinder")
	if err != nil {
		f.Fatal(err)
	}
	inj, err := New(p.Build(), Options{Seed: 11, Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "trials.jsonl")
	if _, err := inj.Campaign(context.Background(), 12, Run{Checkpoint: path}); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)-7])                                           // torn tail
	f.Add(bytes.Replace(data, []byte(`"outcome"`), []byte(`"outc`), 1)) // corrupt first record
	f.Add([]byte(`{"version":1}` + "\n"))
	f.Add([]byte(""))

	const intact = `{"fn":"main","instr":1,"instance":1,"bit":0,"outcome":"benign"}`
	// checkLine asserts a rejection is a *CheckpointError positioned on
	// one of the input's lines (a final line without a newline counts).
	checkLine := func(t *testing.T, err error, data []byte) {
		t.Helper()
		var ce *CheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("rejection is not a *CheckpointError: %v", err)
		}
		if lines := bytes.Count(data, []byte("\n")) + 1; ce.Line < 1 || ce.Line > lines {
			t.Fatalf("rejection at line %d of a %d-line log: %v", ce.Line, lines, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, recs, _, err := readLog("fuzz", data)
		if err != nil {
			checkLine(t, err, data)
			return
		}

		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := writeLog(path, meta, recs); err != nil {
			t.Fatalf("writeLog: %v", err)
		}
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		meta2, recs2, warns2, err := readLog("rewritten", written)
		if err != nil {
			t.Fatalf("re-reading a written log: %v\n%s", err, written)
		}
		if meta2 != meta {
			t.Fatalf("header changed in round trip: %+v, want %+v", meta2, meta)
		}
		if !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("records changed in round trip: %d records, want %d", len(recs2), len(recs))
		}
		if len(warns2) != 0 {
			t.Fatalf("a written log re-reads with warnings: %v", warns2)
		}

		// The scanner stops at a line longer than its 1 MiB buffer, so
		// the appended lines are only read when the input fits under it.
		if len(data) >= 1<<20 {
			return
		}
		torn := append(append([]byte(nil), data...), "\n{\n"+intact+"\n"...)
		_, _, _, err = readLog("torn", torn)
		if err == nil {
			t.Fatalf("a corrupt line followed by an intact record was accepted:\n%q", torn)
		}
		checkLine(t, err, torn)
	})
}

// TestCheckpointRecordLogsDuplicateOnce records one trial twice, as two
// workers do when they run duplicate draws of it concurrently: the log
// must hold one record, so a transcript never repeats a trial.
func TestCheckpointRecordLogsDuplicateOnce(t *testing.T) {
	inj, err := New(mustProg(t, "pathfinder").Build(), Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trials.jsonl")
	ck, err := openCheckpoint(path, inj.header(modePlain, 4), false)
	if err != nil {
		t.Fatal(err)
	}
	spec := trialSpec{instr: inj.Targets()[0], instance: 3, bit: 5}
	tr := Injection{Instr: spec.instr, Instance: 3, Bit: 5, Outcome: SDC}
	ck.record(tr, nil)
	ck.record(tr, nil)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"outcome"`); n != 1 {
		t.Errorf("log holds %d trial records, want 1:\n%s", n, data)
	}
}
