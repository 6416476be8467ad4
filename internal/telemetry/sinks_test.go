package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSinksOpenWriteClose: the trace file receives records,
// -metrics-out is written on request, and a clean run closes ok. (The
// debug server's lifecycle is debug_test.go's; starting one here would
// claim the process-wide expvar name TestServeDebug checks.)
func TestSinksOpenWriteClose(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	reg.Counter("sinks.test").Inc()
	var stderr syncBuffer
	s, err := OpenSinks("cmd", &stderr, reg, filepath.Join(dir, "trace.jsonl"), "")
	if err != nil {
		t.Fatal(err)
	}
	s.Trace.Event("sinks.event", nil)
	s.WriteMetrics(filepath.Join(dir, "metrics.json"))
	s.WriteMetrics("") // no -metrics-out: nothing written, nothing printed
	if !s.Close() {
		t.Fatalf("Close reported a failed write: %s", stderr.String())
	}
	trace, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil || !strings.Contains(string(trace), `"sinks.event"`) {
		t.Errorf("trace file = %q, %v", trace, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "metrics.json")); err != nil {
		t.Errorf("metrics file: %v", err)
	}
	if got := stderr.String(); got != "metrics written to "+filepath.Join(dir, "metrics.json")+"\n" {
		t.Errorf("stderr = %q, want one metrics line", got)
	}
}

// TestSinksFailedWrites: a failed metrics write and a failed trace
// write are each printed as "<cmd>: <err>" and make Close report
// failure, without stopping anything before it.
func TestSinksFailedWrites(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail trace writes on")
	}
	var stderr syncBuffer
	s, err := OpenSinks("cmd", &stderr, NewRegistry(), "/dev/full", "")
	if err != nil {
		t.Fatal(err)
	}
	s.Trace.Event("lost", nil)
	s.WriteMetrics(filepath.Join(t.TempDir(), "missing", "metrics.json"))
	if s.Close() {
		t.Fatal("Close reported success after failed writes")
	}
	out := stderr.String()
	for _, want := range []string{"cmd: writing metrics: ", "cmd: writing trace: "} {
		if !strings.Contains(out, want) {
			t.Errorf("stderr %q lacks %q", out, want)
		}
	}
}

// TestSinksOff: with no trace path and no debug address nothing opens,
// and Close is a successful no-op.
func TestSinksOff(t *testing.T) {
	var stderr syncBuffer
	s, err := OpenSinks("cmd", &stderr, NewRegistry(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Trace != nil || !s.Close() || stderr.String() != "" {
		t.Errorf("sinks off: trace %v, stderr %q", s.Trace, stderr.String())
	}
}
