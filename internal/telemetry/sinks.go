package telemetry

import (
	"fmt"
	"io"
	"os"
	"time"
)

// Sinks are a command's telemetry outputs beyond the registry: the
// -trace-out JSONL file and the -debug-addr server, opened together by
// OpenSinks, and the -metrics-out snapshot, written by WriteMetrics
// whenever the command chooses. Every campaign CLI shares one failure
// policy: a failed metrics or trace write never stops the run, it is
// printed on the command's stderr as "<cmd>: <err>", and Close then
// reports it, so a run that would have exited 0 exits 1.
type Sinks struct {
	// Trace is the -trace-out sink, nil when no trace file was asked for.
	Trace *Trace

	cmd    string
	stderr io.Writer
	reg    *Registry
	file   *os.File
	debug  *DebugServer
	failed bool
}

// OpenSinks creates the trace file at tracePath and starts the debug
// server for reg on debugAddr; an empty argument leaves that sink off.
// cmd names the command in failure messages, and stderr receives them
// along with the debug server's address.
func OpenSinks(cmd string, stderr io.Writer, reg *Registry, tracePath, debugAddr string) (*Sinks, error) {
	s := &Sinks{cmd: cmd, stderr: stderr, reg: reg}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		s.file = f
		s.Trace = NewTrace(f)
	}
	if debugAddr != "" {
		dbg, err := ServeDebug(debugAddr, reg)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.debug = dbg
		fmt.Fprintf(stderr, "debug server on http://%s/debug/vars\n", dbg.Addr())
	}
	return s, nil
}

// WriteMetrics writes the registry's snapshot to path (the -metrics-out
// file; "" writes nothing). A failure is printed and remembered for
// Close.
func (s *Sinks) WriteMetrics(path string) {
	if path == "" {
		return
	}
	if err := s.reg.WriteFile(path); err != nil {
		s.fail(fmt.Errorf("writing metrics: %w", err))
		return
	}
	fmt.Fprintf(s.stderr, "metrics written to %s\n", path)
}

// Close stops the debug server, giving an in-flight scrape a second to
// finish, then closes the trace file. It reports whether every metrics
// and trace write succeeded; each failure has already been printed.
func (s *Sinks) Close() (ok bool) {
	s.debug.Shutdown(time.Second)
	if s.file != nil {
		if err := s.Trace.Err(); err != nil {
			s.fail(fmt.Errorf("writing trace: %w", err))
		}
		if err := s.file.Close(); err != nil {
			s.fail(fmt.Errorf("closing trace: %w", err))
		}
	}
	return !s.failed
}

func (s *Sinks) fail(err error) {
	fmt.Fprintf(s.stderr, "%s: %v\n", s.cmd, err)
	s.failed = true
}
