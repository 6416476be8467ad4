package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// ProgressMeter renders a single in-place status line (carriage-return
// rewrite, no newline) to a terminal-ish writer, throttled so callers
// can feed it from per-trial callbacks without formatting cost or
// output flooding: between refreshes Update returns without invoking
// the render callback. The meter keeps the last callback it was given,
// so Final can re-render the latest state without the caller keeping a
// copy of it.
//
// All methods are safe for concurrent use and on a nil *ProgressMeter
// (they do nothing).
type ProgressMeter struct {
	mu     sync.Mutex
	w      io.Writer
	every  time.Duration
	last   time.Time
	render func() string // the latest Update's callback
	width  int
	wrote  bool
}

// NewProgressMeter returns a meter writing to w at most once per every
// (≤ 0 selects the 100ms default).
func NewProgressMeter(w io.Writer, every time.Duration) *ProgressMeter {
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	return &ProgressMeter{w: w, every: every}
}

// Update renders and writes the line if the refresh interval has
// elapsed since the last write; otherwise it is a cheap no-op. render
// runs (under the meter's lock) only when the line will actually be
// written. The meter keeps render for Final either way.
func (m *ProgressMeter) Update(render func() string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.render = render
	if time.Since(m.last) < m.every {
		return
	}
	m.write(render())
	m.last = time.Now()
}

// Final forces one last render of the latest Update's callback
// (regardless of throttling) and terminates the line with a newline,
// leaving the terminal ready for normal output. A meter that was never
// updated stays silent.
func (m *ProgressMeter) Final() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.render != nil {
		m.write(m.render())
	}
	m.finish()
}

// Done terminates the in-place line with a newline if any line was
// written, without re-rendering.
func (m *ProgressMeter) Done() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finish()
}

// write emits "\r<line>", padding with spaces to erase any longer
// previous line. Must hold mu.
func (m *ProgressMeter) write(line string) {
	pad := ""
	if n := m.width - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	fmt.Fprintf(m.w, "\r%s%s", line, pad)
	m.width = len(line)
	m.wrote = true
}

// finish writes the terminating newline. Must hold mu.
func (m *ProgressMeter) finish() {
	if m.wrote {
		fmt.Fprintln(m.w)
		m.wrote = false
		m.width = 0
	}
}

// FormatETA renders a remaining-time estimate ("eta 1m40s") from work
// completed so far; "eta --" until the first unit completes. Estimates
// assume a constant completion rate.
func FormatETA(done, total int, elapsed time.Duration) string {
	if done <= 0 || total <= 0 || done > total {
		return "eta --"
	}
	remain := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
	return "eta " + remain.Round(time.Second).String()
}
