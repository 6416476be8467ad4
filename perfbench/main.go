// Command perfbench is the repository's benchmark: it runs one workload
// against the user-facing surfaces (trident.Analyze, trident.Campaign,
// the fault sampled-campaign entry points and the fiserver HTTP API),
// checks every output against the committed reference, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh --write-ref perfbench/reference.json
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer metrics of a traced pass (README.md lists
// both). Any output that does not match the reference counts as a
// failed operation, and the run then exits with status 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 9

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	variant  int
	seconds  time.Duration
	trace    bool
	ref      variantRef
	outDir   string
}

// variantSeed is the program seed of input variant v.
func variantSeed(v int) uint64 { return uint64(v) + 1 }

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// report collects a run's outcome: operation counts, the metrics in
// print order, and human-readable lines printed before the JSON.
type report struct {
	attempted, failed int
	metrics           []metric
	notes             []string
}

func (r *report) set(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records n operations, all failed unless ok.
func (r *report) check(ok bool, n int, format string, args ...any) {
	r.attempted += n
	if !ok {
		r.failed += n
		fmt.Fprintf(os.Stderr, "perfbench: mismatch: %s\n", fmt.Sprintf(format, args...))
	}
}

// bench is one workload after set-up.
type bench interface {
	// run performs the timed phase and fills rep with the end-to-end
	// metrics.
	run(rep *report) error
	// runTraced performs one untraced and one traced pass and fills rep
	// with the per-layer metrics.
	runTraced(rep *report, tr *tracer) error
	close() error
}

type workload struct {
	name  string
	setup func(*config) (bench, error)
}

var workloads = []workload{
	{"model-paper", setupModel},
	{"fi-paper", setupFI},
	{"fi-sampled", setupSampled},
	{"server-mix", setupServer},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: model-paper, fi-paper, fi-sampled or server-mix")
	seed := fs.Int64("seed", 1, "input seed; variant = seed mod 10")
	seconds := fs.Int("seconds", 25, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	writeRef := fs.String("write-ref", "", "compute every variant's expected outputs and write them to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writeRef != "" {
		return writeReference(*writeRef)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	variant := int((*seed%numVariants + numVariants) % numVariants)
	cfg := &config{
		workload: wl.name,
		seed:     variantSeed(variant),
		variant:  variant,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		outDir:   filepath.Join(buildDir(), "perfbench-out"),
	}

	// Set up setupRepeats times: the first from process start, the
	// others from scratch after closing the previous one. Set-up is timed
	// in CPU time, like the timed phase (see cpuTime).
	var (
		b      bench
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return err
			}
		}
		var start time.Duration // process CPU time is 0 at process start
		if i > 0 {
			// A collection owed by the previous set-up is not this one's.
			runtime.GC()
			start = cpuTime()
		}
		ref, err := loadReference(refPath)
		if err != nil {
			return err
		}
		cfg.ref = ref.Variants[variant]
		if b, err = wl.setup(cfg); err != nil {
			return err
		}
		setups = append(setups, (cpuTime() - start).Seconds())
	}

	var err error
	rep := &report{}
	if cfg.trace {
		err = b.runTraced(rep, newTracer())
	} else {
		rep.set("setup_s", "s", median(setups))
		err = b.run(rep)
		if err == nil {
			rep.set("peak_rss_mb", "MB", peakRSSMB())
		}
	}
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return emit(rep, cfg.trace)
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads the metric list of one BENCHMARK.json section.
func loadSpec(traced bool) ([]specMetric, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if traced {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// emit prints the human-readable report and the final JSON line, and
// exits 1 when any operation failed. The JSON carries exactly the
// metrics BENCHMARK.json lists for the run's mode: every end-to-end
// metric must have been measured; a per-layer metric of a layer the
// workload does not exercise reads 0. Metrics outside the list are
// printed above the JSON only.
func emit(rep *report, traced bool) error {
	spec, err := loadSpec(traced)
	if err != nil {
		return err
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	got := map[string]metric{}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		got[m.name] = m
	}
	metrics := map[string]jsonMetric{}
	for _, s := range spec {
		m, ok := got[s.Name]
		switch {
		case !ok && !traced:
			return fmt.Errorf("end-to-end metric %s was not measured", s.Name)
		case ok && m.unit != s.Unit:
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", s.Name, m.unit, s.Unit)
		}
		metrics[s.Name] = jsonMetric{Value: m.value, Unit: s.Unit}
	}

	w := bufio.NewWriter(os.Stdout)
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%-34s %18.8g %s\n", m.name, m.value, m.unit)
	}
	failedFrac := 0.0
	if rep.attempted > 0 {
		failedFrac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "%-34s %18.8g %s\n", "failed_frac", failedFrac, "1")
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if err := w.Flush(); err != nil {
		return err
	}
	if rep.failed > 0 || rep.attempted == 0 {
		os.Exit(1)
	}
	return nil
}

// buildDir is where build outputs and run artifacts go.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// timedRounds measures items round-robin until the budget is spent. The
// first round runs every item once — a full pass, however long it takes;
// later rounds repeat each item whose median so far still fits in the
// remaining budget, so cheap items collect many samples. It returns each
// item's wall times and process CPU times.
func timedRounds(budget time.Duration, ids []string, item func(id string) error) (wall, cpu itemTimes, err error) {
	wall, cpu = itemTimes{}, itemTimes{}
	start := time.Now()
	for round := 0; ; round++ {
		ran := false
		for _, id := range ids {
			if round > 0 && time.Since(start)+medianDur(wall[id]) > budget {
				continue
			}
			// Each item starts from a collected heap, so it is not charged
			// for the garbage of the one before it.
			runtime.GC()
			t, c := time.Now(), cpuTime()
			if err := item(id); err != nil {
				return wall, cpu, err
			}
			wall.add(id, time.Since(t))
			cpu.add(id, cpuTime()-c)
			ran = true
		}
		if !ran {
			return wall, cpu, nil
		}
	}
}

// cpuTime is the CPU time the process has used, user and system, over
// all its threads. On a virtual machine it leaves out the time the host
// ran something else (steal), which wall time includes; the gated
// metrics use it because steal moves wall times by 10-35% from run to
// run on a shared two-core VM, more than any bound allows.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime reads the time the host took from this machine's CPUs, all
// CPUs summed, from /proc/stat (0 where the kernel does not report it).
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks * float64(time.Second) / 100) // USER_HZ
}

// phase marks the start of a timed phase.
type phase struct {
	start      time.Time
	cpu, steal time.Duration
}

func startPhase() phase { return phase{start: time.Now(), cpu: cpuTime(), steal: stealTime()} }

// note prints the phase's wall time, CPU time and the host's steal.
func (p phase) note(rep *report) {
	rep.note("timed phase: wall %.3f s, process CPU %.3f s, host steal %.3f CPU-s",
		time.Since(p.start).Seconds(), (cpuTime() - p.cpu).Seconds(), (stealTime() - p.steal).Seconds())
}

// itemTimes collects per-item wall times across passes.
type itemTimes map[string][]time.Duration

func (it itemTimes) add(id string, d time.Duration) { it[id] = append(it[id], d) }

// passS is the time of one pass over the items, from each item's median.
func (it itemTimes) passS() float64 {
	var sum time.Duration
	for _, ds := range it {
		sum += medianDur(ds)
	}
	return sum.Seconds()
}

// samples is the number of timed item runs.
func (it itemTimes) samples() int {
	n := 0
	for _, ds := range it {
		n += len(ds)
	}
	return n
}

// noteMedians prints each item's median time and sample count.
func (it itemTimes) noteMedians(rep *report) {
	for _, id := range sortedKeys(it) {
		rep.note("item %-22s median %10.2f ms over %d run(s)", id, msOf(medianDur(it[id])), len(it[id]))
	}
}

// geomeanMS is the geometric mean over items of each item's median, in ms.
func (it itemTimes) geomeanMS() float64 {
	var logs []float64
	for _, ds := range it {
		logs = append(logs, math.Log(msOf(medianDur(ds))))
	}
	return math.Exp(mean(logs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func geomean(xs []float64) float64 {
	logs := make([]float64, len(xs))
	for i, x := range xs {
		logs[i] = math.Log(x)
	}
	return math.Exp(mean(logs))
}

// tail returns the highest percentile of xs that has at least ten
// samples above it, with that percentile; ok is false below 11 samples.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n), true
}

// ci01 projects the seconds an item needs for a ±0.01 95% interval from
// its wall time and reported half-width: the width shrinks as 1/√n.
func ci01(wall time.Duration, half float64) float64 {
	return wall.Seconds() * (half / 0.01) * (half / 0.01)
}
