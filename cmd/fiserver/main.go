// Command fiserver runs the campaign-as-a-service HTTP server: it
// accepts fault-injection campaign submissions (built-in benchmark
// names or textual IR), queues them as durable jobs under a spool
// directory, runs each job as one checkpointed campaign in the server
// process, and streams progress and results as JSONL. A job's shards
// multiply its trial workers. See the "Running the campaign server"
// section of README.md for a walkthrough.
//
// The API surface (all JSON):
//
//	POST   /jobs              submit a campaign        → 202 {id, state}
//	GET    /jobs              list jobs
//	GET    /jobs/{id}         job status and progress
//	GET    /jobs/{id}/events  JSONL progress stream until terminal
//	GET    /jobs/{id}/result  final (or partial) result
//	DELETE /jobs/{id}         cancel
//	GET    /healthz           liveness + draining flag
//
// On SIGTERM or SIGINT the server drains: admission flips to 503,
// running campaigns are cancelled (their logs hold every completed
// trial), interrupted jobs re-queue on disk, and the process exits
// 143/130. Restarting over the same -spool resumes them — also after a
// SIGKILL or OOM kill, since every completed trial is already in the
// job's checkpoint log.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"trident/internal/server"
	"trident/internal/sigctx"
	"trident/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("fiserver", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8344", "HTTP listen address (\":0\" picks a free port; see -addr-file)")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file (for scripts using -addr :0)")
	spool := fs.String("spool", "", "durable job directory (required); restarting over the same spool resumes interrupted jobs")
	jobs := fs.Int("jobs", 2, "max concurrently running jobs")
	queueDepth := fs.Int("queue-depth", 64, "max queued jobs before submissions get 429")
	shards := fs.Int("shards", 4, "default shard count for jobs that don't choose one; a job runs shards × workers trials at once")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a signal-triggered drain may take before giving up")
	maxTrials := fs.Int("max-trials", 1_000_000, "per-job trial budget")
	maxIRBytes := fs.Int("max-ir-bytes", 4<<20, "max submitted IR text size")
	maxWall := fs.Duration("max-wall", 15*time.Minute, "per-job wall-clock budget (jobs exceeding it degrade to partial results)")
	chaosDelay := fs.Duration("chaos-trial-delay", 0, "slow every trial by this much (crash-drill instrumentation, not for production)")
	resultCache := fs.Bool("result-cache", true, "serve a repeated campaign (same checkpoint header) by replaying a clean job's log kept under <spool>/cache")
	metricsOut := fs.String("metrics-out", "", "write a JSON metrics snapshot here on exit")
	traceOut := fs.String("trace-out", "", "write a JSONL event trace here (job/drain spans)")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof on this HTTP address")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *spool == "" {
		fmt.Fprintln(os.Stderr, "fiserver: -spool is required")
		return 2
	}

	reg := telemetry.Default
	sinks, err := telemetry.OpenSinks("fiserver", os.Stderr, reg, *traceOut, *debugAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiserver:", err)
		return 1
	}
	// Close prints a failed metrics or trace write; fiserver never exits
	// 0 (it stops on a signal or an error), so no exit code changes.
	defer sinks.Close()

	resultCacheDir := ""
	if *resultCache {
		resultCacheDir = filepath.Join(*spool, "cache")
	}
	srv, err := server.New(server.Config{
		Spool:             *spool,
		MaxConcurrentJobs: *jobs,
		MaxQueueDepth:     *queueDepth,
		DefaultShards:     *shards,
		ChaosTrialDelay:   *chaosDelay,
		ResultCacheDir:    resultCacheDir,
		Limits: server.Limits{
			MaxTrials:  *maxTrials,
			MaxIRBytes: *maxIRBytes,
			MaxWall:    *maxWall,
		},
		Metrics: reg,
		Trace:   sinks.Trace,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiserver:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiserver:", err)
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fiserver:", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "fiserver listening on http://%s (spool %s)\n",
		ln.Addr(), *spool)

	srv.Start()
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()

	ctx, stop, fired := sigctx.WithSignals(context.Background())
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-httpErr:
		fmt.Fprintln(os.Stderr, "fiserver: listener died:", err)
		return 1
	}
	sig := fired()
	fmt.Fprintf(os.Stderr, "fiserver: %v received, draining (budget %v)\n", sig, *drainTimeout)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "fiserver:", err)
	}
	// Drain first, HTTP second: submissions arriving mid-drain still get
	// clean 503s, then in-flight responses (event streams included) get
	// a short grace before the remaining connections are cut.
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		httpSrv.Close()
	}
	sinks.WriteMetrics(*metricsOut)
	fmt.Fprintln(os.Stderr, "fiserver: drained, exiting")
	return sigctx.ExitCode(sig)
}
