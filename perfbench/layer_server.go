package main

// This file is the benchmark's only adapter onto the campaign service
// (internal/server over loopback HTTP). The job spec sets no engine
// option, so jobs run on the server's default engine.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"trident/internal/fault"
	"trident/internal/server"
	"trident/internal/telemetry"
)

// jobSpec is one campaign submission of the server-mix workload.
type jobSpec struct {
	Program string
	Seed    uint64
}

const (
	jobTrials  = 400
	jobShards  = 2
	jobWorkers = 1
)

func (s jobSpec) key() string { return fmt.Sprintf("%s/%d", s.Program, s.Seed) }

func (s jobSpec) request() server.SubmitRequest {
	return server.SubmitRequest{Program: s.Program, N: jobTrials, Seed: s.Seed, Shards: jobShards, Workers: jobWorkers}
}

// service is one in-process fiserver on a loopback port.
type service struct {
	srv     *server.Server
	httpSrv *http.Server
	served  chan error
	base    string
	client  *http.Client
	reg     *telemetry.Registry
	spool   string
}

// startService starts a fresh server over a new spool and result cache
// under dir: inproc workers, one job at a time.
func startService(dir string) (*service, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	srv, err := server.New(server.Config{
		Spool:             filepath.Join(dir, "spool"),
		ResultCacheDir:    filepath.Join(dir, "cache"),
		MaxConcurrentJobs: 1,
		WorkerMode:        "inproc",
		Metrics:           reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.Start()
	s := &service{
		srv:     srv,
		httpSrv: &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		reg:     reg,
		spool:   dir,
	}
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	resp.Body.Close()
	return s, nil
}

// stop shuts the HTTP listener and drains the server, waiting for both,
// then removes the spool and cache.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.httpSrv.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	s.client.CloseIdleConnections()
	if err := s.srv.Drain(ctx); err != nil {
		return err
	}
	if herr != nil {
		return herr
	}
	return os.RemoveAll(s.spool)
}

// jobTiming is one job's client-side phase split.
type jobTiming struct {
	submit, queue, run, result time.Duration
}

// runJob submits spec and waits for its result: POST, then the events
// stream until done, then GET result. Each phase is a span under parent.
func (s *service) runJob(tr *tracer, parent int, spec jobSpec) (*server.Result, jobTiming, error) {
	var t jobTiming
	id := spec.key()
	body, _ := json.Marshal(spec.request())

	start := time.Now()
	h := tr.start("server.submit", id, parent)
	var sub server.SubmitResponse
	err := s.call(http.MethodPost, "/jobs", bytes.NewReader(body), http.StatusAccepted, &sub)
	tr.end(h)
	t.submit = time.Since(start)
	if err != nil {
		return nil, t, err
	}

	// The events stream reports the job's state on every change: the
	// first "running" state ends the queue phase, "done" ends the run.
	mark := time.Now()
	h = tr.start("server.queue", id, parent)
	running := false
	err = s.watch(sub.ID, func() {
		running = true
		tr.end(h)
		t.queue = time.Since(mark)
		mark = time.Now()
		h = tr.start("server.run", id, parent)
	})
	tr.end(h)
	if running {
		t.run = time.Since(mark)
	} else {
		t.queue = time.Since(mark)
	}
	if err != nil {
		return nil, t, fmt.Errorf("job %s: %w", sub.ID, err)
	}

	mark = time.Now()
	var res server.Result
	tr.do("server.result", id, parent, func() {
		err = s.call(http.MethodGet, "/jobs/"+sub.ID+"/result", nil, http.StatusOK, &res)
	})
	t.result = time.Since(mark)
	if err != nil {
		return nil, t, err
	}
	return &res, t, nil
}

// watch follows a job's events stream until its done event, calling
// onRunning once at the first event in the running state. The stream is
// closed before watch returns.
func (s *service) watch(jobID string, onRunning func()) error {
	resp, err := s.client.Get(s.base + "/jobs/" + jobID + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	running := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		if !running && ev.State == string(server.JobRunning) {
			running = true
			onRunning()
		}
		if ev.Type == "done" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("events ended before done")
}

func (s *service) call(method, path string, body io.Reader, want int, out any) error {
	req, err := http.NewRequest(method, s.base+path, body)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// spoolBytes sums the size of every file the service wrote.
func (s *service) spoolBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(s.spool, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// transcriptHash is the SHA-256 of a job's trial transcript as JSON.
func transcriptHash(trials []server.TrialRecord) string {
	data, _ := json.Marshal(trials) // a slice of plain structs always encodes
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// localTranscript runs spec directly as a local fault campaign — the
// options the server derives from the submission, with the given
// worker count (the transcript does not depend on it) — and returns its
// transcript in wire form.
func localTranscript(spec jobSpec, workers int) ([]server.TrialRecord, error) {
	m, err := buildKernel(spec.Program)
	if err != nil {
		return nil, err
	}
	inj, err := fault.New(m, fault.Options{Seed: spec.Seed, Workers: workers})
	if err != nil {
		return nil, err
	}
	res, err := inj.CampaignRandom(context.Background(), jobTrials)
	if err != nil {
		return nil, err
	}
	out := make([]server.TrialRecord, 0, len(res.Trials))
	for _, tr := range res.Trials {
		out = append(out, server.TrialRecord{
			Func: tr.Instr.Block.Fn.Name, Instr: tr.Instr.ID, Instance: tr.Instance,
			Bit: tr.Bit, Outcome: tr.Outcome.String(), Latency: tr.CrashLatency,
		})
	}
	return out, nil
}
