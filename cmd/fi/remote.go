// This file is fi's client mode for the campaign server (cmd/fiserver):
// -remote submits the campaign over HTTP instead of running it in
// process, follows the job's JSONL event stream with the same progress
// line as a local run (each event rebuilt into a fault.Progress), and
// prints the same outcome block and SDC probability line from the
// returned result. -trials-out dumps the per-trial records as JSONL —
// the currency scripts/servercheck.sh compares byte-for-byte between
// server runs and clean runs.

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"trident/internal/fault"
	"trident/internal/server"
	"trident/internal/sigctx"
	"trident/internal/telemetry"
)

// remoteOpts carries the flags relevant to a -remote invocation.
type remoteOpts struct {
	base      string // server base URL
	jobID     string // attach to an existing job instead of submitting
	detach    bool   // submit, print the job ID, exit
	trialsOut string // write per-trial JSONL here
	progress  bool
	req       *server.SubmitRequest
}

// runRemote drives one remote campaign. The exit-code contract matches
// local runs: 0 for a complete campaign, 1 for errors, 130/143 when a
// signal interrupted the watch (a signal during a run we submitted also
// cancels the job server-side; attaching with -job never cancels).
func runRemote(ctx context.Context, fired func() os.Signal, stdout, stderr io.Writer, opts remoteOpts) (int, error) {
	base := strings.TrimRight(opts.base, "/")
	client := &http.Client{}
	id := opts.jobID
	submitted := false
	if id == "" {
		var err error
		if id, err = submitJob(ctx, client, base, opts.req); err != nil {
			return 1, err
		}
		submitted = true
		fmt.Fprintf(stdout, "submitted job %s to %s\n", id, base)
		if opts.detach {
			fmt.Fprintf(stdout, "watch it with: fi -remote %s -job %s\n", base, id)
			return 0, nil
		}
	}

	err := watchJob(ctx, client, base, id, stderr, opts.progress)
	if sig := fired(); sig != nil {
		if submitted {
			// Mirror local Ctrl-C semantics: our campaign, so cancel it.
			cancelJob(client, base, id)
			fmt.Fprintf(stderr, "\nfi: %v received, cancelled job %s\n", sig, id)
		} else {
			fmt.Fprintf(stderr, "\nfi: %v received, detaching from job %s (still running server-side)\n", sig, id)
			return sigctx.ExitCode(sig), nil
		}
	} else if err != nil {
		return 1, err
	}

	res, err := fetchResult(client, base, id)
	if err != nil {
		return 1, err
	}
	printRemoteResult(stdout, res)
	if opts.trialsOut != "" {
		if err := writeTrials(opts.trialsOut, res.Trials); err != nil {
			return 1, err
		}
		fmt.Fprintf(stderr, "per-trial records written to %s\n", opts.trialsOut)
	}
	if sig := fired(); sig != nil {
		return sigctx.ExitCode(sig), nil
	}
	switch server.JobState(res.State) {
	case server.JobDone:
		return 0, nil
	default:
		return 1, fmt.Errorf("job %s finished %s", id, res.State)
	}
}

func submitJob(ctx context.Context, client *http.Client, base string, req *server.SubmitRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return "", fmt.Errorf("submitting to %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", apiError("submit", resp)
	}
	var sr server.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return "", err
	}
	return sr.ID, nil
}

// watchJob follows the event stream until the job is terminal. It
// returns nil on a terminal event, or the transport error (a cancelled
// ctx surfaces here when a signal fires).
func watchJob(ctx context.Context, client *http.Client, base, id string, stderr io.Writer, progress bool) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError("events", resp)
	}
	var meter *telemetry.ProgressMeter
	if progress {
		meter = telemetry.NewProgressMeter(stderr, 0)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev server.Event
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		if ev.Type == "state" {
			continue
		}
		p := tallyOf(ev.Done, ev.Total, ev.Counts)
		p.Elapsed = time.Duration(ev.ElapsedMS) * time.Millisecond
		meter.Update(p.String)
		if ev.Type == "done" {
			meter.Final()
			if ev.Error != "" {
				fmt.Fprintf(stderr, "job %s: %s\n", id, ev.Error)
			}
			return nil
		}
	}
	meter.Final()
	if err := sc.Err(); err != nil {
		return fmt.Errorf("event stream: %w", err)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("event stream for job %s ended before the job finished (server draining?)", id)
}

// tallyOf rebuilds the fault.Progress that a job's event or result
// reports with outcome counts keyed by name, so a remote run renders
// with fault.Progress.String and printSummary like a local one.
func tallyOf(done, total int, counts map[string]int) fault.Progress {
	p := fault.Progress{Done: done, Total: total}
	for _, o := range fault.AllOutcomes {
		p.Counts[o] = counts[o.String()]
	}
	return p
}

func cancelJob(client *http.Client, base, id string) {
	// Best-effort: the watch context is already cancelled, use a fresh one.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := client.Do(hreq); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// fetchResult polls for the job's result: after a cancel or a drain the
// terminal state (and its result) can land moments after the event
// stream ends.
func fetchResult(client *http.Client, base, id string) (*server.Result, error) {
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		if attempt > 0 {
			time.Sleep(250 * time.Millisecond)
		}
		resp, err := client.Get(base + "/jobs/" + id + "/result")
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusOK {
			var res server.Result
			err := json.NewDecoder(resp.Body).Decode(&res)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			return &res, nil
		}
		lastErr = apiError("result", resp)
		resp.Body.Close()
	}
	return nil, lastErr
}

// printRemoteResult prints the job header, the outcome block and SDC
// probability line shared with local runs, and a stratified job's
// weighted estimate.
func printRemoteResult(w io.Writer, res *server.Result) {
	fmt.Fprintf(w, "\njob %s: %s, %d trials", res.ID, res.State, len(res.Trials))
	if res.Missing > 0 {
		fmt.Fprintf(w, " (%d of %d missing)", res.Missing, res.N)
	}
	fmt.Fprintln(w)
	printSummary(w, tallyOf(len(res.Trials), len(res.Trials), res.Counts), 0)
	if res.Stratified {
		if res.Adaptive {
			fmt.Fprintf(w, "adaptive: %d of %d drawn slots executed (%d pilot trials)\n",
				res.ExecutedN, res.N, res.PilotExecuted)
		} else {
			fmt.Fprintf(w, "stratified: %d of %d drawn slots executed\n", res.ExecutedN, res.N)
		}
		fmt.Fprintf(w, "weighted SDC probability: %.2f%% ± %.2f%% (95%% CI, effective n %.0f)\n",
			res.WeightedSDC*100, res.WeightedErrorBar95*100, res.EffectiveN)
	}
}

// writeTrials dumps per-trial records as JSONL, one record per line in
// sampling order — deterministic, so two complete runs of the same
// campaign produce byte-identical files.
func writeTrials(path string, trials []server.TrialRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, tr := range trials {
		if err := enc.Encode(tr); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func apiError(op string, resp *http.Response) error {
	var re server.RequestError
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&re) == nil && re.Msg != "" {
		return fmt.Errorf("%s: %s (HTTP %d)", op, re.Msg, resp.StatusCode)
	}
	return fmt.Errorf("%s: HTTP %d", op, resp.StatusCode)
}
