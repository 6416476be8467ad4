package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"trident/internal/fault"
	"trident/internal/server"
)

const (
	// jobsPerKernel distinct jobs per paper kernel: 44 result-cache misses.
	jobsPerKernel = 4
	// serverClients closed-loop clients each keep one job outstanding.
	serverClients = 2
)

// jobSpecs returns variant v's distinct jobs in submission order.
func jobSpecs(v int) []jobSpec {
	var specs []jobSpec
	for _, k := range paperKernels() {
		for r := 0; r < jobsPerKernel; r++ {
			specs = append(specs, jobSpec{Program: k, Seed: uint64(1000*(v+1) + r)})
		}
	}
	rng := rand.New(rand.NewSource(int64(v) + 1))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// jobOutcome is one finished job as a client saw it.
type jobOutcome struct {
	spec    jobSpec
	hit     bool
	latency time.Duration
	timing  jobTiming
	res     *server.Result
}

// serverBench is the server-mix workload: a fresh in-process fiserver
// (inproc workers, one job at a time, result cache, new spool) driven
// over loopback HTTP by closed-loop clients. Each client alternates a
// distinct job (a cache miss) with a repeat of one of its own finished
// jobs (a hit).
type serverBench struct {
	cfg   *config
	specs []jobSpec
	svc   *service
	runs  int
}

func setupServer(cfg *config) (bench, error) {
	b := &serverBench{cfg: cfg, specs: jobSpecs(cfg.variant)}
	for _, s := range b.specs {
		if _, ok := cfg.ref.Jobs[s.key()]; !ok {
			return nil, fmt.Errorf("reference has no transcript for job %s", s.key())
		}
	}
	if err := b.restart(); err != nil {
		return nil, err
	}
	return b, nil
}

// restart replaces the service with a fresh one over an empty spool.
func (b *serverBench) restart() error {
	if err := b.close(); err != nil {
		return err
	}
	b.runs++
	svc, err := startService(filepath.Join(b.cfg.outDir, fmt.Sprintf("server-%d", b.runs)))
	if err != nil {
		return err
	}
	b.svc = svc
	return nil
}

func (b *serverBench) close() error {
	if b.svc == nil {
		return nil
	}
	err := b.svc.stop()
	b.svc = nil
	return err
}

// pass runs every job through the service and checks each result.
func (b *serverBench) pass(rep *report, tr *tracer) ([]jobOutcome, time.Duration, error) {
	var (
		mu   sync.Mutex
		outs []jobOutcome
		errs = make([]error, serverClients)
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < serverClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(b.cfg.variant)*serverClients + int64(c) + 1))
			var done []jobSpec
			for i := c; i < len(b.specs); i += serverClients {
				for _, hit := range []bool{false, true} {
					spec := b.specs[i]
					if hit {
						spec = done[rng.Intn(len(done))]
					}
					t := time.Now()
					root := tr.start("server.job", spec.key(), -1)
					res, timing, err := b.svc.runJob(tr, root, spec)
					tr.end(root)
					if err != nil {
						errs[c] = fmt.Errorf("job %s: %w", spec.key(), err)
						return
					}
					o := jobOutcome{spec: spec, hit: hit, latency: time.Since(t), timing: timing, res: res}
					mu.Lock()
					outs = append(outs, o)
					mu.Unlock()
					if !hit {
						done = append(done, spec)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, wall, err
		}
	}
	for _, o := range outs {
		want := b.cfg.ref.Jobs[o.spec.key()]
		got := transcriptHash(o.res.Trials)
		ok := o.res.State == string(server.JobDone) && o.res.Counts[fault.Errored.String()] == 0 &&
			len(o.res.Trials) == jobTrials && got == want
		rep.check(ok, 1, "job %s (hit %v): state %s, %d trials, transcript %s, reference %s",
			o.spec.key(), o.hit, o.res.State, len(o.res.Trials), got, want)
	}
	return outs, wall, nil
}

// classLatencies splits job latencies into misses and hits, in ms.
func classLatencies(outs []jobOutcome) (miss, hit []float64) {
	for _, o := range outs {
		if o.hit {
			hit = append(hit, msOf(o.latency))
		} else {
			miss = append(miss, msOf(o.latency))
		}
	}
	return miss, hit
}

func (b *serverBench) run(rep *report) error {
	ph := startPhase()
	outs, wall, err := b.pass(rep, nil)
	if err != nil {
		return err
	}
	cpu := cpuTime() - ph.cpu
	ph.note(rep)
	var all, proj, halves, errs []float64
	for _, o := range outs {
		all = append(all, msOf(o.latency))
		if !o.hit {
			proj = append(proj, ci01(o.latency, o.res.ErrorBar95))
			halves = append(halves, o.res.ErrorBar95)
			errs = append(errs, 100*o.res.ErrorBar95)
		}
	}
	// CPU time cannot be split between jobs that overlap, so the per-job
	// figures are the pass's CPU time shared out evenly.
	perJob := cpu / time.Duration(len(outs))
	perMiss := cpu / time.Duration(len(halves))
	var projCPU []float64
	for _, h := range halves {
		projCPU = append(projCPU, ci01(perMiss, h))
	}
	rep.set("cpu_s", "s", cpu.Seconds())
	rep.set("item_cpu_ms_geomean", "ms", msOf(perJob))
	rep.set("ci01_cpu_s", "s", geomean(projCPU))
	rep.set("sdc_err_pts", "pts", mean(errs))
	miss, hit := classLatencies(outs)
	rep.note("server-mix: %d clients, %d misses and %d hits of %d-trial jobs; ci01 values are projections",
		serverClients, len(miss), len(hit), jobTrials)
	rep.set("wall_s", "s", wall.Seconds())
	rep.set("job_ms_geomean", "ms", geomean(all))
	rep.set("ci01_s", "s", geomean(proj))
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"miss", miss}, {"hit", hit}} {
		rep.set(c.name+"_p50_ms", "ms", median(c.xs))
		if v, pct, ok := tail(c.xs); ok {
			rep.set(c.name+"_tail_ms", "ms", v)
			rep.note("%s_tail_ms is p%.1f of %d samples", c.name, pct, len(c.xs))
		}
	}
	rep.set("jobs_per_s", "1/s", float64(len(outs))/wall.Seconds())
	return nil
}

func (b *serverBench) runTraced(rep *report, tr *tracer) error {
	_, untraced, err := b.pass(rep, nil)
	if err != nil {
		return err
	}
	if err := b.restart(); err != nil {
		return err
	}
	outs, traced, err := b.pass(rep, tr)
	if err != nil {
		return err
	}

	// The same specs as local campaigns with the job's total parallelism
	// (shards × workers): their time is the service's floor, and their
	// transcripts must match the server's byte for byte.
	var local []float64
	for _, o := range outs {
		if o.hit {
			continue
		}
		t := time.Now()
		trials, err := localTranscript(o.spec, jobShards*jobWorkers)
		if err != nil {
			return err
		}
		local = append(local, msOf(time.Since(t)))
		got, want := transcriptHash(o.res.Trials), transcriptHash(trials)
		rep.check(got == want, 1, "job %s: server transcript %s, local campaign %s", o.spec.key(), got, want)
	}

	spool, err := b.svc.spoolBytes()
	if err != nil {
		return err
	}
	if _, err := finishTrace(rep, tr, b.cfg, untraced, traced); err != nil {
		return err
	}
	var submit, result, queue, run []float64
	for _, o := range outs {
		submit = append(submit, msOf(o.timing.submit))
		result = append(result, msOf(o.timing.result))
		if !o.hit {
			queue = append(queue, msOf(o.timing.queue))
			run = append(run, msOf(o.timing.run))
		}
	}
	miss, _ := classLatencies(outs)
	rep.set("server.submit_ms", "ms", median(submit))
	rep.set("server.queue_ms", "ms", median(queue))
	rep.set("server.run_ms", "ms", median(run))
	rep.set("server.result_ms", "ms", median(result))
	rep.set("server.local_ms", "ms", median(local))
	rep.set("server.overhead_ms", "ms", median(miss)-median(local))
	rep.set("server.shards.runs", "count", registryCount(b.svc.reg, "server.shards.runs"))
	rep.set("server.shards.retries", "count", registryCount(b.svc.reg, "server.shards.retries"))
	rep.set("server.cache_hits", "count", registryCount(b.svc.reg, "cache.hits"))
	rep.set("server.spool_bytes", "bytes", float64(spool))
	return nil
}
