package main

// This file is the benchmark's only adapter onto the model half
// (trident.Analyze, internal/profile, internal/core). A change to how a
// prediction is made touches this file and no other.

import (
	"trident"
	"trident/internal/core"
	"trident/internal/ir"
	"trident/internal/profile"
	"trident/internal/progs"
)

// analyze is the untraced surface: one trident.Analyze call with the
// default (full TRIDENT) model.
func analyze(kernel string, seed uint64) (float64, error) {
	rep, err := trident.Analyze(kernel, trident.Options{Seed: seed})
	if err != nil {
		return 0, err
	}
	return rep.OverallSDC, nil
}

// modelCounts are the work counts of one traced prediction.
type modelCounts struct {
	dynInstrs, dynMemDeps, staticMemEdges, fmIterations, targets uint64
}

// modelTrace is one traced prediction: the overall SDC and its counts.
type modelTrace struct {
	sdc    float64
	counts modelCounts
	prof   *profile.Profile
}

// analyzeTraced performs the same work as trident.Analyze, one layer
// call at a time, each inside a span under the item span parent.
func analyzeTraced(tr *tracer, parent int, kernel string, seed uint64) (modelTrace, error) {
	var (
		out  modelTrace
		m    *ir.Module
		err  error
		prof *profile.Profile
		md   *core.Model
	)
	tr.do("progs.build", kernel, parent, func() {
		var p progs.Program
		if p, err = progs.ByName(kernel); err == nil {
			m = p.Build()
		}
	})
	if err != nil {
		return out, err
	}
	tr.do("profile.collect", kernel, parent, func() {
		prof, err = profile.Collect(m, profile.Options{Seed: seed})
	})
	if err != nil {
		return out, err
	}
	tr.do("core.new", kernel, parent, func() { md = core.New(prof, core.TridentConfig()) })
	tr.do("core.fm_solve", kernel, parent, func() { out.counts.fmIterations = uint64(md.FMIterations()) })
	tr.do("core.overall", kernel, parent, func() { out.sdc = md.OverallSDC(0, seed).SDC })
	tr.do("core.instr", kernel, parent, func() {
		m.Instrs(func(in *ir.Instr) {
			if in.HasResult() && prof.ExecCount[in] > 0 {
				md.InstrSDC(in)
				md.InstrCrash(in)
				out.counts.targets++
			}
		})
	})
	out.counts.dynInstrs = prof.Golden.DynInstrs
	out.counts.dynMemDeps = prof.DynMemDeps
	out.counts.staticMemEdges = uint64(prof.NumStaticMemEdges())
	out.prof = prof
	return out, nil
}

// variantProbes times fresh fs-only and fs+fc models over prof, each as
// its own side-probe span: the fs share and the fc increment of a
// prediction.
func variantProbes(tr *tracer, kernel string, prof *profile.Profile, seed uint64) {
	tr.do("core.fs_only", kernel, -1, func() { core.New(prof, core.FSOnlyConfig()).OverallSDC(0, seed) })
	tr.do("core.fsfc", kernel, -1, func() { core.New(prof, core.FSFCConfig()).OverallSDC(0, seed) })
}
