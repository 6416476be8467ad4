package experiments

import (
	"trident/internal/core"
	"trident/internal/profile"
	"trident/internal/telemetry"
)

// Fig6aPoint is one point of Figure 6a: the cost, in process CPU
// seconds, to estimate the overall SDC probability at a given sample
// count, for the model and for FI.
type Fig6aPoint struct {
	Samples int
	// ModelSeconds includes the (shared, fixed) profiling phase plus the
	// sampled prediction.
	ModelSeconds float64
	// FISeconds is projected from each program's measured per-trial cost,
	// as the paper projects from one trial averaged over 30 runs.
	FISeconds float64
}

// Fig6a regenerates Figure 6a over the configured programs: cost versus
// sample count, averaged across programs. The paper's shape: FI grows
// linearly with samples; the model pays a fixed profiling cost and almost
// nothing per additional sample.
func Fig6a(cfg Config, sampleCounts []int) ([]Fig6aPoint, error) {
	cfg = cfg.withDefaults()
	if len(sampleCounts) == 0 {
		sampleCounts = []int{500, 1000, 2000, 3000, 5000, 7000}
	}
	data, err := loadAll(cfg)
	if err != nil {
		return nil, err
	}

	// One sample costs one trial of every program; the model's fixed
	// cost is every program's profiling pass.
	var perSample, profiling float64
	for _, pd := range data {
		c, err := pd.costs(cfg)
		if err != nil {
			return nil, err
		}
		perSample += c.trial
		profiling += c.profiling
	}

	points := make([]Fig6aPoint, 0, len(sampleCounts))
	for _, n := range sampleCounts {
		start := telemetry.CPUTime()
		for _, pd := range data {
			fresh := freshModel(pd)
			fresh.OverallSDC(n, cfg.Seed)
		}
		points = append(points, Fig6aPoint{
			Samples:      n,
			ModelSeconds: profiling + (telemetry.CPUTime() - start).Seconds(),
			FISeconds:    perSample * float64(n),
		})
	}
	return points, nil
}

// Fig6bPoint is one point of Figure 6b: the cost, in process CPU
// seconds, to estimate per-instruction SDC probabilities for a given
// number of static instructions.
type Fig6bPoint struct {
	Instrs       int
	ModelSeconds float64
	// FISeconds maps per-instruction trial counts (100/500/1000) to
	// projected cost.
	FISeconds map[int]float64
}

// Fig6b regenerates Figure 6b: per-instruction prediction cost versus the
// number of static instructions analyzed, against FI-100/500/1000.
func Fig6b(cfg Config, instrCounts []int) ([]Fig6bPoint, error) {
	cfg = cfg.withDefaults()
	if len(instrCounts) == 0 {
		instrCounts = []int{50, 100, 200, 400, 700, 1000}
	}
	data, err := loadAll(cfg)
	if err != nil {
		return nil, err
	}

	// Pool targets across programs round-robin so large counts span the
	// whole suite, with their owning model.
	type target struct {
		pd  *ProgramData
		idx int
	}
	var pool []target
	maxLen := 0
	for _, pd := range data {
		if n := len(pd.Injector.Targets()); n > maxLen {
			maxLen = n
		}
	}
	for i := 0; i < maxLen; i++ {
		for _, pd := range data {
			if i < len(pd.Injector.Targets()) {
				pool = append(pool, target{pd, i})
			}
		}
	}

	var profiling float64
	for _, pd := range data {
		c, err := pd.costs(cfg)
		if err != nil {
			return nil, err
		}
		profiling += c.profiling
	}

	points := make([]Fig6bPoint, 0, len(instrCounts))
	for _, n := range instrCounts {
		if n > len(pool) {
			n = len(pool)
		}
		// One trial on each target, priced at its own program's cost
		// (costs succeeded for every program above, so its error is nil).
		var perTrialSum float64
		for _, tg := range pool[:n] {
			c, _ := tg.pd.costs(cfg)
			perTrialSum += c.trial
		}
		fresh := make(map[*ProgramData]*core.Model)
		start := telemetry.CPUTime()
		for _, tg := range pool[:n] {
			fm, ok := fresh[tg.pd]
			if !ok {
				fm = freshModel(tg.pd)
				fresh[tg.pd] = fm
			}
			fm.InstrSDC(tg.pd.Injector.Targets()[tg.idx])
		}
		points = append(points, Fig6bPoint{
			Instrs:       n,
			ModelSeconds: profiling + (telemetry.CPUTime() - start).Seconds(),
			FISeconds: map[int]float64{
				100:  perTrialSum * 100,
				500:  perTrialSum * 500,
				1000: perTrialSum * 1000,
			},
		})
	}
	return points, nil
}

// costTrials is the campaign that prices a program's FI trial: the paper
// projects FI cost from one trial averaged over 30 runs.
const costTrials = 30

// programCost is what one program's FI trial and its profiling pass cost,
// in process CPU seconds.
type programCost struct {
	trial, profiling float64
}

// costs measures pd's FI per-trial cost and its profiling cost once per
// run and shares them across Fig. 6a, 6b and 7. Both are process CPU
// time, like the model side: a campaign's CPU time sums the time of all
// its workers, so the FI price does not shrink with the number of cores
// the trials ran on. The campaign writes no checkpoint, because replayed
// trials would cost nothing.
func (pd *ProgramData) costs(cfg Config) (programCost, error) {
	pd.costOnce.Do(func() {
		start := telemetry.CPUTime()
		_, pd.costErr = profile.Collect(pd.Module, profile.Options{Seed: cfg.Seed})
		if pd.costErr != nil {
			return
		}
		pd.cost.profiling = (telemetry.CPUTime() - start).Seconds()
		start = telemetry.CPUTime()
		res, err := pd.Injector.CampaignRandom(cfg.ctx(), costTrials)
		if pd.costErr = err; err != nil {
			return
		}
		pd.cost.trial = (telemetry.CPUTime() - start).Seconds() / float64(res.N())
	})
	return pd.cost, pd.costErr
}
