package experiments

import "trident/internal/telemetry"

// Fig7Row is one benchmark's cost to derive all per-instruction SDC
// probabilities, with the memory-graph pruning statistics the paper
// correlates with it (§V-C2: PureMD prunes 0.08%, Pathfinder 99.83%,
// average 61.87% of dynamic dependencies removed).
type Fig7Row struct {
	Name string
	// ModelSeconds is the process CPU time for TRIDENT to predict every
	// executed instruction (profiling excluded, as in Fig. 7's caption).
	ModelSeconds float64
	// FISeconds100 is the projected CPU cost of FI-100 over the same
	// targets, at the program's measured per-trial cost.
	FISeconds100 float64
	// Instrs is the number of targets.
	Instrs int
	// PruningRatio is the fraction of dynamic memory dependencies removed
	// by static aggregation.
	PruningRatio float64
	// DynDeps and StaticEdges quantify the graph reduction.
	DynDeps     uint64
	StaticEdges int
}

// Fig7 regenerates Figure 7: per-benchmark per-instruction analysis cost,
// plus the pruning statistics quoted alongside it.
func Fig7(cfg Config) ([]Fig7Row, error) {
	cfg = cfg.withDefaults()
	data, err := loadAll(cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig7Row, 0, len(data))
	for _, pd := range data {
		c, err := pd.costs(cfg)
		if err != nil {
			return nil, err
		}
		targets := pd.Injector.Targets()
		model := freshModel(pd)
		start := telemetry.CPUTime()
		for _, in := range targets {
			model.InstrSDC(in)
		}
		rows = append(rows, Fig7Row{
			Name:         pd.Program.Name,
			ModelSeconds: (telemetry.CPUTime() - start).Seconds(),
			FISeconds100: c.trial * float64(len(targets)) * 100,
			Instrs:       len(targets),
			PruningRatio: pd.Profile.PruningRatio(),
			DynDeps:      pd.Profile.DynMemDeps,
			StaticEdges:  pd.Profile.NumStaticMemEdges(),
		})
	}
	return rows, nil
}
