package experiments

import (
	"fmt"

	"trident/internal/bitlive"
	"trident/internal/fault"
)

// Experiment is one entry of the report registry: a name for
// cmd/experiments -run and the function that runs the experiment and
// lays its result out as tables.
type Experiment struct {
	Name string
	Run  func(Config) ([]*Table, error)
}

// Registry lists every experiment in report order. It is the one list
// of experiment names: cmd/experiments selects from it, runs it in this
// order for -run all, and its usage text is built from it.
var Registry = []Experiment{
	{"table1", report(Table1, table1Tables)},
	{"fig5", report(Fig5, fig5Tables)},
	{"table2", report(Table2, table2Tables)},
	{"fig6a", report(func(cfg Config) ([]Fig6aPoint, error) { return Fig6a(cfg, nil) }, fig6aTables)},
	{"fig6b", report(func(cfg Config) ([]Fig6bPoint, error) { return Fig6b(cfg, nil) }, fig6bTables)},
	{"fig7", report(Fig7, fig7Tables)},
	{"fig8", report(Fig8, fig8Tables)},
	{"fig9", report(Fig9, fig9Tables)},
	{"inputs", report(func(cfg Config) ([]InputRow, error) { return InputSensitivity(cfg, 3) }, inputsTables)},
	{"ablations", ablationTables},
	{"pruning", report(Pruning, pruningTables)},
	{"stratify", report(Stratify, stratifyTables)},
	{"adaptive", report(Adaptive, adaptiveTables)},
}

// report chains an experiment with its table layout.
func report[R any](run func(Config) (R, error), tables func(R) []*Table) func(Config) ([]*Table, error) {
	return func(cfg Config) ([]*Table, error) {
		res, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return tables(res), nil
	}
}

// cols builds a column list whose first nLeft columns are left-aligned
// labels and the rest right-aligned values.
func cols(nLeft int, names ...string) []Column {
	out := make([]Column, len(names))
	for i, n := range names {
		out[i] = Column{Name: n, Align: Right}
		if i < nLeft {
			out[i].Align = Left
		}
	}
	return out
}

// pct formats a probability as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

func table1Tables(rows []Table1Row) []*Table {
	t := &Table{
		Title:   "Table I: Characteristics of Benchmarks",
		Columns: cols(3, "Benchmark", "Suite/Author", "Area", "Static", "Dynamic", "Output lines", "Mem (B)"),
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, r.Suite, r.Area,
			fmt.Sprintf("%d", r.StaticInstr), fmt.Sprintf("%d", r.DynInstr), fmt.Sprintf("%d", r.OutputLines), fmt.Sprintf("%d", r.MemBytes)})
	}
	return []*Table{t}
}

func fig5Tables(res *Fig5Result) []*Table {
	t := &Table{
		Title:   "Figure 5: Overall SDC probabilities (FI vs models)",
		Columns: cols(1, "Benchmark", "FI", "±95%", "TRIDENT", "fs+fc", "fs"),
	}
	for _, r := range res.Rows {
		t.Rows = append(t.Rows, []string{r.Name, pct(r.FI), pct(r.FIErr), pct(r.Trident), pct(r.FSFC), pct(r.FS)})
	}
	t.Rows = append(t.Rows, []string{"mean", pct(res.MeanFI), "", pct(res.MeanTrident), pct(res.MeanFSFC), pct(res.MeanFS)})
	t.Notes = []string{
		fmt.Sprintf("MAE vs FI: TRIDENT %s, fs+fc %s, fs %s", pct(res.MAETrident), pct(res.MAEFSFC), pct(res.MAEFS)),
		fmt.Sprintf("paired t-test TRIDENT vs FI across benchmarks: p = %.3f (p > 0.05 means indistinguishable)", res.PValueTrident),
	}
	return []*Table{t}
}

func table2Tables(res *Table2Result) []*Table {
	t := &Table{
		Title:   "Table II: p-values of per-instruction paired t-tests (p < 0.05 = rejected)",
		Columns: cols(1, "Benchmark", "Instrs", "TRIDENT", "fs+fc", "fs"),
	}
	for _, r := range res.Rows {
		t.Rows = append(t.Rows, []string{r.Name, fmt.Sprintf("%d", r.Instrs), fmt.Sprintf("%.3f", r.PTrident), fmt.Sprintf("%.3f", r.PFSFC), fmt.Sprintf("%.3f", r.PFS)})
	}
	n := len(res.Rows)
	t.Notes = []string{fmt.Sprintf("No. of rejections: TRIDENT %d/%d, fs+fc %d/%d, fs %d/%d",
		res.RejectedTrident, n, res.RejectedFSFC, n, res.RejectedFS, n)}
	return []*Table{t}
}

func fig6aTables(points []Fig6aPoint) []*Table {
	t := &Table{
		Title:   "Figure 6a: computation to predict the overall SDC probability",
		Columns: cols(0, "Samples", "TRIDENT (s)", "FI (s)", "Speedup"),
	}
	for _, p := range points {
		speedup := 0.0
		if p.ModelSeconds > 0 {
			speedup = p.FISeconds / p.ModelSeconds
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", p.Samples), fmt.Sprintf("%.3f", p.ModelSeconds), fmt.Sprintf("%.3f", p.FISeconds), fmt.Sprintf("%.1fx", speedup)})
	}
	return []*Table{t}
}

func fig6bTables(points []Fig6bPoint) []*Table {
	t := &Table{
		Title:   "Figure 6b: computation to predict per-instruction SDC probabilities",
		Columns: cols(0, "Instrs", "TRIDENT (s)", "FI-100 (s)", "FI-500 (s)", "FI-1000 (s)"),
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", p.Instrs), fmt.Sprintf("%.3f", p.ModelSeconds),
			fmt.Sprintf("%.2f", p.FISeconds[100]), fmt.Sprintf("%.2f", p.FISeconds[500]), fmt.Sprintf("%.2f", p.FISeconds[1000])})
	}
	return []*Table{t}
}

func fig7Tables(rows []Fig7Row) []*Table {
	t := &Table{
		Title:   "Figure 7: per-benchmark time to derive all per-instruction SDC probabilities",
		Columns: cols(1, "Benchmark", "Instrs", "TRIDENT (s)", "FI-100 (s)", "Pruning", "Dyn deps", "Static edges"),
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, fmt.Sprintf("%d", r.Instrs), fmt.Sprintf("%.4f", r.ModelSeconds), fmt.Sprintf("%.2f", r.FISeconds100),
			pct(r.PruningRatio), fmt.Sprintf("%d", r.DynDeps), fmt.Sprintf("%d", r.StaticEdges)})
	}
	return []*Table{t}
}

func fig8Tables(res *Fig8Result) []*Table {
	t := &Table{
		Title: "Figure 8: SDC probability after selective duplication (FI-evaluated)",
		Columns: cols(1, "Benchmark", "Baseline", "TRI 1/3", "fs+fc 1/3", "fs 1/3",
			"TRI 2/3", "fs+fc 2/3", "fs 2/3", "Full ovh"),
	}
	for _, r := range res.Rows {
		one, two := r.ByBound["1/3"], r.ByBound["2/3"]
		t.Rows = append(t.Rows, []string{r.Name, pct(r.BaselineSDC),
			pct(one["trident"].SDC), pct(one["fs+fc"].SDC), pct(one["fs"].SDC),
			pct(two["trident"].SDC), pct(two["fs+fc"].SDC), pct(two["fs"].SDC),
			pct(r.FullOverhead)})
	}
	t.Notes = []string{fmt.Sprintf("mean full-duplication overhead: %s", pct(res.MeanFullOverhead))}
	for _, bound := range []string{"1/3", "2/3"} {
		red := res.MeanReduction[bound]
		t.Notes = append(t.Notes, fmt.Sprintf("mean SDC reduction at %s bound: TRIDENT %.0f%%, fs+fc %.0f%%, fs %.0f%%",
			bound, red["trident"]*100, red["fs+fc"]*100, red["fs"]*100))
	}
	return []*Table{t}
}

func fig9Tables(res *Fig9Result) []*Table {
	t := &Table{
		Title:   "Figure 9: overall SDC probabilities (FI vs TRIDENT vs ePVF vs PVF)",
		Columns: cols(1, "Benchmark", "FI", "TRIDENT", "ePVF", "PVF"),
	}
	for _, r := range res.Rows {
		t.Rows = append(t.Rows, []string{r.Name, pct(r.FI), pct(r.Trident), pct(r.EPVF), pct(r.PVF)})
	}
	t.Rows = append(t.Rows, []string{"mean", pct(res.MeanFI), pct(res.MeanTrident), pct(res.MeanEPVF), pct(res.MeanPVF)})
	t.Notes = []string{fmt.Sprintf("MAE vs FI: TRIDENT %s, ePVF %s, PVF %s", pct(res.MAETrident), pct(res.MAEEPVF), pct(res.MAEPVF))}
	return []*Table{t}
}

func inputsTables(rows []InputRow) []*Table {
	names := []string{"Benchmark"}
	if len(rows) > 0 {
		for _, pt := range rows[0].Points {
			names = append(names, fmt.Sprintf("FI v%d", pt.Variant), fmt.Sprintf("TRI v%d", pt.Variant))
		}
	}
	names = append(names, "FI spread", "TRI spread", "tracks")
	t := &Table{
		Title:   "Input sensitivity (paper §IX future work): overall SDC per input variant",
		Columns: cols(1, names...),
		Notes:   []string{"tracks: the model profiled on variant 0 ranks the variants in FI's order"},
	}
	t.Columns[len(names)-1].Align = Left
	for _, r := range rows {
		cells := []string{r.Name}
		for _, pt := range r.Points {
			cells = append(cells, pct(pt.FI), pct(pt.Trident))
		}
		t.Rows = append(t.Rows, append(cells, pct(r.SpreadFI), pct(r.SpreadModel), fmt.Sprintf("%v", r.Tracks)))
	}
	return []*Table{t}
}

// ablationTables runs the four DESIGN.md §6 ablations, one table each.
func ablationTables(cfg Config) ([]*Table, error) {
	vp, err := AblationValueProfile(cfg)
	if err != nil {
		return nil, err
	}
	pr, err := AblationPruning(cfg)
	if err != nil {
		return nil, err
	}
	fp, err := AblationFixpoint(cfg, nil)
	if err != nil {
		return nil, err
	}
	kn, err := AblationKnapsack(cfg)
	if err != nil {
		return nil, err
	}
	fix := &Table{Title: "Ablation (fm fixpoint cap): mean overall SDC prediction per fm sweep cap",
		Columns: cols(0, "Sweeps", "Mean SDC")}
	for _, p := range fp {
		fix.Rows = append(fix.Rows, []string{fmt.Sprintf("%d", p.MaxIters), pct(p.MeanSDC)})
	}
	return []*Table{
		{
			Title:   "Ablation (fs value profile): MAE of the overall SDC prediction vs FI",
			Columns: cols(1, "Value profile", "MAE vs FI"),
			Rows:    [][]string{{"with", pct(vp.MAEWith)}, {"without", pct(vp.MAEWithout)}},
		},
		{
			Title:   "Ablation (fm pruning): the memory sub-model on the pruned static graph vs the expanded dynamic multigraph",
			Columns: cols(1, "Memory graph", "Size", "Time (s)"),
			Rows: [][]string{
				{"pruned (static edges)", fmt.Sprintf("%d", pr.StaticEdges), fmt.Sprintf("%.3f", pr.PrunedSeconds)},
				{"expanded (dynamic deps)", fmt.Sprintf("%d", pr.DynDeps), fmt.Sprintf("%.3f", pr.ExpandedSeconds)},
			},
			Notes: []string{fmt.Sprintf("max divergence %.2e", pr.MaxDivergence)},
		},
		fix,
		{
			Title:   "Ablation (selection policy at 1/3 bound): FI-measured SDC after protection",
			Columns: cols(1, "Policy", "SDC"),
			Rows:    [][]string{{"knapsack", pct(kn.MeanSDCKnapsack)}, {"top-k", pct(kn.MeanSDCTopK)}},
		},
	}, nil
}

func pruningTables(rows []PruningRow) []*Table {
	t := &Table{
		Title: "Bit-liveness pruning (DESIGN.md §5i): identical results, fewer executed trials",
		Columns: cols(1, "Benchmark", "static masked", "weighted masked", "pruned/total", "CI speedup",
			"unpruned (s)", "pruned (s)"),
		Notes: []string{
			"Pruned campaigns reproduce unpruned tallies bit for bit.",
			"static masked: masked share of static result bits; weighted masked: activation-weighted share",
			"CI speedup: executed-trial multiplier at equal Wilson CI width, 1/(1-weighted)",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, pct(r.StaticFrac), pct(r.ActFrac),
			fmt.Sprintf("%d/%d", r.PrunedTrials, r.Trials), fmt.Sprintf("%.2fx", r.SpeedupAtCI),
			fmt.Sprintf("%.3f", r.UnprunedSeconds), fmt.Sprintf("%.3f", r.PrunedSeconds)})
	}
	return []*Table{t}
}

func stratifyTables(rows []StratifyRow) []*Table {
	t := &Table{
		Title: "Stratified live-bit sampling (ANALYSIS.md): unbiased weighted estimates, tighter CIs per executed trial",
		Columns: cols(1, "Benchmark", "executed/slots", "plain SDC", "weighted SDC", "±plain@exec", "±strat",
			"eff n", "CI shrink", "±plain"),
		Notes: []string{
			"Stratified campaigns thin each influence stratum at its plan rate and reweight by inverse" +
				" inclusion probability, so the weighted SDC estimate (Horvitz-Thompson, over the drawn slots)" +
				" is unbiased for the plain campaign's population.",
			"±strat: weighted Wilson half-width; ±plain: the plain campaign's Wilson half-width over all slots",
			"±plain@exec: Wilson half-width a uniform campaign gets for the same executed budget;" +
				" CI shrink = ±plain@exec / ±strat",
		},
	}
	strata := strataTable("Stratify: per-stratum execution under the static plan")
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, fmt.Sprintf("%d/%d", r.Executed, r.Slots),
			pct(r.PlainSDC), pct(r.WeightedSDC), pct(r.EqualExecErr), pct(r.WeightedErr),
			fmt.Sprintf("%.0f", r.EffN), fmt.Sprintf("%.3fx", r.CIShrink), pct(r.PlainErr)})
		strata.Rows = append(strata.Rows, strataRow(r.Name, r.Strata))
	}
	return []*Table{t, strata}
}

func adaptiveTables(rows []AdaptiveRow) []*Table {
	t := &Table{
		Title: "Adaptive Neyman allocation (ANALYSIS.md): pilot-derived plans vs the static default plan",
		Columns: cols(1, "Benchmark", "executed/slots", "pilot", "pilot %", "plain SDC", "weighted SDC",
			"±plain@exec", "±adapt", "eff n", "adapt shrink", "static shrink"),
		Notes: []string{
			"The adaptive campaign spends a static-shape pilot prefix estimating per-stratum" +
				" SDC variance, derives Neyman inclusion rates from the pilot tallies, runs the rest" +
				" of the budget under the derived plan, and folds the pilot trials into the final" +
				" Horvitz-Thompson estimate; pilot trials count against the budget.",
			"adapt/static shrink: equal-executed-budget CI shrink (±plain@exec / weighted half-width)" +
				" under the pilot-derived Neyman plan vs the static default plan",
		},
	}
	strata := strataTable("Adaptive: per-stratum execution under the derived plan")
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, fmt.Sprintf("%d/%d", r.Executed, r.Slots),
			fmt.Sprintf("%d", r.PilotExecuted), fmt.Sprintf("%.1f%%", r.PilotFraction*100),
			pct(r.PlainSDC), pct(r.WeightedSDC), pct(r.EqualExecErr), pct(r.WeightedErr),
			fmt.Sprintf("%.0f", r.EffN), fmt.Sprintf("%.3fx", r.AdaptShrink), fmt.Sprintf("%.3fx", r.StaticShrink)})
		strata.Rows = append(strata.Rows, strataRow(r.Name, r.Strata))
	}
	return []*Table{t, strata}
}

// strataTable is the empty per-stratum grid: one column per stratum in
// fixed priority order, so regenerated tables diff cleanly across runs.
func strataTable(title string) *Table {
	names := []string{"Benchmark"}
	for _, s := range bitlive.Strata() {
		names = append(names, s.String())
	}
	return &Table{
		Title:   title,
		Columns: cols(1, names...),
		Notes:   []string{`cells: executed/slots @rate; "-" = no drawn slots`},
	}
}

// strataRow is one benchmark's row of a strataTable. A stratum the
// campaign drew no slots in is a bare dash, so every row has the same
// shape.
func strataRow(name string, strata []fault.StratumSummary) []string {
	row := []string{name}
	for _, ss := range strata {
		if ss.Slots == 0 && ss.Executed == 0 {
			row = append(row, "-")
		} else {
			row = append(row, fmt.Sprintf("%d/%d @%.2f", ss.Executed, ss.Slots, ss.Rate))
		}
	}
	return row
}
