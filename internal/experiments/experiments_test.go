package experiments

import (
	"strings"
	"testing"
)

// quickCfg keeps test-time experiment runs small; accuracy claims are
// validated by the full runs recorded in EXPERIMENTS.md.
var quickCfg = Config{
	Samples:  200,
	PerInstr: 20,
	Seed:     7,
	Programs: []string{"pathfinder", "hercules", "libquantum"},
}

func TestTable1(t *testing.T) {
	rows, err := Table1(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.StaticInstr == 0 || r.DynInstr == 0 || r.OutputLines == 0 {
			t.Errorf("%s: empty characteristics %+v", r.Name, r)
		}
	}
	if !strings.Contains(renderText(table1Tables(rows)), "pathfinder") {
		t.Error("render missing benchmark")
	}
}

func TestFig5Quick(t *testing.T) {
	res, err := Fig5(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		for name, v := range map[string]float64{
			"fi": r.FI, "trident": r.Trident, "fsfc": r.FSFC, "fs": r.FS,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s/%s = %v out of range", r.Name, name, v)
			}
		}
	}
	// The headline shape: TRIDENT closer to FI than the simpler models on
	// average.
	if res.MAETrident > res.MAEFSFC && res.MAETrident > res.MAEFS {
		t.Errorf("TRIDENT MAE %v worse than both simpler models (%v, %v)",
			res.MAETrident, res.MAEFSFC, res.MAEFS)
	}
	if !strings.Contains(renderText(fig5Tables(res)), "MAE vs FI") {
		t.Error("render incomplete")
	}
}

func TestTable2Quick(t *testing.T) {
	res, err := Table2(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		for _, p := range []float64{r.PTrident, r.PFSFC, r.PFS} {
			if p < 0 || p > 1 {
				t.Errorf("%s: p-value %v out of range", r.Name, p)
			}
		}
	}
	if !strings.Contains(renderText(table2Tables(res)), "rejections") {
		t.Error("render incomplete")
	}
}

func TestFig6Quick(t *testing.T) {
	a, err := Fig6a(quickCfg, []int{50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || a[0].FISeconds >= a[1].FISeconds {
		t.Errorf("FI cost must grow with samples: %+v", a)
	}
	b, err := Fig6b(quickCfg, []int{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 2 {
		t.Fatalf("got %d points", len(b))
	}
	if b[1].FISeconds[1000] <= b[1].FISeconds[100] {
		t.Error("FI-1000 must cost more than FI-100")
	}
	if !strings.Contains(renderText(append(fig6aTables(a), fig6bTables(b)...)), "Figure 6b") {
		t.Error("render incomplete")
	}
}

func TestFig7Quick(t *testing.T) {
	rows, err := Fig7(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.PruningRatio < 0 || r.PruningRatio > 1 {
			t.Errorf("%s pruning ratio %v", r.Name, r.PruningRatio)
		}
		if r.FISeconds100 <= r.ModelSeconds {
			t.Errorf("%s: FI-100 (%v s) should cost more than the model (%v s)",
				r.Name, r.FISeconds100, r.ModelSeconds)
		}
	}
	if !strings.Contains(renderText(fig7Tables(rows)), "Pruning") {
		t.Error("render incomplete")
	}
}

func TestFig8Quick(t *testing.T) {
	cfg := quickCfg
	cfg.Programs = []string{"pathfinder"}
	res, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	r := res.Rows[0]
	if r.FullOverhead <= 0 {
		t.Error("full duplication should have positive overhead")
	}
	for _, bound := range []string{"1/3", "2/3"} {
		cells, ok := r.ByBound[bound]
		if !ok {
			t.Fatalf("missing bound %s", bound)
		}
		for mname, c := range cells {
			if c.Selected == 0 {
				t.Errorf("%s at %s selected nothing", mname, bound)
			}
			// Paper: the knapsack respects the bound; measured overhead
			// stays in the vicinity of the requested share.
			if c.Overhead > r.FullOverhead*1.2 {
				t.Errorf("%s at %s overhead %v exceeds full %v",
					mname, bound, c.Overhead, r.FullOverhead)
			}
		}
	}
	// Protection at 2/3 must beat baseline under TRIDENT guidance.
	if sdc := r.ByBound["2/3"]["trident"].SDC; sdc > r.BaselineSDC {
		t.Errorf("2/3 TRIDENT protection made SDC worse: %v > %v", sdc, r.BaselineSDC)
	}
	if !strings.Contains(renderText(fig8Tables(res)), "mean SDC reduction") {
		t.Error("render incomplete")
	}
}

func TestFig9Quick(t *testing.T) {
	res, err := Fig9(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	// Paper ordering: PVF >> ePVF >= TRIDENT ≈ FI on average.
	if res.MeanPVF < res.MeanEPVF {
		t.Errorf("PVF (%v) should be above ePVF (%v)", res.MeanPVF, res.MeanEPVF)
	}
	if res.MAETrident > res.MAEPVF {
		t.Errorf("TRIDENT MAE (%v) should beat PVF (%v)", res.MAETrident, res.MAEPVF)
	}
	if !strings.Contains(renderText(fig9Tables(res)), "PVF") {
		t.Error("render incomplete")
	}
}

func TestAblationsQuick(t *testing.T) {
	cfg := quickCfg
	cfg.Programs = []string{"pathfinder", "bfs-rodinia"}

	vp, err := AblationValueProfile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vp.MAEWith < 0 || vp.MAEWithout < 0 {
		t.Error("negative MAE")
	}

	pr, err := AblationPruning(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pr.MaxDivergence > 1e-6 {
		t.Errorf("pruning changed fm results by %v; must be exact", pr.MaxDivergence)
	}
	if pr.DynDeps <= uint64(pr.StaticEdges) {
		t.Error("dynamic deps should outnumber static edges")
	}

	fp, err := AblationFixpoint(cfg, []int{1, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 2 {
		t.Fatal("want 2 points")
	}
	if fp[0].MeanSDC > fp[1].MeanSDC+1e-9 {
		t.Error("more sweeps must not reduce the (monotone) prediction")
	}

	kn, err := AblationKnapsack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kn.MeanSDCKnapsack < 0 || kn.MeanSDCTopK < 0 {
		t.Error("negative SDC")
	}
}

// TestGoldenCheck compares Load's two independent golden runs: the
// profiler's and the injector's must produce the same output.
func TestGoldenCheck(t *testing.T) {
	pd, err := Load("pathfinder", quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pd.Profile.Golden.Output, pd.Injector.GoldenOutput(); got != want || got == "" {
		t.Errorf("profile golden output %q, injector golden output %q", got, want)
	}
}

func TestInputSensitivityQuick(t *testing.T) {
	cfg := quickCfg
	cfg.Programs = []string{"pathfinder", "nw"}
	rows, err := InputSensitivity(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Points) != 2 {
			t.Fatalf("%s: %d points", r.Name, len(r.Points))
		}
		for _, pt := range r.Points {
			if pt.FI < 0 || pt.FI > 1 || pt.Trident < 0 || pt.Trident > 1 {
				t.Errorf("%s v%d out of range: %+v", r.Name, pt.Variant, pt)
			}
		}
		if r.SpreadFI < 0 || r.SpreadModel < 0 {
			t.Errorf("%s: negative spread", r.Name)
		}
	}
	if !strings.Contains(renderText(inputsTables(rows)), "Input sensitivity") {
		t.Error("render incomplete")
	}
}

func TestAdaptiveQuick(t *testing.T) {
	cfg := quickCfg
	cfg.Programs = []string{"rgb2gray"}
	rows, err := Adaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.Executed <= 0 || r.Executed > r.Slots {
		t.Errorf("executed %d of %d slots", r.Executed, r.Slots)
	}
	if r.PilotExecuted <= 0 || r.PilotExecuted > r.Executed {
		t.Errorf("pilot executed %d of %d executed trials", r.PilotExecuted, r.Executed)
	}
	if r.PilotFraction <= 0 || r.PilotFraction > 1 {
		t.Errorf("pilot fraction %v out of (0, 1]", r.PilotFraction)
	}
	if r.WeightedSDC < 0 || r.WeightedSDC > 1 {
		t.Errorf("weighted SDC %v out of [0, 1]", r.WeightedSDC)
	}
	if r.AdaptShrink <= 0 || r.StaticShrink <= 0 {
		t.Errorf("shrink ratios adapt=%v static=%v, want both positive", r.AdaptShrink, r.StaticShrink)
	}
	if r.Plan == "" || len(r.Strata) == 0 {
		t.Errorf("row is missing the derived plan (%q) or strata breakdown (%d)", r.Plan, len(r.Strata))
	}
}

// renderText concatenates the text renders of tables.
func renderText(tables []*Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.Text())
	}
	return sb.String()
}

// TestTableRenderGolden pins both renderers byte for byte on one fixed
// table: left and right alignment, a cell wider than its header, a dash
// cell, a trailing left column whose padding is trimmed, and notes.
func TestTableRenderGolden(t *testing.T) {
	tbl := &Table{
		Title:   "Demo: synthetic",
		Columns: []Column{{"Name", Left}, {"Value", Right}, {"±", Right}, {"Note", Left}},
		Rows: [][]string{
			{"alpha", "1.00%", "-", "first"},
			{"a-much-longer-name", "12.50%", "0.25%", "x"},
		},
		Notes: []string{"note one", "note two"},
	}
	wantText := "Demo: synthetic\n" +
		"Name                 Value      ±  Note\n" +
		"alpha                1.00%      -  first\n" +
		"a-much-longer-name  12.50%  0.25%  x\n" +
		"note one\n" +
		"note two\n"
	if got := tbl.Text(); got != wantText {
		t.Errorf("text render:\n%s\nwant:\n%s", got, wantText)
	}
	wantMD := "### Demo: synthetic\n\n" +
		"| Name | Value | ± | Note |\n" +
		"|---|---:|---:|---|\n" +
		"| alpha | 1.00% | - | first |\n" +
		"| a-much-longer-name | 12.50% | 0.25% | x |\n\n" +
		"note one\n\n" +
		"note two\n\n"
	if got := tbl.Markdown(); got != wantMD {
		t.Errorf("markdown render:\n%s\nwant:\n%s", got, wantMD)
	}
}

// TestRegistryRenders runs every registered experiment on the quick
// config and renders each of its tables in both formats: every markdown
// row must have as many cells as its header, and every text render must
// carry each row's label.
func TestRegistryRenders(t *testing.T) {
	cfg := quickCfg
	cfg.Programs = []string{"pathfinder"}
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		seen[e.Name] = true
		tables, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(tables) == 0 {
			t.Errorf("%s: no tables", e.Name)
		}
		for _, tbl := range tables {
			if len(tbl.Rows) == 0 {
				t.Errorf("%s / %s: no rows", e.Name, tbl.Title)
			}
			text := tbl.Text()
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("%s / %s: row %q has %d cells for %d columns", e.Name, tbl.Title, row, len(row), len(tbl.Columns))
				}
				if !strings.Contains(text, row[0]) {
					t.Errorf("%s / %s: text render lacks row %q", e.Name, tbl.Title, row[0])
				}
			}
			md := tbl.Markdown()
			if !strings.HasPrefix(md, "### "+tbl.Title+"\n") {
				t.Errorf("%s: markdown does not open with its ### title", e.Name)
			}
			header := -1
			for _, line := range strings.Split(md, "\n") {
				if !strings.HasPrefix(line, "|") {
					continue
				}
				cells := strings.Count(line, "|") - 1
				if header < 0 {
					header = cells
				} else if cells != header {
					t.Errorf("%s / %s: markdown row has %d cells, header %d: %q", e.Name, tbl.Title, cells, header, line)
				}
			}
			if header != len(tbl.Columns) {
				t.Errorf("%s / %s: markdown header has %d cells for %d columns", e.Name, tbl.Title, header, len(tbl.Columns))
			}
		}
	}
}
