package trident

import (
	"math"
	"testing"

	"trident/internal/ir"
)

const tinyIR = `
module "tiny"
global @a i64 x 8
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %sq = mul %i, %i
  %p = gep i64, @a, %i
  store %sq, %p
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 8
  condbr %c, loop, out
out:
  %v = load i64, @a
  br sum
sum:
  %j = phi i64 [i64 0, out], [%jinc, sum]
  %acc = phi i64 [%v, out], [%nacc, sum]
  %q = gep i64, @a, %j
  %x = load i64, %q
  %nacc = add %acc, %x
  %jinc = add %j, i64 1
  %jc = icmp slt %jinc, i64 8
  condbr %jc, sum, done
done:
  print %nacc
  ret
}
`

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	// The 11 Table I kernels plus the 3 narrow-output pruning kernels.
	if len(names) != 14 {
		t.Fatalf("got %d benchmarks, want 14", len(names))
	}
	listed := make(map[string]bool, len(names))
	for _, n := range names {
		listed[n] = true
	}
	for _, want := range []string{
		"libquantum", "blackscholes", "sad", "bfs-parboil", "hercules",
		"lulesh", "puremd", "nw", "pathfinder", "hotspot", "bfs-rodinia",
		"rgb2gray", "nibblepack", "boxblur",
	} {
		if !listed[want] {
			t.Errorf("benchmark %q missing from Benchmarks()", want)
		}
	}
}

func TestAnalyzeBenchmark(t *testing.T) {
	rep, err := Analyze("pathfinder", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OverallSDC <= 0 || rep.OverallSDC > 1 {
		t.Errorf("overall SDC = %v", rep.OverallSDC)
	}
	if len(rep.Instrs) == 0 || rep.StaticInstrs == 0 || rep.DynInstrs == 0 {
		t.Error("report incomplete")
	}
	// Sorted most SDC-prone first.
	for i := 1; i < len(rep.Instrs); i++ {
		if rep.Instrs[i].SDC > rep.Instrs[i-1].SDC+1e-12 {
			t.Fatal("instruction report not sorted by SDC")
		}
	}
}

func TestAnalyzeIR(t *testing.T) {
	rep, err := AnalyzeIR(tinyIR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Program != "tiny" {
		t.Errorf("program = %q", rep.Program)
	}
	if rep.OverallSDC <= 0 {
		t.Error("overall SDC should be positive for a program with output")
	}
}

func TestAnalyzeModelVariants(t *testing.T) {
	var last *Report
	for _, kind := range []ModelKind{ModelTrident, ModelFSFC, ModelFS} {
		rep, err := AnalyzeIR(tinyIR, Options{Model: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		last = rep
	}
	_ = last
	if _, err := AnalyzeIR(tinyIR, Options{Model: "bogus"}); err == nil {
		t.Error("bogus model should error")
	}
}

func TestCampaignIR(t *testing.T) {
	rep, err := CampaignIR(tinyIR, Options{Samples: 300, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 300 {
		t.Fatalf("trials = %d", rep.Trials)
	}
	total := rep.SDC + rep.Crash + rep.Hang + rep.Benign + rep.Detected
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("outcome rates sum to %v", total)
	}
	if rep.ErrorBar95 <= 0 && rep.SDC > 0 {
		t.Error("missing error bar")
	}
}

func TestAnalyzeTracksCampaign(t *testing.T) {
	rep, err := AnalyzeIR(tinyIR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := CampaignIR(tinyIR, Options{Samples: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(rep.OverallSDC - fi.SDC); diff > 0.2 {
		t.Errorf("model %v vs FI %v: diff %v too large", rep.OverallSDC, fi.SDC, diff)
	}
}

func TestProtect(t *testing.T) {
	rep, err := Protect("pathfinder", 2.0/3, Options{Samples: 400, Seed: 9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SelectedInstrs == 0 {
		t.Error("nothing selected")
	}
	if rep.Overhead <= 0 || rep.Overhead > rep.FullOverhead*1.2 {
		t.Errorf("overhead %v vs full %v", rep.Overhead, rep.FullOverhead)
	}
	if rep.ProtectedSDC >= rep.BaselineSDC {
		t.Errorf("protection did not reduce SDC: %v -> %v", rep.BaselineSDC, rep.ProtectedSDC)
	}
	if rep.DetectionRate == 0 {
		t.Error("no detections")
	}
}

func TestProtectBudgetValidation(t *testing.T) {
	if _, err := Protect("pathfinder", 1.5, Options{}); err == nil {
		t.Error("budget > 1 should error")
	}
	if _, err := Protect("nope", 0.5, Options{}); err == nil {
		t.Error("unknown program should error")
	}
}

func TestAnalyzeUnknownProgram(t *testing.T) {
	if _, err := Analyze("nope", Options{}); err == nil {
		t.Error("unknown program should error")
	}
	if _, err := AnalyzeIR("not ir", Options{}); err == nil {
		t.Error("bad IR should error")
	}
}

func TestExplainTop(t *testing.T) {
	lines, err := ExplainTop("pathfinder", 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d explanations", len(lines))
	}
	for _, l := range lines {
		if l == "" {
			t.Error("empty explanation")
		}
	}
	if _, err := ExplainTop("nope", 3, Options{}); err == nil {
		t.Error("unknown program should error")
	}
}

// TestLoadIsTheOnePipeline checks that Analyze and ExplainTop report
// what Load's model predicts, in Ranked order, and that Ranked breaks
// SDC ties by module order.
func TestLoadIsTheOnePipeline(t *testing.T) {
	a, err := Load("nw", "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze("nw", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := a.Model.OverallSDC(0, a.Seed).SDC; rep.OverallSDC != want {
		t.Errorf("Analyze overall %v, Load's model %v", rep.OverallSDC, want)
	}
	ranked := a.Ranked()
	if len(rep.Instrs) != len(ranked) {
		t.Fatalf("Analyze lists %d instructions, Ranked %d", len(rep.Instrs), len(ranked))
	}
	order := make(map[string]int)
	i := 0
	a.Module.Instrs(func(in *ir.Instr) { order[in.Pos()] = i; i++ })
	for i, in := range ranked {
		if rep.Instrs[i].Location != in.Pos() || rep.Instrs[i].SDC != a.Model.InstrSDC(in) {
			t.Fatalf("row %d: Analyze has %s, Ranked %s", i, rep.Instrs[i].Location, in.Pos())
		}
		if i > 0 && rep.Instrs[i].SDC == rep.Instrs[i-1].SDC && order[in.Pos()] < order[ranked[i-1].Pos()] {
			t.Errorf("rows %d and %d tie but leave module order", i-1, i)
		}
	}
	lines, err := ExplainTop("nw", 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lines {
		if want := a.Model.Explain(ranked[i]).String(); l != want {
			t.Errorf("explanation %d is\n%s\nwant\n%s", i, l, want)
		}
	}
	if _, err := Load("nw", tinyIR, Options{}); err == nil {
		t.Error("Load with both a name and IR text succeeded")
	}
}
