package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func approx(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	// Sample variance of the set is 32/7.
	if v := Variance(xs); !approx(v, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}

func TestMeanAbsError(t *testing.T) {
	got, err := MeanAbsError([]float64{1, 2, 3}, []float64{2, 2, 1})
	if err != nil || !approx(got, 1, 1e-12) {
		t.Errorf("MAE = %v, %v", got, err)
	}
	if _, err := MeanAbsError([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestProportionCI95(t *testing.T) {
	// At mid-range p and large n the Wilson half-width matches the normal
	// approximation the paper quotes (±1.79% at p=0.5, n=3000).
	ci := ProportionCI95(0.5, 3000)
	if !approx(ci, 0.0179, 0.0005) {
		t.Errorf("CI95(0.5, 3000) = %v, want ~0.0179", ci)
	}
	// At p exactly 0 or 1 the normal approximation collapses to a
	// zero-width bar; Wilson must not. Observing 0 successes in n trials
	// bounds the rate near z^2/(n+z^2) ≈ 3.84/n for large n.
	lo := ProportionCI95(0, 3000)
	if lo <= 0 {
		t.Error("CI at p=0 must be positive (Wilson), got 0")
	}
	if !approx(lo, 3.84/3003.84, 1e-4) {
		t.Errorf("CI95(0, 3000) = %v, want ~%v", lo, 3.84/3003.84)
	}
	if hi := ProportionCI95(1, 3000); !approx(hi, lo, 1e-12) {
		t.Errorf("CI at p=1 (%v) should mirror p=0 (%v)", hi, lo)
	}
	if ProportionCI95(0.5, 0) != 0 {
		t.Error("CI with no trials should be 0")
	}
	// Monotone shrink with n, and symmetry in p.
	if ProportionCI95(0.3, 100) <= ProportionCI95(0.3, 10000) {
		t.Error("CI should shrink as n grows")
	}
	if a, b := ProportionCI95(0.2, 500), ProportionCI95(0.8, 500); !approx(a, b, 1e-12) {
		t.Errorf("CI should be symmetric in p: %v vs %v", a, b)
	}
}

func TestRegIncompleteBetaKnownValues(t *testing.T) {
	tests := []struct {
		a, b, x float64
		want    float64
	}{
		{1, 1, 0.5, 0.5},   // uniform CDF
		{1, 1, 0.25, 0.25}, // uniform CDF
		{2, 2, 0.5, 0.5},   // symmetric beta
		{2, 1, 0.5, 0.25},  // I_x(2,1) = x^2
		{1, 2, 0.5, 0.75},  // 1-(1-x)^2
		{5, 5, 0.5, 0.5},   // symmetry
		{0.5, 0.5, 0.5, 0.5} /* arcsine distribution median */}
	for _, tt := range tests {
		got := RegIncompleteBeta(tt.a, tt.b, tt.x)
		if !approx(got, tt.want, 1e-10) {
			t.Errorf("I_%v(%v,%v) = %v, want %v", tt.x, tt.a, tt.b, got, tt.want)
		}
	}
	if RegIncompleteBeta(2, 3, 0) != 0 || RegIncompleteBeta(2, 3, 1) != 1 {
		t.Error("boundary values wrong")
	}
}

func TestRegIncompleteBetaMonotone(t *testing.T) {
	f := func(raw uint16) bool {
		x1 := float64(raw%1000) / 1000
		x2 := x1 + 0.0005
		return RegIncompleteBeta(3, 2, x1) <= RegIncompleteBeta(3, 2, x2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTwoTailedPKnownValues(t *testing.T) {
	// Classic t-table values: with df=10, t=2.228 gives p=0.05 two-tailed.
	if p := TwoTailedP(2.228, 10); !approx(p, 0.05, 0.001) {
		t.Errorf("p(2.228, df=10) = %v, want 0.05", p)
	}
	// df=1 (Cauchy): t=1 gives two-tailed p = 0.5.
	if p := TwoTailedP(1, 1); !approx(p, 0.5, 1e-9) {
		t.Errorf("p(1, df=1) = %v, want 0.5", p)
	}
	// t=0 gives p=1.
	if p := TwoTailedP(0, 5); !approx(p, 1, 1e-12) {
		t.Errorf("p(0, df=5) = %v, want 1", p)
	}
	// Symmetry.
	if TwoTailedP(2.5, 7) != TwoTailedP(-2.5, 7) {
		t.Error("two-tailed p must be symmetric in t")
	}
	// Large t gives tiny p.
	if p := TwoTailedP(50, 10); p > 1e-10 {
		t.Errorf("p(50, df=10) = %v, want ~0", p)
	}
}

func TestPairedTTestIdenticalSamples(t *testing.T) {
	a := []float64{0.1, 0.2, 0.3, 0.4}
	res, err := PairedTTest(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 || res.T != 0 {
		t.Errorf("identical samples: T=%v P=%v, want 0 and 1", res.T, res.P)
	}
}

func TestPairedTTestConstantShift(t *testing.T) {
	a := []float64{0.1, 0.2, 0.3, 0.4}
	b := []float64{0.2, 0.3, 0.4, 0.5}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// A constant nonzero shift (up to float rounding): certain rejection.
	if res.P > 1e-9 {
		t.Errorf("constant shift: P=%v, want ~0", res.P)
	}
}

func TestPairedTTestNoisyEquivalent(t *testing.T) {
	// Small, sign-balanced noise: the test must not reject.
	a := []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60}
	b := []float64{0.11, 0.19, 0.31, 0.39, 0.51, 0.59}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.5 {
		t.Errorf("balanced noise: P=%v, want large", res.P)
	}
	if res.DF != 5 {
		t.Errorf("DF = %d, want 5", res.DF)
	}
}

func TestPairedTTestClearDifference(t *testing.T) {
	a := []float64{0.1, 0.12, 0.11, 0.13, 0.12, 0.10, 0.11, 0.12}
	b := []float64{0.31, 0.29, 0.33, 0.30, 0.32, 0.31, 0.30, 0.33}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.001 {
		t.Errorf("clear difference: P=%v, want tiny", res.P)
	}
}

func TestPairedTTestErrors(t *testing.T) {
	if _, err := PairedTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := PairedTTest([]float64{1}, []float64{1}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("single pair should be degenerate, got %v", err)
	}
}

func TestPairedTTestMatchesKnownExample(t *testing.T) {
	// Worked example: pre/post scores with mean difference 2.0,
	// differences {2,1,3,2,2}: sd = sqrt(0.5), t = 2/(sqrt(0.5)/sqrt(5))
	// = 6.3246, df = 4, two-tailed p ≈ 0.0032.
	pre := []float64{10, 12, 9, 11, 13}
	post := []float64{12, 13, 12, 13, 15}
	res, err := PairedTTest(post, pre)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.T, 6.3246, 0.001) {
		t.Errorf("T = %v, want 6.3246", res.T)
	}
	if !approx(res.P, 0.0032, 0.0005) {
		t.Errorf("P = %v, want ~0.0032", res.P)
	}
}

func TestPairedTTestAntisymmetry(t *testing.T) {
	f := func(raw [6]uint16) bool {
		a := make([]float64, 6)
		b := make([]float64, 6)
		for i, v := range raw {
			a[i] = float64(v%1000) / 1000
			b[i] = float64((v*7+13)%1000) / 1000
		}
		r1, err1 := PairedTTest(a, b)
		r2, err2 := PairedTTest(b, a)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return math.Abs(r1.T+r2.T) < 1e-9 && math.Abs(r1.P-r2.P) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTwoTailedPMonotoneInT(t *testing.T) {
	f := func(raw uint16) bool {
		t1 := float64(raw%500) / 100
		t2 := t1 + 0.01
		return TwoTailedP(t2, 9) <= TwoTailedP(t1, 9)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
