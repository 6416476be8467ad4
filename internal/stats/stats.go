// Package stats provides the statistical machinery the paper's evaluation
// uses: normal-approximation confidence intervals for FI campaigns, the
// paired two-tailed Student t-test used to compare model predictions with
// FI measurements (§V-B), and summary metrics (mean absolute error).
//
// The t-distribution CDF is computed from the regularized incomplete beta
// function (continued-fraction form), implemented here from scratch since
// the repository uses only the standard library. DESIGN.md §4 lists the
// experiments whose significance tests run through this package.
package stats

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for fewer than
// two values).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n-1)
}

// MeanAbsError returns the mean absolute difference between paired
// predictions and measurements — the accuracy metric of §V-B1.
func MeanAbsError(pred, meas []float64) (float64, error) {
	if len(pred) != len(meas) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(pred) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i := range pred {
		sum += math.Abs(pred[i] - meas[i])
	}
	return sum / float64(len(pred)), nil
}

// ProportionCI95 returns the half-width of the 95% confidence interval of
// a proportion p measured over n trials — the paper's FI error bars. It
// uses the Wilson score interval rather than the textbook normal
// approximation: the normal half-width 1.96*sqrt(p(1-p)/n) collapses to
// zero when p is exactly 0 or 1, which silently overstates confidence
// for low-SDC programs (observing 0 SDCs in n trials bounds the true
// rate near 3.84/(n+3.84), not 0). The Wilson half-width stays positive
// for every finite n and converges to the normal approximation as n
// grows, so mid-range error bars change only marginally.
//
// The reported interval is centered on the measured p (as the paper's
// plots are), so the half-width is the distance from p to the farther
// Wilson bound.
func ProportionCI95(p float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	lo, hi := WilsonBounds(p, n)
	return math.Max(p-lo, hi-p)
}

// WilsonBounds returns the lower and upper 95% Wilson score bounds of a
// proportion p measured over n trials.
//
// It is the integral-n special case of WeightedWilsonBounds and inherits
// its [0, 1] clamp: at p ∈ {0, 1} the raw score algebra cancels two
// nearly-equal terms and can land a few ULPs outside the unit interval.
func WilsonBounds(p float64, n int) (lo, hi float64) {
	if n <= 0 {
		return 0, 0
	}
	return WeightedWilsonBounds(p, float64(n))
}

// TTestResult is the outcome of a paired two-tailed t-test.
type TTestResult struct {
	// T is the test statistic.
	T float64
	// DF is the degrees of freedom (n-1).
	DF int
	// P is the two-tailed p-value. Under the conventional criterion, the
	// null hypothesis (no difference) is rejected when P < 0.05.
	P float64
}

// ErrDegenerate is returned when the test cannot be computed (fewer than
// two pairs).
var ErrDegenerate = errors.New("stats: fewer than two pairs")

// PairedTTest runs the paired two-tailed Student t-test the paper uses to
// compare predicted and measured SDC probabilities (§V-B). A large
// p-value (> 0.05) means the predictions are statistically
// indistinguishable from the measurements.
//
// When every pairwise difference is identical (zero variance), the test
// degenerates: P is 1 when the common difference is zero and 0 otherwise.
func PairedTTest(a, b []float64) (TTestResult, error) {
	if len(a) != len(b) {
		return TTestResult{}, errors.New("stats: length mismatch")
	}
	n := len(a)
	if n < 2 {
		return TTestResult{}, ErrDegenerate
	}
	diffs := make([]float64, n)
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	meanD := Mean(diffs)
	varD := Variance(diffs)
	df := n - 1
	if varD == 0 {
		if meanD == 0 {
			return TTestResult{T: 0, DF: df, P: 1}, nil
		}
		return TTestResult{T: math.Inf(sign(meanD)), DF: df, P: 0}, nil
	}
	t := meanD / math.Sqrt(varD/float64(n))
	return TTestResult{T: t, DF: df, P: TwoTailedP(t, df)}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// TwoTailedP returns the two-tailed p-value of a t statistic with df
// degrees of freedom: P(|T| >= |t|).
func TwoTailedP(t float64, df int) float64 {
	if df <= 0 {
		return 1
	}
	x := float64(df) / (float64(df) + t*t)
	// P(|T| >= |t|) = I_x(df/2, 1/2).
	return RegIncompleteBeta(float64(df)/2, 0.5, x)
}

// RegIncompleteBeta computes the regularized incomplete beta function
// I_x(a, b) for a, b > 0 and x in [0, 1], using the continued-fraction
// expansion (Numerical Recipes' betacf scheme, reimplemented).
func RegIncompleteBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta
// function via the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIters = 300
		eps      = 3e-14
		fpmin    = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIters; m++ {
		fm := float64(m)
		m2 := 2 * fm

		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c

		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
