package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestWilsonBoundsClamped hits the floating-point cancellation corners:
// at p ∈ {0, 1} the center and half-width terms nearly cancel and the
// raw algebra can stray outside [0, 1] by a few ULPs. The bounds must be
// proper probabilities at every boundary combination.
func TestWilsonBoundsClamped(t *testing.T) {
	for _, p := range []float64{0, 1} {
		for _, n := range []int{1, 1e9} {
			lo, hi := WilsonBounds(p, n)
			if lo < 0 || hi > 1 {
				t.Errorf("WilsonBounds(%v, %d) = (%v, %v): outside [0,1]", p, n, lo, hi)
			}
			if lo > hi {
				t.Errorf("WilsonBounds(%v, %d) = (%v, %v): lo > hi", p, n, lo, hi)
			}
			// The interval must stay informative: p=0 keeps a positive
			// upper bound, p=1 a sub-one lower bound.
			if p == 0 && hi <= 0 {
				t.Errorf("WilsonBounds(0, %d): hi = %v, want > 0", n, hi)
			}
			if p == 1 && lo >= 1 {
				t.Errorf("WilsonBounds(1, %d): lo = %v, want < 1", n, lo)
			}
			// At the boundary the estimate itself is inside its interval.
			if p < lo || p > hi {
				t.Errorf("WilsonBounds(%v, %d) = (%v, %v): does not contain p", p, n, lo, hi)
			}
		}
	}
}

func TestWilsonBoundsMidRangeUnchanged(t *testing.T) {
	// The clamp must not perturb an interior interval: reproduce the raw
	// score computation and compare exactly.
	p, n := 0.3, 500
	const z = 1.96
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)) / denom
	lo, hi := WilsonBounds(p, n)
	if lo != center-half || hi != center+half {
		t.Errorf("mid-range bounds perturbed: got (%v, %v), want (%v, %v)",
			lo, hi, center-half, center+half)
	}
}

// TestWeightedWilsonEqualsUnweighted: with a uniform-weight tally the
// Kish effective size is exactly N and the weighted Wilson interval must
// equal the unweighted one bit-for-bit.
func TestWeightedWilsonEqualsUnweighted(t *testing.T) {
	for _, w := range []float64{1, 2.5, 0.125} {
		var tal WeightedTally
		n, hits := 40, 7
		for i := 0; i < n; i++ {
			tal.Add(w, i < hits)
		}
		if got := tal.KishNeff(); math.Abs(got-float64(n)) > 1e-9 {
			t.Errorf("w=%v: KishNeff = %v, want %d", w, got, n)
		}
		p := float64(hits) / float64(n)
		if got := tal.Proportion(); math.Abs(got-p) > 1e-12 {
			t.Errorf("w=%v: Proportion = %v, want %v", w, got, p)
		}
		wlo, whi := tal.WilsonBounds()
		lo, hi := WilsonBounds(p, n)
		if math.Abs(wlo-lo) > 1e-12 || math.Abs(whi-hi) > 1e-12 {
			t.Errorf("w=%v: weighted bounds (%v, %v) != unweighted (%v, %v)", w, wlo, whi, lo, hi)
		}
	}
}

func TestKishNeffDegeneratesToN(t *testing.T) {
	var tal WeightedTally
	for i := 0; i < 123; i++ {
		tal.Add(1, i%5 == 0)
	}
	if got := tal.KishNeff(); got != 123 {
		t.Errorf("KishNeff under unit weights = %v, want 123", got)
	}
	// Unequal weights strictly lower it.
	tal.Add(10, false)
	if got := tal.KishNeff(); got >= 124 {
		t.Errorf("KishNeff with one heavy weight = %v, want < 124", got)
	}
}

func TestHTEffectiveNUniform(t *testing.T) {
	// Unit weights (q = 1 everywhere): HitVar is 0, so the HT effective
	// size equals the slot count exactly and the HT interval matches the
	// plain Wilson interval.
	var tal WeightedTally
	n, hits := 200, 11
	for i := 0; i < n; i++ {
		tal.Add(1, i < hits)
	}
	if got := tal.HTEffectiveN(float64(n)); math.Abs(got-float64(n)) > 1e-9 {
		t.Errorf("HTEffectiveN = %v, want %d", got, n)
	}
	hlo, hhi := WeightedWilsonBounds(tal.HTProportion(float64(n)), tal.HTEffectiveN(float64(n)))
	lo, hi := WilsonBounds(float64(hits)/float64(n), n)
	if math.Abs(hlo-lo) > 1e-12 || math.Abs(hhi-hi) > 1e-12 {
		t.Errorf("HT bounds (%v, %v) != Wilson (%v, %v)", hlo, hhi, lo, hi)
	}
}

func TestWeightedTallyRejectsBadWeights(t *testing.T) {
	var tal WeightedTally
	tal.Add(0, true)
	tal.Add(-3, true)
	tal.Add(math.Inf(1), true)
	tal.Add(math.NaN(), true)
	if tal.N != 0 || tal.W != 0 {
		t.Errorf("bad weights were recorded: %+v", tal)
	}
}

// TestInverseProbabilityUnbiased simulates the two-stage design on a
// closed-form toy: a population of N slots with K true successes, each
// slot kept with a probability q that depends on its outcome (the
// adversarial case for biased estimators — success-bearing slots are
// *under*sampled). The Horvitz-Thompson estimate averaged over many
// seeded rounds must converge to K/N, and the Hájek estimate must come
// close (it is only asymptotically unbiased).
func TestInverseProbabilityUnbiased(t *testing.T) {
	const (
		slots  = 400
		truthK = 60
		rounds = 3000
		qHit   = 0.3 // success slots kept at 30%
		qMiss  = 0.8
	)
	truth := float64(truthK) / float64(slots)
	rng := rand.New(rand.NewSource(12345))
	sumHT, sumHajek := 0.0, 0.0
	cover := 0
	for r := 0; r < rounds; r++ {
		var tal WeightedTally
		for i := 0; i < slots; i++ {
			hit := i < truthK
			q := qMiss
			if hit {
				q = qHit
			}
			if rng.Float64() < q {
				tal.Add(1/q, hit)
			}
		}
		sumHT += tal.HTProportion(slots)
		sumHajek += tal.Proportion()
		if lo, hi := WeightedWilsonBounds(tal.HTProportion(slots), tal.HTEffectiveN(slots)); lo <= truth && truth <= hi {
			cover++
		}
	}
	meanHT := sumHT / rounds
	// Monte-Carlo SE of the mean over `rounds` rounds; 5σ tolerance.
	perRoundVar := truth * (1 - truth) / slots
	perRoundVar += (truthK * (1 - qHit) / (qHit)) / float64(slots*slots)
	se := math.Sqrt(perRoundVar / rounds)
	if math.Abs(meanHT-truth) > 5*se {
		t.Errorf("HT estimate biased: mean %v vs truth %v (tol %v)", meanHT, truth, 5*se)
	}
	if math.Abs(sumHajek/rounds-truth) > 0.01 {
		t.Errorf("Hájek estimate far off: mean %v vs truth %v", sumHajek/rounds, truth)
	}
	// The variance-matched Wilson interval should cover the truth at
	// roughly its nominal 95% rate; allow generous slack for the
	// normal approximation at moderate n.
	if rate := float64(cover) / rounds; rate < 0.88 {
		t.Errorf("CI coverage %v, want >= 0.88", rate)
	}
}

func TestHTEffectiveNDegenerateFallsBackToKish(t *testing.T) {
	// All-benign stratified tally: p̂ = 0, estimated variance 0. The
	// effective size must fall back to Kish (capped at the slot count)
	// so the interval stays positive-width.
	var tal WeightedTally
	for i := 0; i < 50; i++ {
		tal.Add(4, false) // q = 0.25
	}
	neff := tal.HTEffectiveN(200)
	if neff <= 0 || neff > 200 {
		t.Errorf("degenerate HTEffectiveN = %v, want in (0, 200]", neff)
	}
	if ci := WeightedProportionCI95(tal.HTProportion(200), tal.HTEffectiveN(200)); ci <= 0 {
		t.Errorf("degenerate HT CI = %v, want > 0", ci)
	}
}

// TestWeightedWilsonBoundsDegenerateInputs: with no effective sample (or
// an undefined point estimate) the interval must be the defined
// full-width [0, 1] — never NaN and never a zero-width interval that
// would read as certainty.
func TestWeightedWilsonBoundsDegenerateInputs(t *testing.T) {
	for _, neff := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if lo, hi := WeightedWilsonBounds(0.5, neff); lo != 0 || hi != 1 {
			t.Errorf("neff=%v: got (%v, %v), want (0, 1)", neff, lo, hi)
		}
	}
	if lo, hi := WeightedWilsonBounds(math.NaN(), 10); lo != 0 || hi != 1 {
		t.Errorf("NaN p: got (%v, %v), want (0, 1)", lo, hi)
	}
	for _, p := range []float64{0, 0.25, 1, math.NaN()} {
		if ci := WeightedProportionCI95(p, 0); math.IsNaN(ci) || ci < 0.5 || ci > 1 {
			t.Errorf("WeightedProportionCI95(%v, 0) = %v, want full-width in [0.5, 1]", p, ci)
		}
	}
}

// TestKishNeffDegenerateCorners: the weight-zero corners (empty tally,
// NaN or infinite weight sums) must yield a defined n_eff = 0, which the
// interval machinery then maps to a full-width [0, 1] interval.
func TestKishNeffDegenerateCorners(t *testing.T) {
	cases := []struct{ w, w2 float64 }{
		{0, 0},                     // zero-trial tally
		{-1, 1},                    // negative sum (impossible via Add, defensive)
		{math.NaN(), math.NaN()},   // poisoned sums
		{math.Inf(1), math.Inf(1)}, // infinite sums
		{math.Inf(1), 4},           // one infinite moment
	}
	for _, c := range cases {
		if got := KishNeff(c.w, c.w2); got != 0 {
			t.Errorf("KishNeff(%v, %v) = %v, want 0", c.w, c.w2, got)
		}
	}
	var empty WeightedTally
	if neff := empty.KishNeff(); neff != 0 {
		t.Errorf("empty tally KishNeff = %v, want 0", neff)
	}
	if lo, hi := empty.WilsonBounds(); lo != 0 || hi != 1 {
		t.Errorf("empty tally WilsonBounds = (%v, %v), want (0, 1)", lo, hi)
	}
	if ci := WeightedProportionCI95(empty.Proportion(), empty.KishNeff()); math.IsNaN(ci) || ci != 1 {
		t.Errorf("empty tally CI95 = %v, want 1", ci)
	}
	if lo, hi := WeightedWilsonBounds(empty.HTProportion(0), empty.HTEffectiveN(0)); lo != 0 || hi != 1 {
		t.Errorf("empty tally HT bounds over 0 slots = (%v, %v), want (0, 1)", lo, hi)
	}
}

// FuzzWeightedTally checks the tally's structural invariants over
// arbitrary weight/outcome streams: estimates are proper probabilities,
// Kish n_eff never exceeds the observation count, intervals are ordered
// and clamped, and uniform streams reduce exactly to the unweighted path.
func FuzzWeightedTally(f *testing.F) {
	f.Add(uint64(1), uint16(8), false)
	f.Add(uint64(99), uint16(100), true)
	f.Add(uint64(7), uint16(1), false)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, uniform bool) {
		rng := rand.New(rand.NewSource(int64(seed)))
		var tal WeightedTally
		count := int(n%256) + 1
		for i := 0; i < count; i++ {
			w := 1.0
			if !uniform {
				// Weights in (0, 64]: inverse inclusion probabilities
				// plus sub-one weights to hit the HitVar floor.
				w = math.Ldexp(rng.Float64()+1e-9, rng.Intn(7)-1)
			}
			hit := rng.Intn(3) == 0
			tal.Add(w, hit)
		}
		if p := tal.Proportion(); p < 0 || p > 1 {
			t.Fatalf("Proportion = %v", p)
		}
		if k := tal.KishNeff(); k < 0 || k > float64(tal.N)+1e-9 {
			t.Fatalf("KishNeff = %v with N = %d", k, tal.N)
		}
		if tal.HitVar < 0 {
			t.Fatalf("HitVar = %v, want >= 0", tal.HitVar)
		}
		denom := float64(count) * 2
		for _, pair := range [][2]float64{
			firstPair(tal.WilsonBounds()),
			firstPair(WeightedWilsonBounds(tal.HTProportion(denom), tal.HTEffectiveN(denom))),
		} {
			lo, hi := pair[0], pair[1]
			if lo < 0 || hi > 1 || lo > hi {
				t.Fatalf("bounds (%v, %v) invalid", lo, hi)
			}
		}
		if neff := tal.HTEffectiveN(denom); neff < 0 || math.IsNaN(neff) {
			t.Fatalf("HTEffectiveN = %v", neff)
		}
		if uniform {
			if k := tal.KishNeff(); math.Abs(k-float64(tal.N)) > 1e-9 {
				t.Fatalf("uniform KishNeff = %v, want %d", k, tal.N)
			}
			wlo, whi := tal.WilsonBounds()
			lo, hi := WilsonBounds(tal.Proportion(), tal.N)
			if math.Abs(wlo-lo) > 1e-12 || math.Abs(whi-hi) > 1e-12 {
				t.Fatalf("uniform weighted bounds (%v, %v) != unweighted (%v, %v)", wlo, whi, lo, hi)
			}
		}
	})
}

func firstPair(lo, hi float64) [2]float64 { return [2]float64{lo, hi} }
