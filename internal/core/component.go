package core

import "math"

// maxRounds bounds the rounds of one direct solve; a component still
// unsettled after them falls back to the worklist update.
const maxRounds = 16

// settleTol is the relative change below which a component's values count
// as settled, and the band-mix difference below which two values count
// as parallel.
const settleTol = 1e-12

// capSlack is the relative excess of a member's input over its cap from
// which the member counts as held at the cap rather than sitting at it.
const capSlack = 1e-10

// innerEdge is one live edge inside a cyclic component, between member
// indices.
type innerEdge struct {
	from, to int32
	w        float64
	tr       *transition
}

// dense is the direct solver of one cyclic component's fixed point
//
//	x_v = cap_v(ext_v + Σ_{u→v} x_u·w·T),
//
// where x_v is member v's banded value, ext_v its final input from
// outside the component, and cap_v scales a total above caps[v] down to
// it, keeping the band mix. Its buffers are reused across components and
// walks.
type dense struct {
	inner []innerEdge
	ext   []bandPair
	caps  []float64
	// x is the current estimate and, after settle, the solution; in and y
	// are the inputs and capped values it implies.
	x, in, y []bandPair
	// a and b hold the nClasses·k × nClasses·k linear system.
	a, b []float64
}

// size prepares the buffers for a component of k members.
func (d *dense) size(k int) {
	n := k * nClasses
	if cap(d.x) < k {
		d.ext, d.caps = make([]bandPair, k), make([]float64, k)
		d.x, d.in, d.y = make([]bandPair, k), make([]bandPair, k), make([]bandPair, k)
		d.a, d.b = make([]float64, n*n), make([]float64, n)
	}
	d.ext, d.caps = d.ext[:k], d.caps[:k]
	d.x, d.in, d.y = d.x[:k], d.in[:k], d.y[:k]
	d.a, d.b = d.a[:n*n], d.b[:n]
}

// settle solves the fixed point in active-set rounds, leaving it in x.
// Each round takes the members whose input exceeds their cap as capped
// and solves one linear system: uncapped members exactly, capped ones
// held at their cap with their band mix linearized around the current
// input (a Newton step, so a mix that loops through the component settles
// in a few rounds). The rounds stop when the values stop changing, not
// when the capped set does: a loop whose limit sits exactly at its cap
// flips in and out of the set on rounding alone. A round whose system has
// no non-negative solution (the uncapped flow has gain ≥ 1, so only caps
// bound it) takes one plain update x = cap(ext + flow(x)) instead. settle
// returns the number of rounds and whether the values settled within
// maxRounds.
func (d *dense) settle() (rounds int, ok bool) {
	k := len(d.x)
	n := k * nClasses
	clear(d.x)
	for ; ; rounds++ {
		d.inflow()
		settled := true
		for i := range d.y {
			d.y[i] = capTotal(d.in[i], d.caps[i])
			if !near(d.y[i], d.x[i]) {
				settled = false
			}
		}
		if settled {
			copy(d.x, d.y)
			return rounds, true
		}
		if rounds == maxRounds {
			return rounds, false
		}

		// Row (v, band) reads x_v[band] − Σ flow_v[band] = ext_v[band] for
		// an uncapped member. A capped member with input total t, mix
		// δ = in_v/t and scale σ = cap_v/t takes
		// x_v = cap_v·δ + σ·(I − δ·1ᵀ)(in_v' − in_v), which keeps its
		// total at the cap and lets only its mix move.
		a, b := d.a, d.b
		clear(a)
		for i := range k {
			ext, in, c := d.ext[i], d.in[i], d.caps[i]
			if t := in.total(); t > c {
				et := ext.total()
				for band := range nClasses {
					dir := in[band] / t
					ext[band] = c*dir + c/t*(ext[band]-dir*et)
				}
			}
			for band := range nClasses {
				r := i*nClasses + band
				a[r*n+r] = 1
				b[r] = ext[band]
			}
		}
		for _, e := range d.inner {
			in, c := d.in[e.to], d.caps[e.to]
			t := in.total()
			for from := range nClasses {
				col := int(e.from)*nClasses + from
				for band := range nClasses {
					f := e.w * e.tr[from][band]
					if t > c {
						f = c / t * (f - in[band]/t*e.w*e.tr.propTotal(from))
					}
					a[(int(e.to)*nClasses+band)*n+col] -= f
				}
			}
		}
		if !solveLinear(a, b, n) {
			copy(d.x, d.y)
			continue
		}
		for i := range d.x {
			copy(d.x[i][:], b[i*nClasses:])
		}
	}
}

// inflow sets in to ext plus the flow along the inner edges from x.
func (d *dense) inflow() {
	copy(d.in, d.ext)
	for _, e := range d.inner {
		f := flow(d.x[e.from], e.w, e.tr)
		for band := range f {
			d.in[e.to][band] += f[band]
		}
	}
}

// drifts reports whether the settled solution has a member held above
// its cap whose inputs do not all share one band mix. Such a member's mix
// keeps shifting while the worklist update climbs toward the limit, and
// since the worklist never takes back a contribution that has grown, its
// limit keeps the bands the mix shifted away from: it differs from the
// exact fixed point.
func (d *dense) drifts() bool {
	for i, in := range d.in {
		if in.total() <= d.caps[i]*(1+capSlack) {
			continue
		}
		if !parallel(d.ext[i], in) {
			return true
		}
		for _, e := range d.inner {
			if int(e.to) == i && !parallel(flow(d.x[e.from], e.w, e.tr), in) {
				return true
			}
		}
	}
	return false
}

// flow returns the banded flow r·w·T along one edge.
func flow(r bandPair, w float64, tr *transition) bandPair {
	var f bandPair
	for from := range nClasses {
		for band := range nClasses {
			f[band] += r[from] * w * tr[from][band]
		}
	}
	return f
}

// near reports whether a and b agree to settleTol relative to the larger
// total.
func near(a, b bandPair) bool {
	tol := settleTol * max(a.total(), b.total())
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// parallel reports whether p has the band mix of q to settleTol; a zero p
// has every mix.
func parallel(p, q bandPair) bool {
	tp, tq := p.total(), q.total()
	if tp == 0 {
		return true
	}
	for band := range p {
		if math.Abs(p[band]/tp-q[band]/tq) > settleTol {
			return false
		}
	}
	return true
}

// solveLinear solves a·x = b in place by Gaussian elimination with partial
// pivoting, leaving x in b, for a row-major n×n matrix a. It reports false
// when a is singular or x is not a usable banded value: non-finite, or
// clearly negative. A component's flow equations have a non-negative
// solution only where the inputs reach no loop of gain ≥ 1, so a negative
// one marks a loop that only the caps bound. Rounding noise below zero is
// cleared.
func solveLinear(a, b []float64, n int) bool {
	for k := range n {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(a[i*n+k]) > math.Abs(a[p*n+k]) {
				p = i
			}
		}
		if a[p*n+k] == 0 {
			return false
		}
		if p != k {
			for j := k; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
			b[k], b[p] = b[p], b[k]
		}
		for i := k + 1; i < n; i++ {
			l := a[i*n+k] / a[k*n+k]
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= l * a[k*n+j]
			}
			b[i] -= l * b[k]
		}
	}
	scale := 0.0
	for i := n - 1; i >= 0; i-- {
		v := b[i]
		for j := i + 1; j < n; j++ {
			v -= a[i*n+j] * b[j]
		}
		v /= a[i*n+i]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
		b[i] = v
		scale = max(scale, math.Abs(v))
	}
	for i, v := range b {
		if v < 0 {
			if v < -settleTol*scale {
				return false
			}
			b[i] = 0
		}
	}
	return true
}
