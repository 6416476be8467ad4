// Package irgen generates random, well-formed, terminating IR programs
// for property-based testing: every generated module passes the verifier,
// runs to completion under the interpreter, produces output, and is
// deterministic — which lets tests assert invariants of the interpreter,
// the profiler, the TRIDENT model and the protection pass over a much
// larger program space than the hand-written corpus. DESIGN.md §5e
// describes the cross-check oracle this corpus feeds.
package irgen

import (
	"fmt"

	"trident/internal/ir"
)

// Config bounds the generated program shape.
type Config struct {
	// Seed selects the program; equal seeds generate equal programs.
	Seed uint64
	// MaxLoops bounds the number of sequential counted loops (default 3).
	MaxLoops int
	// MaxExprDepth bounds expression nesting per statement (default 4).
	MaxExprDepth int
	// MaxGlobals bounds the number of global arrays (default 3).
	MaxGlobals int
	// Frames adds call-stack and output shapes: a recursive helper that
	// allocates a stack buffer in every activation, called from each
	// loop body, whose result is stored to an alloca made in that loop
	// body and printed there. Off, a seed generates the same program as
	// without the field.
	Frames bool
}

func (c Config) withDefaults() Config {
	if c.MaxLoops == 0 {
		c.MaxLoops = 3
	}
	if c.MaxExprDepth == 0 {
		c.MaxExprDepth = 4
	}
	if c.MaxGlobals == 0 {
		c.MaxGlobals = 3
	}
	return c
}

// rng is a deterministic xorshift generator.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) chance(percent int) bool { return r.intn(100) < percent }

// generator carries the in-progress program state.
type generator struct {
	cfg     Config
	rnd     *rng
	m       *ir.Module
	b       *ir.Builder
	globals []*ir.Global
	// intVals are in-scope i64 values usable as operands.
	intVals []ir.Value
	// floatVals are in-scope f64 values.
	floatVals []ir.Value
	// rec is the recursive helper (Config.Frames only).
	rec *ir.Func
}

// Generate builds a random verified module. The generated program is a
// sequence of counted loops that fill, transform and reduce global
// arrays, with nested conditionals, compare-select idioms, float math and
// at least one print — the same structural vocabulary as the benchmark
// suite, arranged randomly.
func Generate(cfg Config) *ir.Module {
	cfg = cfg.withDefaults()
	g := &generator{
		cfg: cfg,
		rnd: &rng{s: cfg.Seed*0x9E3779B97F4A7C15 + 0x1234567},
		m:   ir.NewModule(fmt.Sprintf("rand-%d", cfg.Seed)),
	}
	g.rnd.next()
	g.rnd.next()

	nGlobals := 1 + g.rnd.intn(cfg.MaxGlobals)
	for i := 0; i < nGlobals; i++ {
		elem := ir.I64
		if g.rnd.chance(40) {
			elem = ir.F64
		}
		size := 4 + g.rnd.intn(13)
		init := make([]uint64, size)
		for k := range init {
			if elem == ir.F64 {
				init[k] = ir.FloatToBits(ir.F64, float64(g.rnd.intn(2000))/100-10)
			} else {
				init[k] = uint64(g.rnd.intn(100))
			}
		}
		g.globals = append(g.globals,
			g.m.AddGlobal(fmt.Sprintf("g%d", i), elem, size, init))
	}

	if cfg.Frames {
		g.emitRec()
	}
	f := g.m.NewFunc("main", ir.Void)
	g.b = ir.NewBuilder(f)
	g.b.SetBlock(g.b.NewBlock("entry"))
	g.intVals = []ir.Value{ir.ConstInt(ir.I64, int64(1+g.rnd.intn(9)))}
	g.floatVals = []ir.Value{ir.ConstFloat(ir.F64, float64(g.rnd.intn(100))/10)}

	nLoops := 1 + g.rnd.intn(cfg.MaxLoops)
	for i := 0; i < nLoops; i++ {
		g.emitLoop(i)
	}
	g.emitOutput()
	g.b.Ret(nil)

	for _, fn := range g.m.Funcs {
		fn.Renumber()
	}
	if err := ir.Verify(g.m); err != nil {
		panic(fmt.Sprintf("irgen: generated invalid module (seed %d): %v", cfg.Seed, err))
	}
	return g.m
}

// pickGlobal returns a random global and a safely clamped index value for
// it derived from idx.
func (g *generator) pickGlobal(idx ir.Value) (*ir.Global, ir.Value) {
	gl := g.globals[g.rnd.intn(len(g.globals))]
	// idx mod size keeps every access in bounds regardless of loop bound.
	wrapped := g.b.SRem(idx, ir.ConstInt(ir.I64, int64(gl.Count)))
	return gl, wrapped
}

// emitLoop generates one counted loop whose body stores into a random
// global and optionally reduces into an accumulator that is printed.
func (g *generator) emitLoop(id int) {
	b := g.b
	bound := int64(4 + g.rnd.intn(20))
	pre := b.Block()
	head := b.NewBlock(fmt.Sprintf("l%d.head", id))
	body := b.NewBlock(fmt.Sprintf("l%d.body", id))
	exit := b.NewBlock(fmt.Sprintf("l%d.exit", id))

	withAcc := g.rnd.chance(60)

	b.Br(head)
	b.SetBlock(head)
	i := b.Phi(ir.I64)
	var acc *ir.Instr
	if withAcc {
		acc = b.Phi(ir.I64)
	}
	cond := b.ICmp(ir.PredSLT, i, ir.ConstInt(ir.I64, bound))
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	g.intVals = append(g.intVals, i)

	// A couple of statements.
	nStmts := 1 + g.rnd.intn(3)
	var accNext ir.Value
	if withAcc {
		accNext = acc
	}
	for s := 0; s < nStmts; s++ {
		switch g.rnd.intn(4) {
		case 0: // store an int expression
			gl, idx := g.pickGlobal(i)
			if gl.Elem == ir.F64 {
				v := g.floatExpr(g.cfg.MaxExprDepth)
				b.Store(v, b.Gep(ir.F64, gl, idx))
			} else {
				v := g.intExpr(g.cfg.MaxExprDepth)
				b.Store(v, b.Gep(ir.I64, gl, idx))
			}
		case 1: // load and remember
			gl, idx := g.pickGlobal(i)
			v := b.Load(gl.Elem, b.Gep(gl.Elem, gl, idx))
			if gl.Elem == ir.F64 {
				g.floatVals = append(g.floatVals, v)
			} else {
				g.intVals = append(g.intVals, v)
			}
		case 2: // conditional store (control-flow divergence material)
			gl, idx := g.pickGlobal(i)
			c := b.ICmp(g.randIntPred(), g.intOperand(), g.intOperand())
			thenBlk := b.NewBlock(fmt.Sprintf("l%d.s%d.then", id, s))
			join := b.NewBlock(fmt.Sprintf("l%d.s%d.join", id, s))
			b.CondBr(c, thenBlk, join)
			b.SetBlock(thenBlk)
			if gl.Elem == ir.F64 {
				b.Store(g.floatExpr(2), b.Gep(ir.F64, gl, idx))
			} else {
				b.Store(g.intExpr(2), b.Gep(ir.I64, gl, idx))
			}
			b.Br(join)
			b.SetBlock(join)
		case 3: // accumulate
			if withAcc {
				accNext = b.Add(accNext, g.intExpr(2))
			} else {
				gl, idx := g.pickGlobal(i)
				v := b.Load(gl.Elem, b.Gep(gl.Elem, gl, idx))
				if gl.Elem == ir.I64 {
					g.intVals = append(g.intVals, v)
				} else {
					g.floatVals = append(g.floatVals, v)
				}
			}
		}
	}

	if g.rec != nil {
		// Recursion depth i&3 keeps the stack shallow on the golden run.
		r := b.Call(g.rec, b.And(i, ir.ConstInt(ir.I64, 3)), g.intOperand())
		buf := b.Alloca(ir.I64, 1)
		b.Store(r, buf)
		v := b.Load(ir.I64, buf)
		b.Print(v)
		g.intVals = append(g.intVals, v)
	}

	latch := b.Block()
	inc := b.Add(i, ir.ConstInt(ir.I64, 1))
	b.Br(head)
	b.AddIncoming(i, ir.ConstInt(ir.I64, 0), pre)
	b.AddIncoming(i, inc, latch)
	if withAcc {
		b.AddIncoming(acc, ir.ConstInt(ir.I64, 0), pre)
		b.AddIncoming(acc, accNext, latch)
	}

	b.SetBlock(exit)
	// The induction variable leaves scope; drop body-scoped values but
	// keep the accumulator.
	g.intVals = g.intVals[:1]
	g.floatVals = g.floatVals[:1]
	if withAcc {
		b.Print(acc)
		g.intVals = append(g.intVals, acc)
	}
}

// emitRec emits @rec(n, x): it stores x into a fresh two-cell stack
// buffer, recurses on n-1 with a mixed x while n > 0, and returns the
// callee's result plus the cell it stored, read back after the call.
func (g *generator) emitRec() {
	n, x := ir.NewParam("n", ir.I64), ir.NewParam("x", ir.I64)
	f := g.m.NewFunc("rec", ir.I64, n, x)
	b := ir.NewBuilder(f)
	b.SetBlock(b.NewBlock("entry"))
	recur := b.NewBlock("recur")
	base := b.NewBlock("base")
	cell := b.Gep(ir.I64, b.Alloca(ir.I64, 2), ir.ConstInt(ir.I64, int64(g.rnd.intn(2))))
	b.Store(x, cell)
	b.CondBr(b.ICmp(ir.PredSGT, n, ir.ConstInt(ir.I64, 0)), recur, base)

	b.SetBlock(recur)
	mixed := b.Xor(x, ir.ConstInt(ir.I64, int64(1+g.rnd.intn(255))))
	r := b.Call(f, b.Sub(n, ir.ConstInt(ir.I64, 1)), mixed)
	b.Ret(b.Add(r, b.Load(ir.I64, cell)))

	b.SetBlock(base)
	b.Ret(b.Load(ir.I64, cell))
	g.rec = f
}

// emitOutput prints a few global cells so every program has observable
// output even when no loop carried an accumulator.
func (g *generator) emitOutput() {
	b := g.b
	for _, gl := range g.globals {
		idx := ir.ConstInt(ir.I64, int64(g.rnd.intn(gl.Count)))
		v := b.Load(gl.Elem, b.Gep(gl.Elem, gl, idx))
		if gl.Elem == ir.F64 && g.rnd.chance(30) {
			b.PrintFmt(v, ir.FormatG2)
		} else {
			b.Print(v)
		}
	}
}

func (g *generator) randIntPred() ir.Predicate {
	preds := []ir.Predicate{ir.PredEQ, ir.PredNE, ir.PredSLT, ir.PredSLE, ir.PredSGT, ir.PredSGE}
	return preds[g.rnd.intn(len(preds))]
}

func (g *generator) intOperand() ir.Value {
	if g.rnd.chance(40) {
		return ir.ConstInt(ir.I64, int64(g.rnd.intn(50)))
	}
	return g.intVals[g.rnd.intn(len(g.intVals))]
}

func (g *generator) floatOperand() ir.Value {
	if g.rnd.chance(40) || len(g.floatVals) == 0 {
		return ir.ConstFloat(ir.F64, float64(g.rnd.intn(400))/40+0.5)
	}
	return g.floatVals[g.rnd.intn(len(g.floatVals))]
}

// intExpr emits a random integer expression of bounded depth. Divisions
// and remainders use strictly positive right operands so generated
// programs never fault on their own.
func (g *generator) intExpr(depth int) ir.Value {
	b := g.b
	if depth == 0 || g.rnd.chance(25) {
		return g.intOperand()
	}
	lhs := g.intExpr(depth - 1)
	switch g.rnd.intn(8) {
	case 0:
		return b.Add(lhs, g.intExpr(depth-1))
	case 1:
		return b.Sub(lhs, g.intExpr(depth-1))
	case 2:
		return b.Mul(lhs, g.intOperand())
	case 3:
		return b.And(lhs, g.intOperand())
	case 4:
		return b.Xor(lhs, g.intOperand())
	case 5:
		return b.SRem(lhs, ir.ConstInt(ir.I64, int64(3+g.rnd.intn(61))))
	case 6: // compare-select min/max idiom
		rhs := g.intExpr(depth - 1)
		c := b.ICmp(ir.PredSLT, lhs, rhs)
		return b.Select(c, lhs, rhs)
	default:
		return b.Shl(lhs, ir.ConstInt(ir.I64, int64(g.rnd.intn(8))))
	}
}

// floatExpr emits a random float expression of bounded depth.
func (g *generator) floatExpr(depth int) ir.Value {
	b := g.b
	if depth == 0 || g.rnd.chance(30) {
		return g.floatOperand()
	}
	lhs := g.floatExpr(depth - 1)
	switch g.rnd.intn(5) {
	case 0:
		return b.FAdd(lhs, g.floatExpr(depth-1))
	case 1:
		return b.FSub(lhs, g.floatOperand())
	case 2:
		return b.FMul(lhs, ir.ConstFloat(ir.F64, float64(1+g.rnd.intn(20))/10))
	case 3:
		return b.Intrinsic(ir.IntrinsicFabs, lhs)
	default:
		return b.Intrinsic(ir.IntrinsicFmin, lhs, ir.ConstFloat(ir.F64, 100))
	}
}
