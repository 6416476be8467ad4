package core

import (
	"cmp"
	"slices"

	"trident/internal/ir"
)

// identityEdge is the operand index of an edge whose transition is always
// band-preserving full propagation (a return value flowing to its call
// sites).
const identityEdge = -1

// edgeKind classifies what the target of an edge does with a corrupted
// operand when the walk's terminal probabilities are extracted.
type edgeKind uint8

const (
	// kindNone: a register-only consumer; nothing is extracted.
	kindNone edgeKind = iota
	// kindStoreValue: the stored value of a store.
	kindStoreValue
	// kindAddress: the address of a load or store (crash share).
	kindAddress
	// kindBranch: the condition of a conditional branch.
	kindBranch
	// kindGuard: the condition of a loop-terminating conditional branch,
	// which phase 2 of the walk treats as a bound check.
	kindGuard
	// kindOutput: a print that counts as program output.
	kindOutput
	// kindOutputG2: a reduced-precision float print, which only passes
	// top-band and replaced corruption.
	kindOutputG2
)

// cedge is one compiled interprocedural def-use edge: the result of its
// source node feeds operand opIdx of node `to`. Call-argument edges are
// folded through formal parameters (the argument's def connects directly
// to the parameter's users), and return edges connect a ret operand's def
// to every call site of the function with opIdx identityEdge.
type cedge struct {
	to    int32
	opIdx int32
	// slot is the edge whose fixpoint contribution this edge shares: the
	// first edge with the same (source, target, operand). A def passed
	// as the same argument at two call sites yields duplicate edges; the
	// fixpoint counts their contribution once.
	slot int32
	// guard is the loop-guarding conditional branch on the back edge a
	// phi-arm edge crosses, or -1.
	guard    int32
	kind     edgeKind
	terminal bool
	trReady  bool
	// weight is the static consumption weight (consumptionWeight).
	weight float64
	// tr and crash are the banded transition and crash share of the
	// target with operand opIdx corrupted, computed on first use.
	tr    transition
	crash float64
}

// graph is the module's def-use graph compiled into dense form: node IDs
// follow module instruction order, and the out-edges of node n are
// edges[start[n]:start[n+1]] in the order the consumers appear in the
// module.
type graph struct {
	instrs []*ir.Instr
	id     map[*ir.Instr]int32
	// count is the profiled execution count of each node.
	count []float64
	start []int32
	edges []cedge

	// comp maps each node to its strongly connected component of the
	// non-terminal edges, numbered in topological order: every such edge
	// runs from a node's component to the same or a later one. cyclic
	// marks the components that hold a cycle: more than one node, or a
	// self-loop.
	comp   []int32
	cyclic []bool
}

// compiled returns the model's compiled graph, building it on first use.
func (m *Model) compiled() *graph {
	if m.g == nil {
		m.g = m.compile()
		m.scratch.init(len(m.g.instrs), len(m.g.edges))
		m.walks = make([]*ends, len(m.g.instrs)*(nClasses+1))
	}
	return m.g
}

// compile builds the interprocedural def-use graph, folding parameters and
// returns so the walker is context-insensitive but interprocedural.
func (m *Model) compile() *graph {
	mod := m.prof.Module
	g := &graph{id: make(map[*ir.Instr]int32)}
	mod.Instrs(func(in *ir.Instr) {
		g.id[in] = int32(len(g.instrs))
		g.instrs = append(g.instrs, in)
		g.count = append(g.count, float64(m.prof.ExecCount[in]))
	})

	adj := make([][]cedge, len(g.instrs))
	add := func(from, to *ir.Instr, opIdx int) {
		f := g.id[from]
		adj[f] = append(adj[f], m.compileEdge(g, from, to, opIdx))
	}

	// callSites maps a function to the call instructions targeting it.
	callSites := make(map[*ir.Func][]*ir.Instr)
	// paramUsers maps each formal parameter to its (instr, opIdx) users.
	type use struct {
		in    *ir.Instr
		opIdx int
	}
	paramUsers := make(map[*ir.Param][]use)
	mod.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpCall {
			callSites[in.Callee] = append(callSites[in.Callee], in)
		}
		for k, op := range in.Operands {
			if p, ok := op.(*ir.Param); ok {
				paramUsers[p] = append(paramUsers[p], use{in, k})
			}
		}
	})

	mod.Instrs(func(in *ir.Instr) {
		for k, op := range in.Operands {
			def, ok := op.(*ir.Instr)
			if !ok {
				continue
			}
			switch in.Op {
			case ir.OpCall:
				// A corrupted argument flows to the callee parameter's
				// users rather than to the call's own result.
				for _, u := range paramUsers[in.Callee.Params[k]] {
					add(def, u.in, u.opIdx)
				}
			case ir.OpRet:
				// A corrupted return value flows to every call site's
				// result.
				for _, site := range callSites[in.Block.Fn] {
					add(def, site, identityEdge)
				}
			default:
				add(def, in, k)
			}
		}
	})

	g.start = make([]int32, len(adj)+1)
	type edgeKey struct{ from, to, opIdx int32 }
	slots := make(map[edgeKey]int32)
	for n, es := range adj {
		for _, e := range es {
			eid := int32(len(g.edges))
			key := edgeKey{int32(n), e.to, e.opIdx}
			if s, dup := slots[key]; dup {
				e.slot = s
			} else {
				e.slot = eid
				slots[key] = eid
			}
			g.edges = append(g.edges, e)
		}
		g.start[n+1] = int32(len(g.edges))
	}
	g.condense()
	return g
}

// condense finds the strongly connected components of the non-terminal
// edges with Tarjan's algorithm (iteratively, so deep def-use chains
// cannot overflow the stack) and numbers them in topological order.
func (g *graph) condense() {
	n := int32(len(g.instrs))
	const unseen = -1
	index := make([]int32, n)
	for i := range index {
		index[i] = unseen
	}
	low := make([]int32, n)
	onStack := make([]bool, n)
	g.comp = make([]int32, n)
	var stack []int32
	type frame struct{ node, edge int32 }
	var dfs []frame
	next, comps := int32(0), int32(0)
	visit := func(v int32) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		dfs = append(dfs, frame{v, g.start[v]})
	}
	for root := int32(0); root < n; root++ {
		if index[root] != unseen {
			continue
		}
		visit(root)
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			if f.edge < g.start[f.node+1] {
				ed := &g.edges[f.edge]
				f.edge++
				switch {
				case ed.terminal:
				case index[ed.to] == unseen:
					visit(ed.to)
				case onStack[ed.to]:
					low[f.node] = min(low[f.node], index[ed.to])
				}
				continue
			}
			v := f.node
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := dfs[len(dfs)-1].node
				low[p] = min(low[p], low[v])
			}
			if low[v] != index[v] {
				continue
			}
			i := len(stack) - 1
			for stack[i] != v {
				i--
			}
			for _, w := range stack[i:] {
				onStack[w] = false
				g.comp[w] = comps
			}
			g.cyclic = append(g.cyclic, len(stack)-i > 1 || g.selfLoop(v))
			comps++
			stack = stack[:i]
		}
	}
	// Tarjan completes the components sinks first; flip the numbering.
	for v := range g.comp {
		g.comp[v] = comps - 1 - g.comp[v]
	}
	slices.Reverse(g.cyclic)
}

// selfLoop reports whether node v has a non-terminal edge to itself.
func (g *graph) selfLoop(v int32) bool {
	for eid := g.start[v]; eid < g.start[v+1]; eid++ {
		if ed := &g.edges[eid]; !ed.terminal && ed.to == v {
			return true
		}
	}
	return false
}

// compileEdge derives the static attributes of one def-use edge.
func (m *Model) compileEdge(g *graph, from, to *ir.Instr, opIdx int) cedge {
	e := cedge{
		to:       g.id[to],
		opIdx:    int32(opIdx),
		guard:    -1,
		terminal: isTerminal(to),
		weight:   m.consumptionWeight(from, to, opIdx),
	}
	if guard := m.backEdgeGuard(to, opIdx); guard != nil {
		e.guard = g.id[guard]
	}
	if opIdx == identityEdge {
		e.tr, e.trReady = diagonal(1), true
	}
	switch {
	case to.Op == ir.OpStore && opIdx == 0:
		e.kind = kindStoreValue
	case to.Op == ir.OpStore && opIdx == 1, to.Op == ir.OpLoad:
		e.kind = kindAddress
	case to.Op == ir.OpCondBr:
		// Only loop-terminating branches act as guards: both latch-style
		// (a target is the back edge) and header-style (one target exits
		// the loop) checks qualify.
		e.kind = kindBranch
		if lt, _ := m.cfgOf(to.Block.Fn).IsLoopTerminating(to.Block); lt {
			e.kind = kindGuard
		}
	case to.Op == ir.OpPrint:
		e.kind = kindOutput
		if to.Format == ir.FormatG2 && to.Operands[0].ValueType().IsFloat() {
			e.kind = kindOutputG2
		}
	}
	return e
}

// edgeTransition returns the banded transition and crash share of an
// edge, computing them on first use.
func (m *Model) edgeTransition(ed *cedge) (*transition, float64) {
	if !ed.trReady {
		ed.tr, ed.crash = m.transitionFor(m.g.instrs[ed.to], int(ed.opIdx))
		ed.trReady = true
	}
	return &ed.tr, ed.crash
}

// scratch is the reusable per-model walk state, indexed by node or edge
// ID. An entry belongs to the current walk only when its mark equals
// stamp; touched lists the nodes the current walk reached.
type scratch struct {
	stamp uint32

	nodeMark                    []uint32
	reach, once, inSum, onceSum []bandPair
	touched                     []int32
	worklist                    []int32

	edgeMark             []uint32
	contrib, onceContrib []bandPair

	// dense solves one cyclic component at a time.
	dense dense

	// scaleMark/scale memoize guardScale per edge for one phase-2 walk.
	scaleMark []uint32
	scale     []float64

	// termMark/storeAcc/branchAcc accumulate the extracted store and
	// branch terminals; terms lists the targets written.
	termMark  []uint32
	storeAcc  []bandPair
	branchAcc []float64
	terms     []int32
}

func (s *scratch) init(nodes, edges int) {
	*s = scratch{
		nodeMark:    make([]uint32, nodes),
		reach:       make([]bandPair, nodes),
		once:        make([]bandPair, nodes),
		inSum:       make([]bandPair, nodes),
		onceSum:     make([]bandPair, nodes),
		edgeMark:    make([]uint32, edges),
		contrib:     make([]bandPair, edges),
		onceContrib: make([]bandPair, edges),
		scaleMark:   make([]uint32, edges),
		scale:       make([]float64, edges),
		termMark:    make([]uint32, nodes),
		storeAcc:    make([]bandPair, nodes),
		branchAcc:   make([]float64, nodes),
	}
}

// reset starts a new walk: every entry becomes stale.
func (s *scratch) reset() {
	s.stamp++
	if s.stamp == 0 { // wrapped: stale marks could alias the new stamp
		clear(s.nodeMark)
		clear(s.edgeMark)
		clear(s.scaleMark)
		clear(s.termMark)
		s.stamp = 1
	}
	s.touched = s.touched[:0]
	s.terms = s.terms[:0]
}

// touch makes node n part of the current walk, zeroing its stale entries.
func (s *scratch) touch(n int32) {
	if s.nodeMark[n] == s.stamp {
		return
	}
	s.nodeMark[n] = s.stamp
	s.reach[n], s.once[n], s.inSum[n], s.onceSum[n] = bandPair{}, bandPair{}, bandPair{}, bandPair{}
	s.touched = append(s.touched, n)
}

// touchEdge makes the contribution slot e part of the current walk.
func (s *scratch) touchEdge(e int32) {
	if s.edgeMark[e] == s.stamp {
		return
	}
	s.edgeMark[e] = s.stamp
	s.contrib[e], s.onceContrib[e] = bandPair{}, bandPair{}
}

// touchTerm makes terminal n part of the current extraction.
func (s *scratch) touchTerm(n int32) {
	if s.termMark[n] == s.stamp {
		return
	}
	s.termMark[n] = s.stamp
	s.storeAcc[n], s.branchAcc[n] = bandPair{}, 0
	s.terms = append(s.terms, n)
}

// storeEnd is a store whose stored value the walk corrupts, per class.
type storeEnd struct {
	node int32
	p    bandPair
}

// branchEnd is a conditional branch the walk flips with probability p.
type branchEnd struct {
	node int32
	p    float64
}

// ends aggregates where the corruption from one start instruction can go
// (the terminals of the paper's static data-dependent instruction
// sequences). stores and branches are in node-ID (instruction) order, so
// every sum over them is deterministic.
type ends struct {
	// output is the probability of reaching program output visibly:
	// reduced-precision prints only pass high-band corruption.
	output float64
	// stores holds the banded probability that each reached store's value
	// is corrupted.
	stores []storeEnd
	// branches holds the probability that each reached conditional branch
	// flips.
	branches []branchEnd
	// crash is the estimated probability of a trap along the way.
	crash float64
}

// walkMode selects the initial band distribution of a walk: walkUniform
// starts from a uniformly random flipped bit of the start instruction's
// result (Algorithm 1's entry); a non-negative mode pins the corruption to
// that band (used by fm, which must know the band of a stored corruption).
type walkMode int

// walkUniform is the uniform-random-bit walk mode.
const walkUniform walkMode = -1

// walkBand returns the walk mode pinned to one band.
func walkBand(band int) walkMode { return walkMode(band) }

// consumptionWeight is the expected number of times `to` consumes one
// corrupted result of `from` through operand opIdx, per execution of
// `from`:
//
//   - for phi arms, the profiled traversal frequency of the incoming CFG
//     edge relative to the def's executions — this makes loop-carried
//     corruption persist with the back-edge probability, so accumulators
//     converge to full propagation via the geometric series;
//   - for everything else, the execution-frequency ratio
//     ExecCount(to)/ExecCount(from). SSA dominance makes non-phi users
//     forward-reachable from their defs, so the ratio is the profiled
//     generalization of the paper's path-probability weighting (the
//     NULL-node masking of §IV-E): a consumer guarded by a 60%-taken
//     branch yields 0.6.
func (m *Model) consumptionWeight(from, to *ir.Instr, opIdx int) float64 {
	fromCount := m.prof.ExecCount[from]
	if fromCount == 0 {
		return 0
	}
	if to.Op == ir.OpPhi {
		return m.edgeTraversals(to.PhiBlocks[opIdx], to.Block) / float64(fromCount)
	}
	return float64(m.prof.ExecCount[to]) / float64(fromCount)
}

// edgeTraversals returns the profiled number of times control flowed along
// the CFG edge from→to.
func (m *Model) edgeTraversals(from, to *ir.Block) float64 {
	term := from.Terminator()
	if term == nil {
		return 0
	}
	switch term.Op {
	case ir.OpBr:
		if term.Targets[0] == to {
			return float64(m.prof.ExecCount[term])
		}
	case ir.OpCondBr:
		bt := m.prof.BranchTaken[term]
		total := 0.0
		for i, tgt := range term.Targets {
			if tgt == to {
				total += float64(bt[i])
			}
		}
		return total
	}
	return 0
}

// walkFrom runs the fs sub-model from `start`, whose result register is
// assumed corrupted per `mode`, and returns the terminal probabilities.
func (m *Model) walkFrom(start *ir.Instr, mode walkMode) *ends {
	g := m.compiled()
	id, ok := g.id[start]
	if !ok {
		return &ends{}
	}
	slot := int(id)*(nClasses+1) + int(mode) + 1
	if cached := m.walks[slot]; cached != nil {
		return cached
	}
	e := &ends{}
	m.walks[slot] = e
	if g.count[id] == 0 {
		return e // never activated
	}

	var seed bandPair
	if mode == walkUniform {
		seed = bandSplit(start.Type)
	} else {
		seed[int(mode)] = 1
	}

	// Phase 1: unguarded fixpoint. Phase 2 (when the corruption can flip
	// a branch that guards a loop back edge) re-runs the fixpoint with
	// that back edge's persistence scaled down: a corrupted induction
	// value is bound-checked before it is reused, so bit flips that would
	// have left the loop's index range mostly exit the loop instead of
	// surviving into the next iteration's address computation.
	m.fixpoint(id, seed, nil)
	guards := m.guardFlips()
	if len(guards) > 0 {
		m.fixpoint(id, seed, guards)
	}
	m.extract(e, guards)
	return e
}

// extract classifies every out-edge of each node the last fixpoint
// reached, in node-ID order, into e. The terminal contribution is the
// expected corrupted consumptions, capped at 1 to become a probability.
func (m *Model) extract(e *ends, guards []guardFlip) {
	g, s := m.g, &m.scratch
	slices.Sort(s.touched)
	for _, node := range s.touched {
		r := s.reach[node]
		if r.total() <= 0 {
			continue
		}
		for eid := g.start[node]; eid < g.start[node+1]; eid++ {
			ed := &g.edges[eid]
			if ed.kind == kindNone {
				continue
			}
			w := ed.weight
			if guards != nil {
				w *= m.guardScale(node, eid, guards)
			}
			if w == 0 {
				continue
			}
			w1 := min(w, 1)
			tr, crashProb := m.edgeTransition(ed)
			switch ed.kind {
			case kindStoreValue:
				s.touchTerm(ed.to)
				sp := &s.storeAcc[ed.to]
				for from := 0; from < nClasses; from++ {
					for band := 0; band < nClasses; band++ {
						sp[band] = min(sp[band]+r[from]*w*tr[from][band], 1)
					}
				}
			case kindAddress:
				// A load's surviving share continued through the
				// fixpoint; its crash share is accounted here with
				// at-least-once semantics (correlated retries).
				e.crash = min(e.crash+min(s.once[node].total(), 1)*w1*crashProb, 1)
			case kindBranch, kindGuard:
				flip := 0.0
				for from := 0; from < nClasses; from++ {
					flip += r[from] * w * tr.propTotal(from)
				}
				s.touchTerm(ed.to)
				s.branchAcc[ed.to] = min(s.branchAcc[ed.to]+flip, 1)
			case kindOutput, kindOutputG2:
				contribution := 0.0
				for from := 0; from < nClasses; from++ {
					for band := 0; band < nClasses; band++ {
						if ed.kind == kindOutputG2 && band != bandTop && band != classReplaced {
							continue // below the printed precision
						}
						contribution += r[from] * w * tr[from][band]
					}
				}
				e.output = min(e.output+contribution, 1)
			}
		}
	}

	slices.Sort(s.terms)
	for _, n := range s.terms {
		if g.instrs[n].Op == ir.OpStore {
			e.stores = append(e.stores, storeEnd{node: n, p: s.storeAcc[n]})
		} else {
			e.branches = append(e.branches, branchEnd{node: n, p: s.branchAcc[n]})
		}
	}
}

// fixpoint computes the banded reach quantities from start into the
// scratch, both least fixed points over the def-use graph:
//
// reach — expected corrupted executions per band (total bounded by
// ExecCount): value corruption compounds through loop-carried phis, so an
// accumulator whose exit value always prints converges to full
// propagation.
//
// once — probability that at least one execution is corrupted, per band
// (edge weights capped at 1, bands capped at 1): used for crash
// probabilities, because a single flipped bit retries the *same* wrong
// address every iteration — the trials are perfectly correlated, and the
// first access decides.
//
// guards, when non-nil, lists loop-guarding conditional branches with the
// probability the corruption flips them; phi arms crossing a back edge
// guarded by such a branch have their consumption scaled by the
// complement (the corruption survives into the next iteration only when
// the guard still passes).
//
// The fixed points are solved one strongly connected component at a time,
// in topological order, over the components reachable from start: when a
// component is solved every input from outside it is final, so nothing
// downstream of a loop is revisited while the loop settles. An acyclic
// node is computed once from its inputs; a cyclic component is solved
// directly (solveComponent).
func (m *Model) fixpoint(start int32, seed bandPair, guards []guardFlip) {
	g, s := m.g, &m.scratch
	s.reset()
	s.touch(start)
	s.inSum[start], s.onceSum[start] = seed, seed

	// Reach every node the corruption can flow to.
	stack := append(s.worklist[:0], start)
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for eid := g.start[node]; eid < g.start[node+1]; eid++ {
			ed := &g.edges[eid]
			if ed.terminal || s.nodeMark[ed.to] == s.stamp || m.liveWeight(node, eid, guards) <= 0 {
				continue
			}
			s.touch(ed.to)
			stack = append(stack, ed.to)
		}
	}
	s.worklist = stack
	m.work.reached += len(s.touched)

	// Solve them component by component, members in node-ID order.
	slices.SortFunc(s.touched, func(a, b int32) int {
		return cmp.Or(cmp.Compare(g.comp[a], g.comp[b]), cmp.Compare(a, b))
	})
	for rest := s.touched; len(rest) > 0; {
		k := 1
		for k < len(rest) && g.comp[rest[k]] == g.comp[rest[0]] {
			k++
		}
		members := rest[:k]
		rest = rest[k:]
		if g.cyclic[g.comp[members[0]]] {
			m.solveComponent(members, guards)
		} else {
			n := members[0]
			s.reach[n] = capTotal(s.inSum[n], g.count[n])
			s.once[n] = capTotal(s.onceSum[n], 1)
		}
		for _, n := range members {
			m.push(n, guards)
		}
	}
}

// push adds the final reach and once of node n to the input sums of its
// consumers in later components.
func (m *Model) push(n int32, guards []guardFlip) {
	g, s := m.g, &m.scratch
	for eid := g.start[n]; eid < g.start[n+1]; eid++ {
		ed := &g.edges[eid]
		if ed.terminal || ed.slot != eid || g.comp[ed.to] == g.comp[n] {
			continue
		}
		w := m.liveWeight(n, eid, guards)
		if w <= 0 {
			continue
		}
		tr, _ := m.edgeTransition(ed)
		f, fo := flow(s.reach[n], w, tr), flow(s.once[n], min(w, 1), tr)
		for band := range nClasses {
			s.inSum[ed.to][band] += f[band]
			s.onceSum[ed.to][band] += fo[band]
		}
	}
}

// solveComponent computes reach and once for the reached members of one
// cyclic component from their final outside inputs (inSum and onceSum):
// reach with weights w capped at ExecCount, once with weights min(w, 1)
// capped at 1, each by a direct solve (dense.settle). A component that
// does not settle, or whose reach drifts (dense.drifts), finishes with
// the worklist update instead (iterate), whose limit then defines its
// values. once is kept from the direct solve even when it drifts: a
// drifting once only moves the band mix of a probability held at 1, and
// crash shares read only its total.
func (m *Model) solveComponent(members []int32, guards []guardFlip) {
	g, s := m.g, &m.scratch
	d := &s.dense
	d.size(len(members))
	d.inner = d.inner[:0]
	for i, u := range members {
		for eid := g.start[u]; eid < g.start[u+1]; eid++ {
			ed := &g.edges[eid]
			if ed.terminal || ed.slot != eid || g.comp[ed.to] != g.comp[u] {
				continue
			}
			if w := m.liveWeight(u, eid, guards); w > 0 {
				tr, _ := m.edgeTransition(ed)
				to, _ := slices.BinarySearch(members, ed.to)
				d.inner = append(d.inner, innerEdge{from: int32(i), to: int32(to), w: w, tr: tr})
			}
		}
	}

	for i, n := range members {
		d.ext[i], d.caps[i] = s.inSum[n], g.count[n]
	}
	rounds, ok := d.settle()
	if ok = ok && !d.drifts(); ok {
		for i, n := range members {
			s.reach[n] = d.x[i]
			d.ext[i], d.caps[i] = s.onceSum[n], 1
		}
		for i := range d.inner {
			d.inner[i].w = min(d.inner[i].w, 1)
		}
		var r int
		r, ok = d.settle()
		rounds += r
	}
	m.work.rounds += rounds
	if !ok {
		m.iterate(members, guards)
		return
	}
	for i, n := range members {
		s.once[n] = d.x[i]
	}
}

// iterate is the fallback for a component whose direct solve does not
// settle or drifts: the worklist update of the least fixed points,
// restricted to the component's members and started from their outside
// inputs.
// Contributions only grow, one edge slot at a time, until no band grows
// by more than eps.
func (m *Model) iterate(members []int32, guards []guardFlip) {
	const eps = 1e-9
	g, s := m.g, &m.scratch
	c := g.comp[members[0]]
	worklist := s.worklist[:0]
	for _, n := range members {
		s.reach[n] = capTotal(s.inSum[n], g.count[n])
		s.once[n] = capTotal(s.onceSum[n], 1)
		worklist = append(worklist, n)
	}
	for len(worklist) > 0 {
		node := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		m.work.pops++
		r := s.reach[node]
		o := s.once[node]
		for eid := g.start[node]; eid < g.start[node+1]; eid++ {
			ed := &g.edges[eid]
			if ed.terminal || g.comp[ed.to] != c {
				continue
			}
			w := m.liveWeight(node, eid, guards)
			if w <= 0 {
				continue
			}
			tr, _ := m.edgeTransition(ed)
			newContrib, newOnce := flow(r, w, tr), flow(o, min(w, 1), tr)

			to, slot := ed.to, ed.slot
			s.touchEdge(slot)
			changed := false

			if old := s.contrib[slot]; grew(newContrib, old, eps) {
				sum := s.inSum[to]
				for band := 0; band < nClasses; band++ {
					if newContrib[band] > old[band] {
						sum[band] += newContrib[band] - old[band]
						old[band] = newContrib[band]
					}
				}
				s.contrib[slot] = old
				s.inSum[to] = sum
				if target := capTotal(sum, g.count[to]); grew(target, s.reach[to], eps) {
					s.reach[to] = target
					changed = true
				}
			}

			if oldOnce := s.onceContrib[slot]; grew(newOnce, oldOnce, eps) {
				sum := s.onceSum[to]
				for band := 0; band < nClasses; band++ {
					if newOnce[band] > oldOnce[band] {
						sum[band] += newOnce[band] - oldOnce[band]
						oldOnce[band] = newOnce[band]
					}
				}
				s.onceContrib[slot] = oldOnce
				s.onceSum[to] = sum
				// "At least once" is a probability of a single event: cap
				// the total, preserving the band mix.
				if target := capTotal(sum, 1); grew(target, s.once[to], eps) {
					s.once[to] = target
					changed = true
				}
			}

			if changed {
				worklist = append(worklist, to)
			}
		}
	}
	s.worklist = worklist
}

// liveWeight returns the consumption weight of edge eid out of node from
// in the current walk: its static weight, scaled by the phase-2 guards
// when there are any.
func (m *Model) liveWeight(from, eid int32, guards []guardFlip) float64 {
	w := m.g.edges[eid].weight
	if guards != nil {
		w *= m.guardScale(from, eid, guards)
	}
	return w
}

// capTotal scales p down, preserving its band mix, so that its total does
// not exceed bound.
func capTotal(p bandPair, bound float64) bandPair {
	if t := p.total(); t > bound {
		f := bound / t
		for band := range p {
			p[band] *= f
		}
	}
	return p
}

// guardFlip is one loop-guarding conditional branch and the probability
// the corruption flips it.
type guardFlip struct {
	node int32
	p    float64
}

// guardScale returns the survival factor of edge eid out of node `from`
// under the phase-2 guard refinement: corruption that flips a bound check
// is consumed by the divergence (handled through fc), not by the uses
// behind the check. Two cases compose:
//
//   - a phi arm crossing a back edge whose latch ends in a flip-influenced
//     conditional branch survives into the next iteration only when the
//     branch still passes;
//   - a use strictly dominated by a flip-influenced branch that executes
//     between the def and the use (header-checked loops: the def is the
//     header phi or earlier, the check ends the header, the use sits in
//     the body) sees the corruption only when the check still passes.
//
// The factor depends only on the edge and the guards, so it is memoized
// per edge for the current walk.
func (m *Model) guardScale(from, eid int32, guards []guardFlip) float64 {
	s := &m.scratch
	if s.scaleMark[eid] == s.stamp {
		return s.scale[eid]
	}
	g := m.g
	ed := &g.edges[eid]
	v := 1.0
	if ed.guard >= 0 {
		for _, gf := range guards {
			if gf.node == ed.guard {
				v *= 1 - gf.p
			}
		}
	}
	fromBlk, toBlk := g.instrs[from].Block, g.instrs[ed.to].Block
	if fromBlk.Fn == toBlk.Fn {
		cfg := m.cfgOf(toBlk.Fn)
		for _, gf := range guards {
			gBlk := g.instrs[gf.node].Block
			if gBlk.Fn != toBlk.Fn || gBlk == toBlk {
				continue
			}
			if !cfg.Dominates(gBlk, toBlk) {
				continue
			}
			if fromBlk != gBlk && !cfg.Dominates(fromBlk, gBlk) {
				continue
			}
			v *= 1 - gf.p
		}
	}
	s.scaleMark[eid], s.scale[eid] = s.stamp, v
	return v
}

// backEdgeGuard returns, for a phi-arm edge into `to` whose incoming CFG
// edge is a loop back edge terminated by a conditional branch, that
// branch; nil otherwise.
func (m *Model) backEdgeGuard(to *ir.Instr, opIdx int) *ir.Instr {
	if to.Op != ir.OpPhi {
		return nil
	}
	from := to.PhiBlocks[opIdx]
	if !m.cfgOf(to.Block.Fn).IsBackEdge(from, to.Block) {
		return nil
	}
	term := from.Terminator()
	if term == nil || term.Op != ir.OpCondBr {
		return nil
	}
	return term
}

// guardFlips estimates, from the phase-1 at-least-once reach in the
// scratch, the probability that the corruption flips each
// loop-terminating branch (at-least-once semantics: the same flipped bit
// either trips the bound check on its first evaluation or never). Only
// guards actually influenced by the corruption are returned, in node-ID
// order.
func (m *Model) guardFlips() []guardFlip {
	g, s := m.g, &m.scratch
	var flips []guardFlip
	for _, node := range s.touched {
		o := s.once[node]
		if o.total() <= 0 {
			continue
		}
		for eid := g.start[node]; eid < g.start[node+1]; eid++ {
			ed := &g.edges[eid]
			if ed.kind != kindGuard {
				continue
			}
			w := min(ed.weight, 1)
			tr, _ := m.edgeTransition(ed)
			p := 0.0
			for from := 0; from < nClasses; from++ {
				p += o[from] * w * tr.propTotal(from)
			}
			if p = min(p, 1); p <= 1e-9 {
				continue
			}
			i := slices.IndexFunc(flips, func(gf guardFlip) bool { return gf.node == ed.to })
			if i < 0 {
				flips = append(flips, guardFlip{node: ed.to, p: p})
			} else if p > flips[i].p {
				flips[i].p = p
			}
		}
	}
	slices.SortFunc(flips, func(a, b guardFlip) int { return int(a.node - b.node) })
	return flips
}

// isTerminal reports whether corruption stops flowing through registers at
// this instruction: it either has no result or is handled by another
// sub-model.
func isTerminal(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpStore, ir.OpCondBr, ir.OpPrint, ir.OpCheck, ir.OpBr, ir.OpRet:
		return true
	default:
		return false
	}
}

// grew reports whether any band of a exceeds the same band of b by eps.
func grew(a, b bandPair, eps float64) bool {
	for i := range a {
		if a[i] > b[i]+eps {
			return true
		}
	}
	return false
}
