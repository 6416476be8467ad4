// Package progs provides the 11 benchmark programs of the paper's
// evaluation (Table I), reimplemented as IR kernels. Each preserves the
// algorithmic core — and therefore the error-propagation structure — of
// its namesake: the loop nesting, the data-dependent branches, the
// store/load dependence between phases, and the output types. Inputs are
// deterministic synthetic equivalents of the paper's inputs, sized so a
// full fault-injection campaign completes in seconds. DESIGN.md §2
// records each substitution; Extended() adds the narrow-output kernels
// the bit-liveness pruning pass targets (DESIGN.md §5i, ANALYSIS.md).
package progs

import (
	"fmt"
	"sort"

	"trident/internal/ir"
)

// Program is one benchmark: metadata matching Table I plus a builder.
type Program struct {
	// Name is the benchmark name (lowercase, unique).
	Name string
	// Suite is the originating suite or author, per Table I.
	Suite string
	// Area is the application domain, per Table I.
	Area string
	// Input describes the synthetic input standing in for the paper's.
	Input string
	// Build constructs a fresh verified module with the default input.
	Build func() *ir.Module
	// BuildInput constructs the module with an alternative synthetic
	// input (variant 0 equals Build) — the paper's stated future work is
	// input-dependent error propagation, and programs here regenerate
	// their input data from a variant-mixed seed.
	BuildInput func(variant int) *ir.Module
}

// registry holds all programs by name.
var registry = map[string]Program{}

func register(p Program) {
	if _, dup := registry[p.Name]; dup {
		panic("progs: duplicate program " + p.Name)
	}
	if p.Build == nil && p.BuildInput != nil {
		build := p.BuildInput
		p.Build = func() *ir.Module { return build(0) }
	}
	registry[p.Name] = p
}

// inputSeed mixes an input variant into a base data seed.
func inputSeed(base uint64, variant int) uint64 {
	return base + uint64(variant)*0x9E3779B97F4A7C15
}

// All returns every benchmark in stable (paper Table I) order.
func All() []Program {
	order := []string{
		"libquantum", "blackscholes", "sad", "bfs-parboil", "hercules",
		"lulesh", "puremd", "nw", "pathfinder", "hotspot", "bfs-rodinia",
	}
	out := make([]Program, 0, len(order))
	for _, name := range order {
		p, ok := registry[name]
		if !ok {
			panic("progs: missing program " + name)
		}
		out = append(out, p)
	}
	return out
}

// Extended returns every benchmark: the Table I set in paper order
// followed by the narrow-output integer micro-kernels (narrow.go) added
// for the bit-liveness pruning work. Campaign tooling that wants the
// full workload space (pruning tables, fibench) iterates this; paper
// reproduction figures stick to All().
func Extended() []Program {
	out := All()
	for _, name := range []string{"rgb2gray", "nibblepack", "boxblur"} {
		p, ok := registry[name]
		if !ok {
			panic("progs: missing program " + name)
		}
		out = append(out, p)
	}
	return out
}

// Names returns the registered program names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByName returns the program with the given name.
func ByName(name string) (Program, error) {
	p, ok := registry[name]
	if !ok {
		return Program{}, fmt.Errorf("progs: unknown program %q (have %v)", name, Names())
	}
	return p, nil
}

// Load resolves a program under test: the built-in benchmark called
// name, or the module parsed from irText. Exactly one of the two must be
// non-empty. Every call builds a fresh module, so callers never share
// mutable IR.
func Load(name, irText string) (*ir.Module, error) {
	switch {
	case name != "" && irText != "":
		return nil, fmt.Errorf("progs: give a program name or IR text, not both")
	case name != "":
		p, err := ByName(name)
		if err != nil {
			return nil, err
		}
		return p.Build(), nil
	case irText != "":
		return ir.Parse(irText)
	default:
		return nil, fmt.Errorf("progs: a program name or IR text is required")
	}
}

// mustBuild verifies and renumbers a finished module; builders call it
// last. Construction errors are programming bugs, so it panics.
func mustBuild(m *ir.Module) *ir.Module {
	for _, f := range m.Funcs {
		f.Renumber()
	}
	if err := ir.Verify(m); err != nil {
		panic(fmt.Sprintf("progs: %s: %v", m.Name, err))
	}
	return m
}
