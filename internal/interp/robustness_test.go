package interp

import (
	"context"
	"errors"
	"strings"
	"testing"

	"trident/internal/ir"
)

// bogusValue implements ir.Value with a kind the machine does not know,
// standing in for an engine bug introduced by a future IR extension.
type bogusValue struct{}

func (bogusValue) ValueType() ir.Type  { return ir.I64 }
func (bogusValue) ValueString() string { return "<bogus>" }

func TestRunUnknownValueKindIsTypedError(t *testing.T) {
	m := mustParse(t, `
module "bogus"
func @main() void {
entry:
  %a = add i64 1, i64 2
  print %a
  ret
}
`)
	add := m.Func("main").Block("entry").Instrs[0]
	add.Operands[0] = bogusValue{}
	_, err := Run(m, Options{})
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if !strings.Contains(ie.Msg, "unknown value kind") {
		t.Errorf("Msg = %q, want mention of unknown value kind", ie.Msg)
	}
	if ie.Stack == "" {
		t.Error("InternalError carries no stack trace")
	}
}

func TestRunRecoversHookPanic(t *testing.T) {
	m := mustParse(t, `
module "hookpanic"
func @main() void {
entry:
  %a = add i64 1, i64 2
  print %a
  ret
}
`)
	_, err := Run(m, Options{Hooks: Hooks{
		OnResult: func(*Context, *ir.Instr, uint64) {
			panic("hook exploded")
		},
	}})
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if ie.Recovered != "hook exploded" {
		t.Errorf("Recovered = %v, want the panic value", ie.Recovered)
	}
	if ie.Stack == "" {
		t.Error("InternalError carries no stack trace")
	}
}

// countdown is a loop long enough to cross several cancellation
// checkpoints (every 1024 instructions).
const countdown = `
module "countdown"
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 5000
  condbr %c, loop, done
done:
  print %inc
  ret
}
`

func TestRunCancelledBeforeStart(t *testing.T) {
	m := mustParse(t, countdown)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(m, Options{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunCancelledMidRun(t *testing.T) {
	m := mustParse(t, countdown)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := 0
	_, err := Run(m, Options{
		Context: ctx,
		Hooks: Hooks{
			OnResult: func(*Context, *ir.Instr, uint64) {
				results++
				if results == 100 {
					cancel()
				}
			},
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The loop runs ~20000 dynamic instructions; cancellation at result
	// 100 must stop it at the next 1024-instruction checkpoint, far short
	// of completion.
	if results > 2000 {
		t.Errorf("executed %d results after cancellation, checkpointing is broken", results)
	}
}

func TestRunNilContextUnaffected(t *testing.T) {
	m := mustParse(t, countdown)
	res, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeOK || res.Output != "5000\n" {
		t.Errorf("outcome = %v output = %q", res.Outcome, res.Output)
	}
}
