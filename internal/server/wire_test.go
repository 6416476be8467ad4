package server

import (
	"strings"
	"testing"
	"time"
)

func TestDecodeSubmitStrict(t *testing.T) {
	cases := []struct {
		name string
		body string
		max  int64
		ok   bool
	}{
		{"minimal", `{"program":"pathfinder","n":10}`, 0, true},
		{"full", `{"program":"nw","n":5,"seed":7,"shards":2,"workers":3,"snapshot_interval":512}`, 0, true},
		{"full re-execution", `{"program":"nw","n":5,"snapshot_interval":-1}`, 0, true},
		{"unknown field", `{"program":"nw","n":5,"bogus":1}`, 0, false},
		// The interpreter engine is no longer selectable: a request that
		// still names one is refused, not silently run.
		{"engine field", `{"program":"nw","n":5,"engine":"legacy"}`, 0, false},
		{"trailing data", `{"program":"nw","n":5} {"x":1}`, 0, false},
		{"not json", `hello`, 0, false},
		{"empty", ``, 0, false},
		{"wrong type", `{"program":"nw","n":"five"}`, 0, false},
		{"array body", `[1,2,3]`, 0, false},
		{"over size cap", `{"program":"` + strings.Repeat("x", 100) + `","n":5}`, 64, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeSubmit(strings.NewReader(c.body), c.max)
			if (err == nil) != c.ok {
				t.Fatalf("DecodeSubmit(%q) err = %v, want ok=%v", c.body, err, c.ok)
			}
			if err != nil {
				if _, isReq := err.(*RequestError); !isReq {
					t.Fatalf("DecodeSubmit error is %T, want *RequestError", err)
				}
			}
		})
	}
}

func TestValidate(t *testing.T) {
	lim := Limits{MaxTrials: 1000, MaxShards: 8, MaxWorkers: 8, MaxIRBytes: 1 << 16, MaxWall: time.Minute}
	ok := func() *SubmitRequest { return &SubmitRequest{Program: "pathfinder", N: 10} }
	cases := []struct {
		name  string
		mut   func(*SubmitRequest)
		field string // "" means valid
	}{
		{"valid", func(r *SubmitRequest) {}, ""},
		{"neither program nor ir", func(r *SubmitRequest) { r.Program = "" }, "program"},
		{"both program and ir", func(r *SubmitRequest) { r.IR = "func @main() {\n}" }, "program"},
		{"unknown program", func(r *SubmitRequest) { r.Program = "nonesuch" }, "program"},
		{"bad ir", func(r *SubmitRequest) { r.Program = ""; r.IR = "not ir at all" }, "ir"},
		{"n zero", func(r *SubmitRequest) { r.N = 0 }, "n"},
		{"n over budget", func(r *SubmitRequest) { r.N = 1001 }, "n"},
		{"shards negative", func(r *SubmitRequest) { r.Shards = -1 }, "shards"},
		{"shards over cap", func(r *SubmitRequest) { r.Shards = 9 }, "shards"},
		{"workers over cap", func(r *SubmitRequest) { r.Workers = 9 }, "workers"},
		{"retries over cap", func(r *SubmitRequest) { r.MaxRetries = 17 }, "max_retries"},
		{"negative trial timeout", func(r *SubmitRequest) { r.TrialTimeoutMS = -1 }, "trial_timeout_ms"},
		{"wall over budget", func(r *SubmitRequest) { r.MaxWallMS = time.Hour.Milliseconds() }, "max_wall_ms"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := ok()
			c.mut(req)
			err := req.Validate(lim)
			if c.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			re, isReq := err.(*RequestError)
			if !isReq {
				t.Fatalf("Validate() = %v (%T), want *RequestError on %s", err, err, c.field)
			}
			if re.Field != c.field {
				t.Fatalf("Validate() rejected field %q, want %q (%v)", re.Field, c.field, re)
			}
		})
	}
}

func TestValidIRSubmission(t *testing.T) {
	req := &SubmitRequest{
		IR: "module \"t\"\nfunc @main() void {\nentry:\n  %a = add i64 1, i64 2\n  print %a\n  ret\n}\n",
		N:  5,
	}
	if err := req.Validate(Limits{}); err != nil {
		t.Fatalf("Validate(ir) = %v", err)
	}
	mod, err := req.BuildModule()
	if err != nil || mod == nil {
		t.Fatalf("BuildModule() = %v, %v", mod, err)
	}
	if req.ModuleName() != "ir" {
		t.Fatalf("ModuleName() = %q", req.ModuleName())
	}
}

func TestWallBudget(t *testing.T) {
	lim := Limits{MaxWall: time.Minute}
	req := &SubmitRequest{}
	if got := req.WallBudget(lim); got != time.Minute {
		t.Fatalf("default WallBudget = %v", got)
	}
	req.MaxWallMS = 500
	if got := req.WallBudget(lim); got != 500*time.Millisecond {
		t.Fatalf("explicit WallBudget = %v", got)
	}
}

// FuzzDecodeSubmit: arbitrary bytes must never panic the decoder, and
// every rejection must be a typed *RequestError.
func FuzzDecodeSubmit(f *testing.F) {
	f.Add([]byte(`{"program":"pathfinder","n":10}`))
	f.Add([]byte(`{"ir":"func @main() {\n}","n":1,"seed":18446744073709551615}`))
	f.Add([]byte(`{"n":-1}`))
	f.Add([]byte(`{"program":"nw","n":5,"engine":"legacy"}`))
	f.Add([]byte(`{"program":"nw","n":5,"snapshot_interval":-1}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"program":"x","n":1}{"program":"y","n":2}`))
	f.Add([]byte("\x00\xff\xfe"))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeSubmit(strings.NewReader(string(body)), 1<<16)
		if err != nil {
			if _, isReq := err.(*RequestError); !isReq {
				t.Fatalf("DecodeSubmit error is %T, want *RequestError", err)
			}
			return
		}
		// Whatever decoded must validate without panicking either way.
		_ = req.Validate(Limits{})
	})
}
