package rdx

// Differential tests for the options-based Session API: every
// execution strategy must produce results bit-identical to the engine
// driver it dispatches to (core.Profiler.Run, core.ProfileThreads, the
// plain and reconnecting wire clients), across all watchpoint
// replacement policies.

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

var allPolicies = []ReplacementPolicy{
	ReplaceProbabilistic, ReplaceReservoir, ReplaceAlways, ReplaceNever, ReplaceHybrid,
}

// fingerprint reduces a Result to the byte-exact wire JSON (the form
// every bit-identity test in the repo compares).
func fingerprint(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(ResultToRemote(r))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func policyConfig(pol ReplacementPolicy) Config {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 400
	cfg.Replacement = pol
	return cfg
}

func TestSessionDifferentialLocal(t *testing.T) {
	ctx := context.Background()
	for _, pol := range allPolicies {
		cfg := policyConfig(pol)
		accs, err := trace.Collect(ZipfAccess(11, 0, 4096, 1.0, 120000))
		if err != nil {
			t.Fatal(err)
		}

		driver := func(costs Costs) *Result {
			p, err := core.NewProfiler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(ctx, FromSlice(accs), costs, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		newRes, err := New(WithConfig(cfg)).Profile(ctx, FromSlice(accs))
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(t, driver(DefaultCosts())) != fingerprint(t, newRes) {
			t.Errorf("%v: Session diverges from the core driver", pol)
		}

		costs := DefaultCosts()
		costs.TrapCycles *= 2
		newRes, err = New(WithConfig(cfg), WithCosts(costs)).Profile(ctx, FromSlice(accs))
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(t, driver(costs)) != fingerprint(t, newRes) {
			t.Errorf("%v: Session with costs diverges from the core driver", pol)
		}
	}
}

func TestSessionDifferentialThreads(t *testing.T) {
	ctx := context.Background()
	mkStreams := func() []Reader {
		var rs []Reader
		for i := 0; i < 4; i++ {
			rs = append(rs, ZipfAccess(uint64(70+i), Addr(uint64(i)<<40), 2048, 1.0, 50000))
		}
		return rs
	}
	multiFP := func(m *MultiResult) string {
		var parts []string
		for _, r := range m.Threads {
			parts = append(parts, fingerprint(t, r))
		}
		at, err := json.Marshal(m.Attribution)
		if err != nil {
			t.Fatal(err)
		}
		rd, _ := json.Marshal(m.ReuseDistance.Snapshot())
		parts = append(parts, string(at), string(rd))
		b, _ := json.Marshal(parts)
		return string(b)
	}
	for _, pol := range allPolicies {
		cfg := policyConfig(pol)
		for _, workers := range []int{0, 2} {
			driverM, err := core.ProfileThreads(ctx, mkStreams(), cfg, DefaultCosts(), workers)
			if err != nil {
				t.Fatal(err)
			}
			newM, err := New(WithConfig(cfg), WithWorkers(workers)).ProfileThreads(ctx, mkStreams())
			if err != nil {
				t.Fatal(err)
			}
			if multiFP(driverM) != multiFP(newM) {
				t.Errorf("%v, %d workers: Session diverges from core.ProfileThreads", pol, workers)
			}
		}
	}
}

func TestSessionDifferentialRemote(t *testing.T) {
	srv, err := server.New(server.Config{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	ctx := context.Background()
	cfg := policyConfig(ReplaceProbabilistic)
	accs, err := trace.Collect(ZipfAccess(13, 0, 4096, 1.0, 100000))
	if err != nil {
		t.Fatal(err)
	}
	local, err := New(WithConfig(cfg)).Profile(ctx, FromSlice(accs))
	if err != nil {
		t.Fatal(err)
	}
	localFP := fingerprint(t, local)

	// Plain remote: wire.Client vs Session, vs local.
	c, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clientW, err := c.Profile(FromSlice(accs), cfg, wire.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newRes, err := New(WithConfig(cfg), WithRemote(srv.Addr())).Profile(ctx, FromSlice(accs))
	if err != nil {
		t.Fatal(err)
	}
	clientJ, _ := json.Marshal(clientW)
	if string(clientJ) != fingerprint(t, newRes) {
		t.Error("remote Session diverges from wire.Client")
	}
	// StateBytes reports capacity growth, which legitimately differs
	// between the server's batch sizes and the local profiler's; zero it
	// for the remote-vs-local check.
	neutral := func(fp string) string {
		var w RemoteResult
		if err := json.Unmarshal([]byte(fp), &w); err != nil {
			t.Fatal(err)
		}
		w.StateBytes = 0
		b, _ := json.Marshal(&w)
		return string(b)
	}
	if neutral(fingerprint(t, newRes)) != neutral(localFP) {
		t.Error("remote Session result diverges from local")
	}

	// Resilient remote: wire.ReconnectingClient vs Session.
	policy := RetryPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, OpTimeout: 10 * time.Second}
	rc := wire.NewReconnectingClient(srv.Addr(), cfg, policy)
	defer rc.Close()
	clientW, err = rc.Profile(ctx, FromSlice(accs), wire.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newRes, err = New(WithConfig(cfg), WithRemote(srv.Addr()), WithRetry(policy)).Profile(ctx, FromSlice(accs))
	if err != nil {
		t.Fatal(err)
	}
	clientJ, _ = json.Marshal(clientW)
	if string(clientJ) != fingerprint(t, newRes) {
		t.Error("resilient remote Session diverges from wire.ReconnectingClient")
	}
}

func TestSessionBadRemoteSpec(t *testing.T) {
	s := New(WithRemote("=admin"))
	if _, err := s.Profile(context.Background(), Cyclic(0, 16, 100)); err == nil {
		t.Error("bad backend spec should surface at Profile time")
	}
	if _, err := s.ProfileThreads(context.Background(), []Reader{Cyclic(0, 16, 100)}); err == nil {
		t.Error("bad backend spec should surface at ProfileThreads time")
	}
}

func TestSessionLocalContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New().Profile(ctx, Cyclic(0, 1024, 1<<30)); err == nil {
		t.Error("cancelled local profile should fail")
	}
}
