package server_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestReconnectAcrossDaemons is the cross-daemon chaos test: two
// daemons share a checkpoint directory, and every connection goes
// through a fault injector that drops and corrupts mid-stream. The dial
// hook alternates between the daemons, so each reconnect resumes the
// session on the other one from the shared checkpoints. The profile
// must come out bit-identical to the local run regardless.
func TestReconnectAcrossDaemons(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(400)
	accs, err := trace.Collect(trace.ZipfAccess(17, 0, 8192, 1.0, 250000))
	if err != nil {
		t.Fatal(err)
	}
	want := localProfile(t, accs, cfg)

	mk := func() *server.Server {
		return start(t, server.Config{
			CheckpointDir:   dir,
			CheckpointEvery: 4,
			RetryAfterHint:  5 * time.Millisecond,
		})
	}
	sA, sB := mk(), mk()
	addrs := []string{sA.Addr(), sB.Addr()}

	faults := faultnet.NewDialer(faultnet.Options{
		Seed:          41,
		DropAfterMin:  60_000,
		DropAfterMax:  150_000,
		CorruptProb:   0.01,
		PartialWrites: true,
	}, nil)
	var conns atomic.Int64
	policy := testPolicy(9)
	policy.Dial = func(ctx context.Context, _ string) (net.Conn, error) {
		n := conns.Add(1)
		return faults.DialContext(ctx, addrs[int(n)%len(addrs)])
	}

	rc := wire.NewReconnectingClient(sA.Addr(), cfg, policy)
	defer rc.Close()
	got, err := rc.Profile(context.Background(), trace.FromSlice(accs), wire.ProfileOptions{BatchSize: 2048})
	if err != nil {
		t.Fatalf("cross-daemon profile failed: %v (stats %+v)", err, rc.Stats())
	}
	sameWireProfile(t, "cross-daemon remote vs local", got, want)

	if st := rc.Stats(); st.Reconnects == 0 {
		t.Errorf("no reconnects despite injected drops (dialer made %d connections)", faults.Conns())
	}
	// Both daemons must have carried part of the stream: the session
	// really did move between them mid-run, not just reconnect to one.
	mA, mB := sA.MetricsSnapshot(), sB.MetricsSnapshot()
	if mA.BatchesTotal == 0 || mB.BatchesTotal == 0 {
		t.Errorf("stream did not cross daemons: first saw %d batches, second saw %d",
			mA.BatchesTotal, mB.BatchesTotal)
	}
}
