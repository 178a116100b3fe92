package server_test

import (
	"testing"

	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// committedStridedRatio is the strided workload's columnar compression
// ratio (raw 18-byte access records over batch payload bytes) measured
// when the gate was set; the gate allows 5% under it.
const committedStridedRatio = 17.91

// TestStridedCompressionRatio is the wire-compression regression gate:
// a lane-interleaved strided scan (the delta-of-delta best case) is
// streamed through a fresh server in one session, and the server's own
// batch-byte accounting must show at least 95% of the committed ratio.
// The columnar encoding is deterministic for a fixed workload and batch
// size, so a drop past that bound is an encoder regression, not noise.
func TestStridedCompressionRatio(t *testing.T) {
	accs, err := trace.Collect(trace.Strided(0, 8, 1<<10, 64, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(8192)
	cfg.Seed = 1
	s := start(t, server.Config{})
	c := dial(t, s)
	if _, err := c.Profile(trace.FromSlice(accs), cfg, wire.ProfileOptions{BatchSize: 8192}); err != nil {
		t.Fatal(err)
	}
	got := s.MetricsSnapshot().CompressionRatio
	t.Logf("strided v3 compression: %.2fx measured, %.2fx committed", got, committedStridedRatio)
	if floor := 0.95 * committedStridedRatio; got < floor {
		t.Fatalf("strided compression ratio regressed: %.2fx measured < %.2fx floor (0.95 x %.2fx committed)",
			got, floor, committedStridedRatio)
	}
}
