package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/window"
)

// driftWindowsPerPhase is how many observation windows each injected
// phase spans: long enough that the detector sees several stationary
// windows between boundaries, short enough that the experiment stays a
// smoke test.
const driftWindowsPerPhase = 4

// driftDetectLatency is how many windows after an injected boundary a
// drift flag still counts as detecting it. The slack is measurement
// physics, not detector tuning: a reuse is recorded when its watchpoint
// traps, so a new phase's locality shows up only as its reuses resolve
// — for a phase whose mean reuse time spans a window or two, the first
// post-boundary windows carry mostly the old phase's late trap arrivals.
const driftDetectLatency = 2

// DriftResult is the DRIFT experiment: phase-change detection on a
// workload with injected locality shifts, gated against a stationary
// control.
type DriftResult struct {
	// Windows is how many windows the phased run produced.
	Windows int
	// Boundaries are the window indices where a new phase begins.
	Boundaries []int
	// Flagged are the window indices the detector scored as drift.
	Flagged []int
	// Missed are injected boundaries no flag landed within
	// driftDetectLatency windows of; detection requires it empty.
	Missed []int
	// Spurious are flags not attributable to any boundary (false
	// positives inside a stationary phase); precision requires it empty.
	Spurious []int
	// ControlFlags is how many windows drifted on the stationary
	// control run; the zero-false-positive gate requires 0.
	ControlFlags int
}

// RunDrift drives the windowed profiler over a four-phase workload with
// three injected locality shifts — a cache-resident cyclic sweep, a
// random scan over a 64x larger footprint, the cyclic sweep again, and
// a Zipf-skewed phase — and checks the drift detector under its
// defaults: every boundary flagged within driftDetectLatency windows,
// no flags elsewhere, and zero flags on an equally long stationary
// Zipf control. This is the check.sh gate for the continuous-profiling
// path (Session.Watch, rdxd watch alerts), which runs the identical
// Collector.
func (o Options) RunDrift() (*DriftResult, error) {
	// Fixed internal operating point: each phase spans
	// driftWindowsPerPhase windows, and the sampling period is tied to
	// the window so every window averages ~1024 samples — well past the
	// detector's 64-sample evidence floor regardless of the caller's
	// -n/-period. Density matters for the zero-false-positive gate: at a
	// few hundred samples a stationary workload's per-window histograms
	// jitter enough to read as shape distance.
	// The phase floor keeps the density real even under Quick sizing:
	// at 256K accesses per phase the period bottoms out at 64 with the
	// full 1024 samples per window. Below that the working-set quantile
	// of a stochastic phase jitters across power-of-two bucket edges,
	// which the shift threshold reads as drift.
	phase := o.Accesses / 4
	if phase < 256<<10 {
		phase = 256 << 10
	}
	win := phase / driftWindowsPerPhase
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.SamplePeriod = max(64, win/1024)

	// Disjoint address bases per phase: a block shared across phases
	// can carry a watchpoint armed in one phase into the next, whose
	// huge cross-phase reuse distance would bleed into the new phase's
	// working set and blur the injected boundary.
	// Each stochastic footprint is kept well under the window (mean
	// reuse time a few percent of it) so a phase entered at a boundary
	// resolves its reuses inside the first post-boundary window — the
	// working-set jump lands in one step instead of creeping bucket by
	// bucket under watchpoint latency.
	phased := trace.Concat(
		trace.Cyclic(0, 16, phase),
		trace.RandomUniform(o.Seed+1, 1<<30, 1<<10, phase),
		trace.Cyclic(2<<30, 16, phase),
		trace.ZipfAccess(o.Seed+2, 3<<30, 1<<14, 1.0, phase),
	)
	// The control's footprint is chosen so its measured working-set
	// quantile sits inside a power-of-two bucket rather than on an
	// edge; a quantile on an edge flips buckets under sampling jitter,
	// which is working-set noise, not locality drift.
	control := trace.ZipfAccess(o.Seed+3, 0, 1<<14, 1.0, 4*phase)

	run := func(r trace.Reader) (*window.Collector, error) {
		p, err := core.NewProfiler(cfg)
		if err != nil {
			return nil, err
		}
		col := window.NewCollector(cfg.Granularity.BlockSize(), 4*driftWindowsPerPhase, window.DriftOptions{})
		_, err = p.Run(context.Background(), r, cpumodel.Default(), win, func(s *core.Result) {
			col.Observe(s.Accesses, s.Samples, s.ReuseDistance, s.ReuseTime)
		})
		if err != nil {
			return nil, err
		}
		return col, nil
	}

	col, err := run(phased)
	if err != nil {
		return nil, err
	}
	res := &DriftResult{
		Windows:    col.Produced(),
		Boundaries: []int{driftWindowsPerPhase, 2 * driftWindowsPerPhase, 3 * driftWindowsPerPhase},
	}
	for _, w := range col.Windows() {
		if w.Score != nil && w.Score.Drift {
			res.Flagged = append(res.Flagged, w.Index)
		}
	}
	detects := func(b int) bool {
		for _, f := range res.Flagged {
			if f >= b && f <= b+driftDetectLatency {
				return true
			}
		}
		return false
	}
	for _, b := range res.Boundaries {
		if !detects(b) {
			res.Missed = append(res.Missed, b)
		}
	}
	for _, f := range res.Flagged {
		near := false
		for _, b := range res.Boundaries {
			if f >= b && f <= b+driftDetectLatency {
				near = true
				break
			}
		}
		if !near {
			res.Spurious = append(res.Spurious, f)
		}
	}

	ctl, err := run(control)
	if err != nil {
		return nil, err
	}
	res.ControlFlags = ctl.Drifts()

	tb := report.NewTable("DRIFT: phase-change detection on injected locality shifts",
		"signal", "value", "gate")
	tb.AddRow("windows (phased run)", res.Windows, "")
	tb.AddRow("injected boundaries", fmt.Sprint(res.Boundaries), "")
	tb.AddRow("flagged windows", fmt.Sprint(res.Flagged), fmt.Sprintf("each boundary within +%d", driftDetectLatency))
	tb.AddRow("missed boundaries", fmt.Sprint(res.Missed), "must be []")
	tb.AddRow("spurious flags", fmt.Sprint(res.Spurious), "must be []")
	tb.AddRow("control flags (stationary)", res.ControlFlags, "must be 0")
	if err := tb.WriteText(o.out()); err != nil {
		return nil, err
	}

	if len(res.Missed) > 0 {
		return res, fmt.Errorf("experiments: DRIFT missed injected phase changes at windows %v (flagged %v)", res.Missed, res.Flagged)
	}
	if len(res.Spurious) > 0 {
		return res, fmt.Errorf("experiments: DRIFT flagged stationary windows %v (boundaries %v)", res.Spurious, res.Boundaries)
	}
	if res.ControlFlags > 0 {
		return res, fmt.Errorf("experiments: DRIFT flagged %d windows on the stationary control", res.ControlFlags)
	}
	return res, nil
}
