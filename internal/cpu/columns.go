package cpu

import (
	"repro/internal/pmu"
	"repro/internal/trace"
)

// ExecuteColumns runs one batch held in columnar form through the
// batched engine — the vectorized form of Execute for streams that
// arrive as wire column frames. Results are bit-identical to
// Execute over the materialized accesses (the differential tests pin
// this): the engine walks the same segmented dispatch, but event-free
// stretches never materialize a mem.Access at all — a free run is a
// counter add, and an AllAccesses sampling segment jumps straight from
// the PMU's headroom to the overflowing index. Accesses are
// reconstructed from the columns only where an event can observe them.
// Like Execute, call once per batch in order, then Finish; not safe for
// concurrent use.
func (m *Machine) ExecuteColumns(cols *trace.Columns) {
	n := cols.Len()
	if n == 0 {
		return
	}
	if m.instr != nil {
		m.runInstrumentedColumns(cols)
		return
	}
	i := 0
	for i < n {
		if m.drs != nil && m.drs.AnyArmed() {
			i = m.runWatchedColumns(cols, i)
			continue
		}
		if m.pmu != nil {
			i = m.runSamplingColumns(cols, i)
			continue
		}
		// Free run: no profiling hardware can observe these accesses.
		m.account.Accesses += uint64(n - i)
		m.executed += uint64(n - i)
		i = n
	}
}

// runInstrumentedColumns mirrors runInstrumented: exhaustive tools
// observe every access, so each one is materialized from the columns.
func (m *Machine) runInstrumentedColumns(cols *trace.Columns) {
	n := cols.Len()
	for i := 0; i < n; i++ {
		a := cols.Access(i)
		m.accessIndex = m.executed
		m.account.Accesses++
		m.account.Instrumented++
		m.instr(m.executed, a)
		if m.drs != nil {
			if t := m.drs.Check(a); t > 0 {
				m.account.Traps += uint64(t)
			}
		}
		if m.pmu != nil {
			if m.pmu.Tick(a) {
				m.account.Samples++
			}
		}
		m.executed++
	}
}

// runSamplingColumns mirrors runSampling over columns. For AllAccesses
// the overflow index comes straight from the headroom with no per-value
// work; filtered events scan the meta column's kind bits.
func (m *Machine) runSamplingColumns(cols *trace.Columns, i int) int {
	n := cols.Len()
	h := m.pmu.Headroom()
	ev := m.pmu.Config().Event

	j := n
	var qual uint64
	if ev == pmu.AllAccesses {
		if h == pmu.NoOverflow || uint64(n-i) <= h {
			qual = uint64(n - i)
		} else {
			j = i + int(h)
			qual = h
		}
	} else {
		for k := i; k < n; k++ {
			if ev.Matches(cols.Access(k)) {
				if qual == h {
					j = k
					break
				}
				qual++
			}
		}
	}

	m.pmu.Advance(uint64(j-i), qual)
	m.account.Accesses += uint64(j - i)
	m.executed += uint64(j - i)
	if j == n {
		return n
	}

	// cols[j] overflows: deliver precisely, then re-dispatch.
	m.accessIndex = m.executed
	m.account.Accesses++
	if m.pmu.Tick(cols.Access(j)) {
		m.account.Samples++
	}
	m.executed++
	return j + 1
}

// runWatchedColumns mirrors runWatched over columns: each access is
// materialized for the armed-slot pre-screen (Covers reads address,
// size and kind), PMU counting stays a local pending advance flushed
// before any event delivery.
func (m *Machine) runWatchedColumns(cols *trace.Columns, i int) int {
	n := cols.Len()

	m.slotScratch = m.drs.ArmedSlots(m.slotScratch[:0])
	wps := m.wpScratch[:0]
	for _, s := range m.slotScratch {
		wps = append(wps, m.drs.Slot(s))
	}
	m.wpScratch = wps

	var (
		h          uint64
		ev         pmu.EventSelect
		all, qual  uint64 // pending bulk advance for already-executed accesses
		hasSampler = m.pmu != nil
	)
	if hasSampler {
		h = m.pmu.Headroom()
		ev = m.pmu.Config().Event
	}

	for ; i < n; i++ {
		a := cols.Access(i)

		hit := false
		for k := range wps {
			if wps[k].Covers(a) {
				hit = true
				break
			}
		}
		matches := hasSampler && ev.Matches(a)
		overflow := matches && qual == h

		if !hit && !overflow {
			all++
			if matches {
				qual++
			}
			m.account.Accesses++
			m.executed++
			continue
		}

		m.accessIndex = m.executed
		m.account.Accesses++
		if hasSampler {
			m.pmu.Advance(all, qual)
			all, qual = 0, 0
		}
		if hit {
			if t := m.drs.Check(a); t > 0 {
				m.account.Traps += uint64(t)
			}
		}
		if hasSampler {
			if m.pmu.Tick(a) {
				m.account.Samples++
			}
		}
		m.executed++
		return i + 1 // armed set / period changed: re-dispatch
	}

	if hasSampler {
		m.pmu.Advance(all, qual)
	}
	return n
}
