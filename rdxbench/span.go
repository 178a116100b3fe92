package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the
// program. Spans of one session or round share Run; Parent is the ID of
// the span that caused this one (0 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// tracing switched off: every method is a no-op, so untraced runs pay
// one nil check per call site.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	runs  int
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewRun returns a fresh run ID, to tie the spans of one session or
// round together (0 when tracing is off).
func (t *Tracer) NewRun() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

// Begin opens a span and returns its ID (0 when tracing is off).
func (t *Tracer) Begin(name string, parent, run int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: now})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Record adds an already-timed span.
func (t *Tracer) Record(name string, parent, run int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return len(t.spans)
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes the spans, one JSON object per line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (children may overlap one another, as
// concurrent sessions do), indexed like spans.
func selfTimes(spans []Span) ([]int64, error) {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		index[s.ID] = i
	}
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if _, ok := index[s.Parent]; !ok {
			return nil, fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.ID])
	}
	return self, nil
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// stages sums the self time of the spans of some runs by span name.
type stages struct {
	self     map[string]int64 // nanoseconds
	count    map[string]int
	accesses uint64 // the accesses those runs processed
}

func stagesOf(tr *Tracer, runs map[int]bool, accesses uint64) (stages, error) {
	var mine []Span
	for _, s := range tr.Spans() {
		if runs[s.Run] {
			mine = append(mine, s)
		}
	}
	self, err := selfTimes(mine)
	if err != nil {
		return stages{}, err
	}
	st := stages{self: map[string]int64{}, count: map[string]int{}, accesses: accesses}
	for i, s := range mine {
		st.self[s.Name] += self[i]
		st.count[s.Name]++
	}
	return st, nil
}

// perAcc is the self time of the spans named name per access, in ns.
func (s stages) perAcc(name string) float64 {
	if s.accesses == 0 {
		return 0
	}
	return float64(s.self[name]) / float64(s.accesses)
}

// mean is the mean self time of the spans named name, in unit.
func (s stages) mean(name string, unit time.Duration) float64 {
	if s.count[name] == 0 {
		return 0
	}
	return float64(s.self[name]) / float64(s.count[name]) / float64(unit)
}

// ledger sets the named stages, per access, against end-to-end.
func (s stages) ledger(endToEnd float64, rows ...[2]string) Ledger {
	l := Ledger{EndToEnd: endToEnd}
	for _, r := range rows {
		l.Stages = append(l.Stages, LedgerStage{r[0], s.perAcc(r[1])})
	}
	return l
}

// Ledger sets the stages of one workload against its end-to-end cost,
// all in nanoseconds of processor time per access.
type Ledger struct {
	Stages   []LedgerStage
	EndToEnd float64
}

// LedgerStage is one row of a ledger.
type LedgerStage struct {
	Name    string
	NsPerAc float64
}

// Sum is the total of the stage rows.
func (l Ledger) Sum() float64 {
	var s float64
	for _, st := range l.Stages {
		s += st.NsPerAc
	}
	return s
}

// Residual is what the stages do not account for: end-to-end minus
// their sum.
func (l Ledger) Residual() float64 { return l.EndToEnd - l.Sum() }

// ResidualFrac is the residual as a share of end-to-end.
func (l Ledger) ResidualFrac() float64 {
	if l.EndToEnd == 0 {
		return 0
	}
	return l.Residual() / l.EndToEnd
}

func (l Ledger) String() string {
	var b []byte
	for _, st := range l.Stages {
		b = fmt.Appendf(b, "  %-22s %10.2f ns/acc\n", st.Name, st.NsPerAc)
	}
	b = fmt.Appendf(b, "  %-22s %10.2f ns/acc\n", "sum of stages", l.Sum())
	b = fmt.Appendf(b, "  %-22s %10.2f ns/acc\n", "end to end", l.EndToEnd)
	b = fmt.Appendf(b, "  %-22s %10.2f ns/acc (%.1f%% of end to end)\n", "residual", l.Residual(), 100*l.ResidualFrac())
	return string(b)
}
