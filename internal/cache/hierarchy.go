package cache

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Hierarchy simulates a multi-level cache (L1 → L2 → … → memory):
// accesses filter level by level, each level seeing only the misses of
// the one above — the reference for hierarchy-wide predictions from one
// reuse-distance histogram.
type Hierarchy struct {
	levels []*Cache
	names  []string
}

// LevelSpec names one level of a hierarchy.
type LevelSpec struct {
	Name   string
	Config Config
}

// TypicalHierarchy returns a contemporary three-level configuration:
// 32KiB/8-way L1, 1MiB/16-way L2, 32MiB fully associative LLC, 64-byte
// lines throughout.
func TypicalHierarchy() []LevelSpec {
	return []LevelSpec{
		{Name: "L1", Config: Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8}},
		{Name: "L2", Config: Config{SizeBytes: 1 << 20, LineBytes: 64, Ways: 16}},
		{Name: "LLC", Config: Config{SizeBytes: 32 << 20, LineBytes: 64, Ways: 0}},
	}
}

// NewHierarchy builds a hierarchy from the given level specs (ordered
// from the innermost level outward).
func NewHierarchy(specs []LevelSpec) (*Hierarchy, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cache: hierarchy with no levels")
	}
	h := &Hierarchy{}
	for _, s := range specs {
		c, err := New(s.Config)
		if err != nil {
			return nil, fmt.Errorf("cache: level %s: %w", s.Name, err)
		}
		h.levels = append(h.levels, c)
		h.names = append(h.names, s.Name)
	}
	return h, nil
}

// Access filters one access through the hierarchy and returns the index
// of the level that hit (len(levels) means memory).
func (h *Hierarchy) Access(a mem.Access) int {
	for i, c := range h.levels {
		if c.Access(a) {
			return i
		}
	}
	return len(h.levels)
}

// MissRatios returns each level's local miss ratio (misses at the level
// divided by accesses reaching it).
func (h *Hierarchy) MissRatios() []float64 {
	out := make([]float64, len(h.levels))
	for i, c := range h.levels {
		out[i] = c.MissRatio()
	}
	return out
}

// Names returns the level names.
func (h *Hierarchy) Names() []string { return append([]string(nil), h.names...) }

// SimulateHierarchy drains a trace through a hierarchy and returns each
// level's local miss ratio.
func SimulateHierarchy(r trace.Reader, specs []LevelSpec) ([]float64, error) {
	h, err := NewHierarchy(specs)
	if err != nil {
		return nil, err
	}
	err = trace.ForEach(r, func(a mem.Access) bool {
		h.Access(a)
		return true
	})
	if err != nil {
		return nil, err
	}
	return h.MissRatios(), nil
}
