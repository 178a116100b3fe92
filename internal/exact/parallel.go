package exact

import (
	"io"
	"runtime"
	"slices"
	"sync"

	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/trace"
)

// This file parallelizes Olken's algorithm across contiguous trace
// shards without giving up exactness. The decomposition:
//
//   - A reuse whose use and reuse both fall in the same shard has every
//     intervening access inside that shard too (the shard is a
//     contiguous time window), so a per-shard Olken over only the
//     shard's own accesses measures it exactly. Workers do this in
//     parallel.
//   - A reuse that crosses a shard boundary is resolved when the two
//     windows containing its use and its reuse are combined. Each
//     worker reports, per distinct block it touched, the first and last
//     access (time and PC) — its "boundary records", in first-touch
//     order. Combining two adjacent windows A·B resolves every reuse
//     whose use is A's last access of a block and whose reuse is B's
//     first: for B's record of block b first touched at time t with A's
//     last access of b at p, the distinct blocks accessed in (p, t)
//     split into (a) blocks touched earlier in B — exactly the B
//     records already processed — and (b) blocks untouched in B before
//     t whose last access in A exceeds p: a CountGreater over A's
//     last-access times after evicting the already-processed blocks'
//     stale keys. The distance is (a) + (b); every intervening access
//     lies inside A·B, so the value is final and bit-exact with the
//     sequential algorithm no matter what surrounds the pair.
//
// The combine is an associative monoid over contiguous windows (a
// combined window's boundary records are again first/last records), so
// the shards reduce in a parallel pairwise tree instead of a
// single-threaded left fold; blocks still unresolved at the root are
// the trace's true cold misses. Histogram and attribution merges only
// ever add unit-weight integer observations, so the result is identical
// (not just statistically equivalent) to Measure's, independent of
// worker count, shard size, and reduction-tree shape.

// DefaultShardSize is the default number of accesses per parallel
// shard: large enough that the O(shard log shard) local work dwarfs the
// O(distinct) merge work, small enough to bound in-flight memory
// (1M accesses × 16 B × ~workers in flight).
const DefaultShardSize = 1 << 20

// ParallelOptions tunes MeasureParallel.
type ParallelOptions struct {
	// Workers is the worker-pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// ShardSize is the number of accesses per shard; <= 0 selects
	// DefaultShardSize. The result does not depend on it.
	ShardSize int
	// Attribution enables exact per-code-pair aggregation.
	Attribution bool
}

// ParallelResult is the merged outcome of a sharded exact measurement.
// It exposes the same observers as the sequential Profiler and holds
// identical histograms.
type ParallelResult struct {
	distHist *histogram.Histogram
	timeHist *histogram.Histogram
	accesses uint64
	distinct uint64
	state    uint64
	pairs    map[PairKey]*PairAgg
}

// ReuseDistance returns the exact reuse-distance histogram.
func (r *ParallelResult) ReuseDistance() *histogram.Histogram { return r.distHist }

// ReuseTime returns the exact reuse-time histogram.
func (r *ParallelResult) ReuseTime() *histogram.Histogram { return r.timeHist }

// Accesses returns the number of observed accesses.
func (r *ParallelResult) Accesses() uint64 { return r.accesses }

// DistinctBlocks returns the number of distinct blocks seen.
func (r *ParallelResult) DistinctBlocks() uint64 { return r.distinct }

// StateBytes approximates the heap state a sequential measurement of the
// same trace would hold (merge tree of one key per distinct block plus
// the last-access map model the sequential Profiler uses).
func (r *ParallelResult) StateBytes() uint64 { return r.state }

// Pairs returns the exact per-code-pair aggregation (nil unless
// ParallelOptions.Attribution was set).
func (r *ParallelResult) Pairs() map[PairKey]*PairAgg { return r.pairs }

// blockBoundary is one distinct block's first and last access within a
// shard, in global timestamps (1-based, as the sequential clock assigns
// them).
type blockBoundary struct {
	block     mem.Addr
	firstTime uint64
	lastTime  uint64
	firstPC   mem.Addr
	lastPC    mem.Addr
}

// shardResult is one worker's output for one contiguous shard.
type shardResult struct {
	accesses uint64
	dist     *histogram.Histogram // intra-shard reuses only
	time     *histogram.Histogram
	pairs    map[PairKey]*PairAgg // intra-shard pairs (nil without attribution)
	blocks   []blockBoundary      // distinct blocks, in first-touch order
}

// measureShard runs local Olken over one shard. startTime is the global
// timestamp of the access before accs[0] (i.e. accs[k] executes at
// startTime+k+1), so boundary records carry globally comparable times.
func measureShard(accs []mem.Access, startTime uint64, g mem.Granularity, attrib bool) *shardResult {
	sr := &shardResult{
		accesses: uint64(len(accs)),
		dist:     histogram.New(),
		time:     histogram.New(),
	}
	if attrib {
		sr.pairs = make(map[PairKey]*PairAgg)
	}
	idx := make(map[mem.Addr]int32)
	tree := newOSList()
	for k := range accs {
		a := &accs[k]
		t := startTime + uint64(k) + 1
		b := g.Block(a.Addr)
		if bi, ok := idx[b]; ok {
			rec := &sr.blocks[bi]
			d, _ := tree.CountGreaterAndDelete(rec.lastTime)
			sr.dist.Add(d, 1)
			sr.time.Add(t-rec.lastTime, 1)
			if attrib {
				key := PairKey{UsePC: rec.lastPC, ReusePC: a.PC}
				agg := sr.pairs[key]
				if agg == nil {
					agg = &PairAgg{}
					sr.pairs[key] = agg
				}
				agg.Count++
				agg.DistSum += float64(d)
			}
			rec.lastTime, rec.lastPC = t, a.PC
		} else {
			// First touch within the shard: cold here, but possibly a
			// cross-shard reuse globally — the merge decides, so no
			// histogram entry yet.
			idx[b] = int32(len(sr.blocks))
			sr.blocks = append(sr.blocks, blockBoundary{
				block: b, firstTime: t, lastTime: t, firstPC: a.PC, lastPC: a.PC,
			})
		}
		tree.InsertMax(t)
	}
	return sr
}

// addShardPair bumps one code pair's exact aggregation.
func addShardPair(pairs map[PairKey]*PairAgg, key PairKey, dist uint64) {
	agg := pairs[key]
	if agg == nil {
		agg = &PairAgg{}
		pairs[key] = agg
	}
	agg.Count++
	agg.DistSum += float64(dist)
}

// combineShards merges two adjacent contiguous windows A·B into one,
// resolving every reuse whose use is in A and reuse in B (see the
// package comment's decomposition). It is destructive: the merged
// window lives in a, and b must not be used afterwards. The operation
// is associative, which is what licenses the parallel reduction tree.
func combineShards(a, b *shardResult, attrib bool) *shardResult {
	a.accesses += b.accesses
	a.dist.AddHistogram(b.dist)
	a.time.AddHistogram(b.time)
	for key, agg := range b.pairs {
		g := a.pairs[key]
		if g == nil {
			g = &PairAgg{}
			a.pairs[key] = g
		}
		g.Count += agg.Count
		g.DistSum += agg.DistSum
	}

	// A's last-access times, one key per block; B's records evict their
	// block's stale key as they resolve against it. Access times are
	// distinct, so the sorted keys feed osList's increasing-insert path;
	// the counts do not depend on insertion order.
	idx := make(map[mem.Addr]int32, len(a.blocks))
	last := make([]uint64, len(a.blocks))
	for i := range a.blocks {
		idx[a.blocks[i].block] = int32(i)
		last[i] = a.blocks[i].lastTime
	}
	slices.Sort(last)
	tree := newOSList()
	for _, t := range last {
		tree.InsertMax(t)
	}
	// Resolve B's first touches in first-touch order. `removed` counts
	// B records already processed: each was accessed in B before the
	// current first touch, hence inside any A→B reuse window ending
	// here.
	removed := 0
	for i := range b.blocks {
		rec := &b.blocks[i]
		if ai, ok := idx[rec.block]; ok {
			arec := &a.blocks[ai]
			above, _ := tree.CountGreaterAndDelete(arec.lastTime)
			d := uint64(removed) + above
			a.dist.Add(d, 1)
			a.time.Add(rec.firstTime-arec.lastTime, 1)
			if attrib {
				addShardPair(a.pairs, PairKey{UsePC: arec.lastPC, ReusePC: rec.firstPC}, d)
			}
			// The block's window-wide last access is now B's.
			arec.lastTime, arec.lastPC = rec.lastTime, rec.lastPC
		} else {
			// First touch across A·B: stays a boundary record of the
			// combined window (firstTime/firstPC are B's, still correct).
			a.blocks = append(a.blocks, *rec)
		}
		removed++
	}
	return a
}

// reduceShards folds ordered shard results into one window via a
// parallel pairwise reduction tree, bounded by `workers` concurrent
// combines. Associativity makes the tree shape invisible in the result.
func reduceShards(shards []*shardResult, workers int, attrib bool) *shardResult {
	if len(shards) == 0 {
		sr := &shardResult{dist: histogram.New(), time: histogram.New()}
		if attrib {
			sr.pairs = make(map[PairKey]*PairAgg)
		}
		return sr
	}
	sem := make(chan struct{}, workers)
	var reduce func(lo, hi int) *shardResult
	reduce = func(lo, hi int) *shardResult {
		if hi-lo == 1 {
			return shards[lo]
		}
		mid := (lo + hi) / 2
		select {
		case sem <- struct{}{}:
			// A worker slot is free: reduce the left half concurrently.
			ch := make(chan *shardResult, 1)
			go func() {
				left := reduce(lo, mid)
				<-sem
				ch <- left
			}()
			right := reduce(mid, hi)
			return combineShards(<-ch, right, attrib)
		default:
			return combineShards(reduce(lo, mid), reduce(mid, hi), attrib)
		}
	}
	return reduce(0, len(shards))
}

// finishShards turns the reduction root into the external result: every
// block still unresolved at the root is a true cold miss of the whole
// trace.
func finishShards(root *shardResult) *ParallelResult {
	res := &ParallelResult{
		distHist: root.dist,
		timeHist: root.time,
		accesses: root.accesses,
		distinct: uint64(len(root.blocks)),
		pairs:    root.pairs,
	}
	for range root.blocks {
		res.distHist.Add(histogram.Infinite, 1)
		res.timeHist.Add(histogram.Infinite, 1)
	}
	// State model, as the sequential merge held it: one order-tree key
	// (a 24-byte tree node + 4-byte free-list slot) plus one last-use
	// map entry per distinct block.
	const mapEntryBytes = 56 // as Profiler.StateBytes models map[Addr]lastUse
	const treeKeyBytes = 28
	res.state = uint64(len(root.blocks)) * (mapEntryBytes + treeKeyBytes)
	return res
}

// MeasureParallel measures a stream exhaustively like Measure, but
// fanned out over contiguous trace shards on a bounded worker pool,
// with cross-shard reuses resolved by a parallel pairwise reduction
// over the shard results. The histograms, pair aggregation and counters
// are identical to the sequential measurement for any worker count and
// shard size. Boundary records for all shards are held until the
// reduction, so peak memory is O(sum of per-shard distinct blocks) —
// the price of a parallel (rather than streaming left-fold) merge.
func MeasureParallel(r trace.Reader, g mem.Granularity, opt ParallelOptions) (*ParallelResult, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shardSize := opt.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}

	type job struct {
		accs  []mem.Access
		start uint64
		out   chan *shardResult
	}
	jobs := make(chan job, workers)
	// pending preserves shard order; its capacity (plus the jobs buffer)
	// bounds in-flight shard memory.
	pending := make(chan chan *shardResult, workers+1)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				jb.out <- measureShard(jb.accs, jb.start, g, opt.Attribution)
			}
		}()
	}

	var readErr error
	go func() {
		defer close(pending)
		defer close(jobs)
		var start uint64
		for {
			accs := make([]mem.Access, shardSize)
			filled := 0
			done := false
			for filled < shardSize {
				n, err := r.Read(accs[filled:])
				filled += n
				if err == io.EOF {
					done = true
					break
				}
				if err != nil {
					readErr = err
					done = true
					break
				}
			}
			if filled > 0 {
				out := make(chan *shardResult, 1)
				pending <- out
				jobs <- job{accs: accs[:filled], start: start, out: out}
				start += uint64(filled)
			}
			if done {
				return
			}
		}
	}()

	shards := make([]*shardResult, 0, workers+1)
	for out := range pending {
		shards = append(shards, <-out)
	}
	wg.Wait()
	if readErr != nil {
		return nil, readErr
	}
	return finishShards(reduceShards(shards, workers, opt.Attribution)), nil
}
