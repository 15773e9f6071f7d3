package cch

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ch"
)

// Config tunes one customization pass. The zero value is the serving
// default: geometric order, worker count from GOMAXPROCS, basic
// (non-perfect) output.
type Config struct {
	// Order selects the nested-dissection pipeline of the underlying
	// preprocessing. Only consulted by BuildWith (which resolves the
	// shared preprocessing); CustomizeWith on an existing Preprocessed
	// ignores it — the order is baked into the contraction.
	Order OrderConfig
	// Workers bounds the per-level fan-out of the triangle relaxation.
	// 0 (or negative) selects runtime.GOMAXPROCS(0); 1 forces the serial
	// sweep. Any value produces bit-identical arcs — levels only group
	// independent pairs — so parallelism is purely a latency knob.
	Workers int
	// Perfect enables the descending perfect-customization post-pass:
	// arcs whose basic weight is strictly dominated by a path through an
	// intermediate or upper triangle are marked inert, and queries,
	// PHAST sweeps and RPHAST selections skip them. Roughly doubles
	// customization cost; shrinks every subsequent sweep.
	Perfect bool
	// BidirQuery keeps the bidirectional upward Dijkstra for
	// point-to-point queries instead of the default elimination-tree
	// engine. Both return bit-identical distances; the toggle exists for
	// ablations and the -query flag.
	BidirQuery bool
}

// arcBuf is one generation's output storage: the packed arc array (and,
// for perfect customizations, the inert mask) a customized runtime hands
// to queries. Buffers are double-buffered on the Preprocessed — leased to
// at most one in-flight runtime at a time and reclaimed only after the
// garbage collector proves that runtime unreachable, so a store swapping
// snapshots reuses its previous generation's storage without ever
// racing a query still reading it.
type arcBuf struct {
	arcs []ch.Arc
	// arcW mirrors arcs[i].Weight — the packed view the runtime's relax
	// loops read (ch.Runtime.WithArcsInert); filled by the same loop that
	// packs the final weights into the arc records.
	arcW   []float64
	inert  []bool
	leased atomic.Bool
}

// maxArcBufs bounds how many buffers a Preprocessed retains. Steady
// state needs current + in-build per weight store sharing the topology
// (two stores — public and private metric — is the common shape);
// beyond the bound, extra concurrent customizations fall back to
// untracked allocations rather than queueing.
const maxArcBufs = 8

// soaScratch holds the flat structure-of-arrays weight vectors the
// triangle loops run over: 16 bytes per pair touched in the hot loop
// instead of two 40-byte ch.Arc records. perfUp/perfDown are allocated
// on first perfect customization only.
type soaScratch struct {
	upW, downW       []float64
	perfUp, perfDown []float64
}

// acquireBuf leases a free buffer, or allocates one (tracked while under
// the bound). withInert sizes the inert mask lazily: basic
// customizations never pay for it.
func (p *Preprocessed) acquireBuf(withInert bool) *arcBuf {
	P := len(p.lo)
	p.bufMu.Lock()
	var buf *arcBuf
	for _, b := range p.bufs {
		if b.leased.CompareAndSwap(false, true) {
			buf = b
			break
		}
	}
	if buf == nil {
		buf = &arcBuf{arcs: make([]ch.Arc, 2*P), arcW: make([]float64, 2*P)}
		buf.leased.Store(true)
		if len(p.bufs) < maxArcBufs {
			p.bufs = append(p.bufs, buf)
		}
	}
	p.bufMu.Unlock()
	if withInert && buf.inert == nil {
		buf.inert = make([]bool, 2*P)
	}
	return buf
}

// Customize instantiates the preprocessed topology for one weight vector
// with the default Config: every slot starts at its cheapest original
// edge (+Inf when none), then the lower-triangle relaxation runs level
// by level (fanned over GOMAXPROCS workers when levels are wide enough),
// recording winning decompositions so shortcut arcs unpack to original
// edge sequences. The result is exact for arbitrary weights — congestion
// of any magnitude, +Inf closures — and each call is independent, so a
// serving layer can customize in the background and swap atomically.
func (p *Preprocessed) Customize(weights []float64) *ch.Runtime {
	return p.CustomizeWith(weights, Config{})
}

// CustomizeWith is Customize with explicit worker and perfect-pass
// control. All configurations produce bit-identical basic arcs; Perfect
// additionally marks strictly dominated arcs inert (weights and
// unpacking untouched, so route sets are unchanged too).
func (p *Preprocessed) CustomizeWith(weights []float64, cfg Config) *ch.Runtime {
	P := len(p.lo)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	buf := p.acquireBuf(cfg.Perfect)
	arcs := buf.arcs
	sc := p.soa.Get().(*soaScratch)
	upW, downW := sc.upW, sc.downW

	// Metric init: cheapest original edge per directed slot. Weights live
	// in the SoA vectors until the pack step; arcs carry heads and
	// unpacking info from the start.
	inf := math.Inf(1)
	for i := 0; i < P; i++ {
		up := ch.Arc{To: p.hi[i], Weight: inf, Orig: -1, Skip1: -1, Skip2: -1}
		wu := inf
		for _, e := range p.upEdges[p.upOff[i]:p.upOff[i+1]] {
			if weights[e] < wu {
				wu = weights[e]
				up.Orig = e
			}
		}
		down := ch.Arc{To: p.lo[i], Weight: inf, Orig: -1, Skip1: -1, Skip2: -1}
		wd := inf
		for _, e := range p.downEdges[p.downOff[i]:p.downOff[i+1]] {
			if weights[e] < wd {
				wd = weights[e]
				down.Orig = e
			}
		}
		upW[i], downW[i] = wu, wd
		arcs[2*i], arcs[2*i+1] = up, down
	}

	// Triangle relaxation. Skip arcs record the winning decomposition in
	// path order: up (lo→hi) via z is lo→z then z→hi; down (hi→lo) is
	// hi→z then z→lo. The up arc of pair q is arc 2q, the down arc 2q+1.
	// A pair's relaxation writes only its own two slots and reads only
	// strictly lower levels, so the level grouping makes any execution
	// order within a level — serial ascending included — produce
	// bit-identical arcs.
	relax := func(pairs []int32) {
		for _, i := range pairs {
			up, down := &arcs[2*i], &arcs[2*i+1]
			wu, wd := upW[i], downW[i]
			for k := p.triOff[i]; k < p.triOff[i+1]; k++ {
				za, zb := p.triLoSide[k], p.triHiSide[k]
				if c := downW[za] + upW[zb]; c < wu {
					wu = c
					up.Orig = -1
					up.Skip1, up.Skip2 = 2*za+1, 2*zb
				}
				if c := downW[zb] + upW[za]; c < wd {
					wd = c
					down.Orig = -1
					down.Skip1, down.Skip2 = 2*zb+1, 2*za
				}
			}
			upW[i], downW[i] = wu, wd
		}
	}
	if workers == 1 {
		// Serial fast path: plain ascending pair order streams the
		// triangle arrays sequentially instead of hopping through the
		// level permutation — same arcs, much friendlier cache behavior.
		for i := int32(0); i < int32(P); i++ {
			up, down := &arcs[2*i], &arcs[2*i+1]
			wu, wd := upW[i], downW[i]
			for k := p.triOff[i]; k < p.triOff[i+1]; k++ {
				za, zb := p.triLoSide[k], p.triHiSide[k]
				if c := downW[za] + upW[zb]; c < wu {
					wu = c
					up.Orig = -1
					up.Skip1, up.Skip2 = 2*za+1, 2*zb
				}
				if c := downW[zb] + upW[za]; c < wd {
					wd = c
					down.Orig = -1
					down.Skip1, down.Skip2 = 2*zb+1, 2*za
				}
			}
			upW[i], downW[i] = wu, wd
		}
	} else {
		// parallelGrain is the minimum number of pairs per worker that
		// makes a goroutine handoff worth its latency; narrower levels
		// run inline.
		const parallelGrain = 512
		for L := 1; L < p.NumLevels(); L++ { // level 0 has no triangles
			pairs := p.levelPairs[p.levelOff[L]:p.levelOff[L+1]]
			chunks := len(pairs) / parallelGrain
			if chunks > workers {
				chunks = workers
			}
			if chunks <= 1 {
				relax(pairs)
				continue
			}
			size := (len(pairs) + chunks - 1) / chunks
			var wg sync.WaitGroup
			for c := 0; c < chunks; c++ {
				lo := c * size
				hi := lo + size
				if hi > len(pairs) {
					hi = len(pairs)
				}
				wg.Add(1)
				go func(ps []int32) {
					defer wg.Done()
					relax(ps)
				}(pairs[lo:hi])
			}
			wg.Wait()
		}
	}

	// Pack the final weights back into the arc records and the packed
	// weight view the relax loops read.
	arcW := buf.arcW
	for i := 0; i < P; i++ {
		arcs[2*i].Weight = upW[i]
		arcs[2*i+1].Weight = downW[i]
		arcW[2*i] = upW[i]
		arcW[2*i+1] = downW[i]
	}

	var inert []bool
	if cfg.Perfect {
		inert = p.perfectPass(sc, buf)
	}

	p.soa.Put(sc)

	p.mu.Lock()
	tmpl := p.template
	p.mu.Unlock()
	if tmpl == nil {
		rt := ch.NewRuntime(p.g, Kind, p.rank, p.arcFrom, arcs, p.Customize)
		p.mu.Lock()
		if p.template == nil {
			// Cache only the shared adjacency (arcs nilled): the template
			// exists for WithArcsInert, and pinning one customization's
			// full arc array would hold megabytes per city for the
			// process lifetime.
			p.template = rt.WithArcs(nil)
		}
		tmpl = p.template
		p.mu.Unlock()
	}
	rt := tmpl.WithArcsInert(arcs, arcW, inert).WithCustomize(func(w []float64) *ch.Runtime {
		return p.CustomizeWith(w, cfg)
	})
	if !cfg.BidirQuery {
		// The chordal supergraph's upward neighborhoods are cliques, so the
		// elimination tree carries the whole upward search space: queries
		// on this runtime walk root paths instead of running a heap.
		rt = rt.WithElimTree(p.elim)
	}
	// The runtime owns the buffer for its lifetime; the finalizer returns
	// it to the free list once no query can possibly read it anymore.
	// (A deterministic release hook would reclaim earlier, but only the
	// collector can prove in-flight queries on a swapped-out generation
	// are gone.)
	b := buf
	runtime.SetFinalizer(rt, func(*ch.Runtime) { b.leased.Store(false) })
	return rt
}

// perfectPass runs perfect customization: a descending sweep that, per
// lower triangle {z, a, b} of pair {a, b}, relaxes the four arcs
// incident to z through the pair's (already exact) arcs —
//
//	z→b ≤ z→a + a→b    b→z ≤ b→a + a→z
//	z→a ≤ z→b + b→a    a→z ≤ a→b + b→z
//
// Processing pairs in descending index order (descending rank of the
// lower endpoint), every pair's own arcs are exact shortest-path
// distances by the time its triangles are applied: all writes to a pair
// come from strictly higher groups, and the first-hop decomposition
// dist(a,b) = min over upward neighbours v of a of
// (basic w(a→v) + dist(v,b)) is realized by the triangle {a, v, b} (the
// upward neighbourhood of a is a clique, so that triangle exists and is
// applied while its upper pair is exact). The pass therefore computes,
// in perfUp/perfDown, the true directed distances between every pair's
// endpoints — against which an arc whose basic weight is strictly
// greater is provably useless (every shortest up-down path consists of
// arcs whose weight equals their endpoints' distance) and marked inert.
// Basic weights and unpacking stay untouched: distances, routes and
// unpackings are byte-identical, only the work to compute them shrinks.
//
// The write pattern (triangles of different pairs update the same
// z-incident arcs) is why this pass stays serial rather than
// level-parallel.
func (p *Preprocessed) perfectPass(sc *soaScratch, buf *arcBuf) []bool {
	P := len(p.lo)
	if sc.perfUp == nil {
		sc.perfUp = make([]float64, P)
		sc.perfDown = make([]float64, P)
	}
	perfUp, perfDown := sc.perfUp, sc.perfDown
	copy(perfUp, sc.upW[:P])
	copy(perfDown, sc.downW[:P])
	for i := P - 1; i >= 0; i-- {
		pu, pd := perfUp[i], perfDown[i]
		for k := p.triOff[i]; k < p.triOff[i+1]; k++ {
			za, zb := p.triLoSide[k], p.triHiSide[k]
			if c := perfUp[za] + pu; c < perfUp[zb] {
				perfUp[zb] = c
			}
			if c := pd + perfDown[za]; c < perfDown[zb] {
				perfDown[zb] = c
			}
			if c := perfUp[zb] + pd; c < perfUp[za] {
				perfUp[za] = c
			}
			if c := pu + perfDown[zb]; c < perfDown[za] {
				perfDown[za] = c
			}
		}
	}
	// Strict domination keeps equal-weight arcs alive, which is what
	// preserves tie-breaking (and with it byte-identical parents) in
	// every downstream sweep. +Inf slots — topology pairs the metric
	// gives no realizing path — can never win a relaxation either, so
	// perfect mode retires them from the sweeps too.
	inert := buf.inert
	upW, downW := sc.upW, sc.downW
	for i := 0; i < P; i++ {
		inert[2*i] = perfUp[i] < upW[i] || math.IsInf(upW[i], 1)
		inert[2*i+1] = perfDown[i] < downW[i] || math.IsInf(downW[i], 1)
	}
	return inert
}
