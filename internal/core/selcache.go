package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/spatial"
)

// selectionCacheBytes is the total byte budget of one weight version's
// selection cache. A city-scale selection retains tens to hundreds of
// kilobytes, so the budget holds on the order of a hundred warm cell
// unions.
const selectionCacheBytes = 32 << 20

// selCacheShards is the shard count of the selection cache; must be a
// power of two (the shard is picked by masking the signature hash).
const selCacheShards = 8

// selEntryOverhead approximates the fixed per-entry bookkeeping bytes
// charged against the budget on top of the selection's own arrays.
const selEntryOverhead = 96

// selEntry is one cached selection keyed by the spatial cell signature it
// was built from. Entries are immutable after insertion except for the
// clock reference bit, which is only touched under the owning shard's
// mutex; the ch.Selection itself is safe for concurrent restricted
// builds, so readers use entries without any lock.
type selEntry struct {
	sig     []int32 // ascending cell ids, owned by the entry
	hash    uint64
	full    bool          // sweep everything: the RestrictedAutoFraction cutover
	targets int           // distinct requested target nodes
	sel     *ch.Selection // nil when full
	bytes   int
	ref     bool // clock reference bit (shard-mutex guarded)
}

// selShard is one mutex-guarded slice of entries with its own byte
// accounting and clock hand.
type selShard struct {
	mu      sync.Mutex
	entries []*selEntry
	bytes   int
	hand    int
}

// selectionCache is the size-bounded, sharded multi-entry selection cache
// behind selections: entries are keyed by cell signature (so every
// target set quantizing to the same cell union shares one Select), found
// by exact signature match or by a covering probe (any entry whose cell
// union contains the probe's cells serves it exactly — selections built
// on supersets stay exact on the subset), and evicted clock-wise under a
// per-shard byte budget. A cache instance lives and dies with one weight
// version: a selection indexes its tree builder's arcs, so it must never
// serve another customization.
type selectionCache struct {
	perShard int // byte budget per shard; <= 0 degenerates to one entry per shard
	stats    *selectionStats
	shards   [selCacheShards]selShard
}

func newSelectionCache(totalBytes int, stats *selectionStats) *selectionCache {
	return &selectionCache{perShard: totalBytes / selCacheShards, stats: stats}
}

// sigHash is FNV-1a over the signature's cell ids.
func sigHash(cells []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range cells {
		v := uint32(c)
		for i := 0; i < 4; i++ {
			h ^= uint64(v & 0xff)
			h *= 1099511628211
			v >>= 8
		}
	}
	return h
}

func sigEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sigSuperset reports whether sup contains every cell of sub; both must
// be sorted ascending.
func sigSuperset(sup, sub []int32) bool {
	i := 0
	for _, c := range sub {
		for i < len(sup) && sup[i] < c {
			i++
		}
		if i >= len(sup) || sup[i] != c {
			return false
		}
		i++
	}
	return true
}

// lookup returns a usable entry for the signature, or nil on a miss: the
// exact entry in the signature's home shard first, then — across all
// shards — any non-full entry whose cell union covers the probe's cells.
// Full entries match only exactly (a spread target set's cutover marker
// must not hijack clustered ones into full sweeps).
func (c *selectionCache) lookup(sig []int32, hash uint64) *selEntry {
	home := &c.shards[hash&(selCacheShards-1)]
	home.mu.Lock()
	for _, e := range home.entries {
		if e.hash == hash && sigEqual(e.sig, sig) {
			e.ref = true
			home.mu.Unlock()
			return e
		}
	}
	home.mu.Unlock()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if !e.full && len(e.sig) >= len(sig) && sigSuperset(e.sig, sig) {
				e.ref = true
				sh.mu.Unlock()
				return e
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// insert adds e to its home shard and returns the canonical entry: when a
// racing table inserted the same signature first, the existing entry wins
// and e is discarded. The newcomer is never evicted by its own insertion;
// older entries are clock-evicted until the shard fits its budget (or
// only the newcomer remains).
func (c *selectionCache) insert(e *selEntry) *selEntry {
	sh := &c.shards[e.hash&(selCacheShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, old := range sh.entries {
		if old.hash == e.hash && sigEqual(old.sig, e.sig) {
			old.ref = true
			return old
		}
	}
	e.ref = true
	sh.entries = append(sh.entries, e)
	sh.bytes += e.bytes
	for len(sh.entries) > 1 && sh.bytes > c.perShard {
		if sh.hand >= len(sh.entries) {
			sh.hand = 0
		}
		victim := sh.entries[sh.hand]
		if victim == e {
			sh.hand++
			continue
		}
		if victim.ref {
			victim.ref = false
			sh.hand++
			continue
		}
		sh.bytes -= victim.bytes
		sh.entries = append(sh.entries[:sh.hand], sh.entries[sh.hand+1:]...)
		c.stats.selEvictions.Add(1)
	}
	return e
}

// entryCount reports how many entries the cache currently holds (test and
// diagnostics hook).
func (c *selectionCache) entryCount() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// selectionStats is the selection observability of one provider, shared
// by every weight version's selections (plain atomics, never reset on
// weight swaps, so serving dashboards see monotone rates).
type selectionStats struct {
	selHits      atomic.Uint64
	selMisses    atomic.Uint64
	selEvictions atomic.Uint64
	// selObs, when set, receives the size of every selection resolved
	// (hits and misses both — it distributes what tables *ran on*, not
	// what was built). Installed by Router.SetMetrics.
	selObs atomic.Pointer[metrics.Histogram]
}

// selections is one weight version's RPHAST target-selection state, held
// by the CH view beside its full-sweep trees and used only by the matrix
// engine: a table's target set is quantized to the union of the targets'
// spatial grid cells, the union's vertices — a superset of the targets,
// so exactness is preserved — are selected once (ch.TreeBuilder.Select),
// and the selection is cached by cell signature. Every table hitting the
// same cells shares one Select; a covering probe additionally reuses any
// selection whose union contains the table's cells. Unions beyond
// RestrictedAutoFraction of the graph are cached as full-sweep markers
// instead: there a selection costs more than the sweeps it saves.
type selections struct {
	g     *graph.Graph
	tb    *ch.TreeBuilder
	grid  *spatial.Index // geometry only: shared across weight versions
	stats *selectionStats
	cache *selectionCache
	// scratch pools the per-table cell/target buffers (*selBuf), keeping
	// the warm lookup path allocation-free.
	scratch sync.Pool
}

// selBuf is the pooled per-table scratch of the selection-cache path.
type selBuf struct {
	cells   []int32
	targets []graph.NodeID
}

func newSelections(g *graph.Graph, tb *ch.TreeBuilder, grid *spatial.Index, stats *selectionStats, cacheBytes int) *selections {
	s := &selections{g: g, tb: tb, grid: grid, stats: stats, cache: newSelectionCache(cacheBytes, stats)}
	s.scratch.New = func() any { return new(selBuf) }
	return s
}

// forTargets resolves the selection entry covering an explicit target
// set: look up the signature of the targets' cells, and on a miss select
// the cell union's vertices (plus the targets, defensively — they are
// cell members already) and insert. hit reports whether the entry came
// out of the cache.
func (s *selections) forTargets(targets []graph.NodeID) (e *selEntry, hit bool) {
	sb := s.scratch.Get().(*selBuf)
	defer s.scratch.Put(sb)
	cells := sb.cells[:0]
	for _, t := range targets {
		cells = insertCellSorted(cells, int32(s.grid.CellOf(s.g.Point(t))))
	}
	sb.cells = cells
	hash := sigHash(cells)
	if e = s.cache.lookup(cells, hash); e != nil {
		s.stats.selHits.Add(1)
		s.observe(e)
		return e, true
	}
	s.stats.selMisses.Add(1)
	tgts := sb.targets[:0]
	for _, c := range cells {
		tgts = append(tgts, s.grid.CellNodes(int(c))...)
	}
	distinct := len(tgts)
	tgts = append(tgts, targets...)
	sb.targets = tgts
	e = &selEntry{sig: append([]int32(nil), cells...), hash: hash}
	if distinct > int(RestrictedAutoFraction*float64(s.g.NumNodes())) {
		e.full = true
		e.targets = distinct
		e.bytes = 4*len(e.sig) + selEntryOverhead
	} else {
		e.sel = s.tb.Select(tgts, nil)
		e.targets = e.sel.Targets()
		e.bytes = e.sel.MemoryBytes() + 4*len(e.sig) + selEntryOverhead
	}
	s.observe(e)
	return s.cache.insert(e), false
}

func (s *selections) observe(e *selEntry) {
	if h := s.stats.selObs.Load(); h != nil {
		h.Observe(float64(e.targets))
	}
}

// insertCellSorted inserts c into the ascending slice cells unless
// already present, in place (cells must have spare capacity or grow).
func insertCellSorted(cells []int32, c int32) []int32 {
	lo, hi := 0, len(cells)
	for lo < hi {
		mid := (lo + hi) / 2
		if cells[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cells) && cells[lo] == c {
		return cells
	}
	cells = append(cells, 0)
	copy(cells[lo+1:], cells[lo:])
	cells[lo] = c
	return cells
}
