package core

import (
	"runtime"
	"sync/atomic"

	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
)

// Stage-artifact cache metrics. stage_hits counts pipeline stages served
// from a cached artifact; stage_recomputes counts stages actually
// re-executed. snapshot_bytes gauges the resident bytes owned by the cached
// artifacts of every live sheet (each artifact is charged only for the
// storage it allocated itself). order_built counts λ base orders built into
// the cache, order_filtered the λ recomputes that filtered one instead of
// sorting their survivors (stage.go, baseOrder).
var (
	evalStageHits       = obs.Default.Counter("core.eval.stage_hits")
	evalStageRecomputes = obs.Default.Counter("core.eval.stage_recomputes")
	evalSnapshotBytes   = obs.Default.Gauge("core.eval.snapshot_bytes")
	evalOrderBuilt      = obs.Default.Counter("core.eval.order_built")
	evalOrderFiltered   = obs.Default.Counter("core.eval.order_filtered")
)

// stageSnap is the running state of one evaluation: the surviving base-row
// index vector in presentation (multiset) order, plus the computed-column
// vectors filled so far. Column vectors are indexed by base-row index — rows
// eliminated by upstream selections leave unread holes — so a downstream
// snapshot extends an upstream one by appending to cols without copying
// anything. Snapshots are per-evaluation scaffolding; what the cache stores
// is each stage's own stageArtifact, and apply closures (plan.go) fold
// artifacts back into the running snapshot.
type stageSnap struct {
	idx      []int32
	cols     []stageCol
	starts   [][]int32 // per grouping level, set by the λ stage
	ownBytes int64
}

// stageCol is one filled computed-column vector: a typed column indexed by
// base-row index (relation.Col), so downstream stages, the vectorized
// expression kernels and the final materialisation all read raw payloads.
// Stages fall back to a Boxed column only when the fill produced cells of
// mixed kinds.
type stageCol struct {
	name string
	col  *relation.Col
}

// extend starts a downstream snapshot sharing this one's storage.
func (sn *stageSnap) extend() *stageSnap {
	return &stageSnap{idx: sn.idx, cols: sn.cols[:len(sn.cols):len(sn.cols)]}
}

// stageArtifact is the cacheable output of one pipeline stage: row stages
// (base, σ, ∧, δ, λ) own a surviving-row index vector; column stages (η, ω,
// θ) own one filled column vector; the λ stage also owns each grouping
// level's group-start offsets, from which assembly builds the group tree.
// Artifacts deliberately do not carry the output column's *name*: the
// fingerprint keys the definition's content, so two identically defined
// columns under different names share one artifact, and the stage's apply
// closure supplies its own name — the keying that also lets artifacts be
// shared across sessions later.
type stageArtifact struct {
	fp       uint64
	idx      []int32       // row stages: surviving base-row indices, nil otherwise
	col      *relation.Col // column stages: the filled vector, nil otherwise
	starts   [][]int32     // λ: per grouping level, the view offsets where groups start
	ownBytes int64
}

// snapCacheCap bounds the per-sheet artifact cache; past it the least
// recently used entry goes. Residency is purely an optimisation:
// fingerprints key every lookup, so a miss costs recomputation, never
// correctness.
const snapCacheCap = 64

// snapCache is a per-sheet fingerprint-keyed LRU of stage artifacts. A
// mutation never touches it: an edited stage's fingerprint changes, so its
// old artifact simply stops being asked for and ages out — or is hit again
// when a later edit restores the definition (Theorem 3 makes reverting a
// modification as common as applying one).
type snapCache struct {
	entries  map[uint64]*snapEntry
	tick     int64
	resident *residentBytes
}

type snapEntry struct {
	art  *stageArtifact
	used int64
}

// residentBytes is one cache's share of the snapshot_bytes gauge. Sheets
// dropped by use/open/load/compile or a session close never clear their
// caches, so a finalizer hands the share back once the cache is garbage. It
// sits on this small object rather than on the cache or the sheet because a
// finalized object, and everything it references, survives one extra GC
// cycle. The gauge pointer also keeps the object out of the runtime's
// tiny-object batching, under which a finalizer may never run.
type residentBytes struct {
	n     atomic.Int64
	gauge *obs.Gauge
}

func newResidentBytes() *residentBytes {
	b := &residentBytes{gauge: evalSnapshotBytes}
	runtime.SetFinalizer(b, func(b *residentBytes) { b.gauge.Add(-b.n.Load()) })
	return b
}

func (b *residentBytes) add(n int64) {
	b.n.Add(n)
	b.gauge.Add(n)
}

func newSnapCache() *snapCache {
	return &snapCache{entries: map[uint64]*snapEntry{}, resident: newResidentBytes()}
}

// get returns the cached artifact for fp, or nil.
func (c *snapCache) get(fp uint64) *stageArtifact {
	e := c.entries[fp]
	if e == nil {
		return nil
	}
	c.tick++
	e.used = c.tick
	return e.art
}

// put inserts a freshly computed artifact, evicting the least recently used
// entries past the cap. An entry already present is only refreshed.
func (c *snapCache) put(art *stageArtifact) {
	c.tick++
	if e := c.entries[art.fp]; e != nil {
		e.used = c.tick
		return
	}
	c.entries[art.fp] = &snapEntry{art: art, used: c.tick}
	c.resident.add(art.ownBytes)
	for len(c.entries) > snapCacheCap {
		var victimFP uint64
		var victim *snapEntry
		for fp, e := range c.entries {
			if victim == nil || e.used < victim.used {
				victimFP, victim = fp, e
			}
		}
		c.resident.add(-victim.art.ownBytes)
		delete(c.entries, victimFP)
	}
}

// clear drops every artifact (the base relation was replaced).
func (c *snapCache) clear() {
	for fp, e := range c.entries {
		c.resident.add(-e.art.ownBytes)
		delete(c.entries, fp)
	}
}

// snaps returns the sheet's artifact cache, creating it on first use.
func (s *Spreadsheet) snaps() *snapCache {
	if s.snapCache == nil {
		s.snapCache = newSnapCache()
	}
	return s.snapCache
}

// checkBaseGeneration starts a new fingerprint generation when the base
// relation pointer changed since the last evaluation — binary operators,
// base-column renames and undo across either replace the base wholesale.
// Every cached artifact indexes into the old base, so the cache clears.
func (s *Spreadsheet) checkBaseGeneration() {
	if s.baseSeen == s.base {
		return
	}
	if s.baseSeen != nil {
		s.baseGen++
	}
	s.baseSeen = s.base
	if s.snapCache != nil {
		s.snapCache.clear()
	}
}
