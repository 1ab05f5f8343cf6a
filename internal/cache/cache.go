// Package cache models set-associative caches holding both tag bits and
// actual line data, so injected bit flips propagate through real loads,
// stores, write-backs and evictions.
//
// The fault semantics follow the paper exactly (Section IV.B.4):
//
//   - A flip landing in the tag bits of a valid line is applied to the
//     stored tag immediately; subsequent lookups compare against the
//     corrupted tag (usually a conflict miss, occasionally a false hit).
//   - A flip landing in the data bits of a valid line arms a *hook* on the
//     line. On the next read hit the flip is applied to the stored data
//     (and thus to the returned bytes); on a read miss that replaces the
//     line, or a write hit that overwrites it, the hook is disarmed; a
//     write miss does nothing (write-no-allocate).
//   - A flip targeting an invalid line has no effect.
//
// Each line's injectable layout is an abstract row of 57 tag bits followed
// by the data bits, matching the paper's Table V starred sizes.
package cache

import (
	"fmt"
	"math/bits"

	"gpufi/internal/config"
)

// Mode selects the write policy applied to an individual access, mirroring
// GPGPU-Sim's per-space policies (paper Table II).
type Mode uint8

// Access modes.
const (
	// ModeGlobal: evict-on-write. A store hit invalidates the line; store
	// data always goes to the backing level (write-no-allocate).
	ModeGlobal Mode = iota
	// ModeLocal: write-back with write-allocate.
	ModeLocal
	// ModeTexture: read-only; stores are invalid in this mode.
	ModeTexture
)

// Error is a typed cache-integrity violation. The simulator's policy
// (matching internal/isa/eval.go) is that no fault-reachable condition
// may panic the process: an injected flip can corrupt control flow into
// issuing a store against a read-only mode, or drift a snapshot restore
// onto mismatched geometry, and both must surface as errors the caller
// classifies as a Crash outcome or heals around — never as a torn-down
// campaign.
type Error struct {
	Op     string // the failing operation ("store", "restore")
	Reason string
}

func (e *Error) Error() string { return "cache: " + e.Op + ": " + e.Reason }

// Backing is the next level below a cache: another cache or DRAM. All
// methods return the additional latency incurred.
type Backing interface {
	// FetchLine reads a full line into dst.
	FetchLine(addr uint32, dst []byte) int
	// StoreLine writes a full line (dirty write-back).
	StoreLine(addr uint32, src []byte) int
	// StoreWord writes one 32-bit word (write-through traffic).
	StoreWord(addr uint32, v uint32) int
	// PeekWord reads one word without a state change (for uncached data).
	PeekWord(addr uint32) uint32
}

// Stats counts cache events.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
	TagFlips   int64 // injected tag-bit flips applied
	HookArms   int64 // injected data-bit flips armed
	HookFires  int64 // hooks that fired on a read hit
	HookKills  int64 // hooks disarmed before firing
}

type line struct {
	tag      uint64 // stored tag, TagBits wide (possibly fault-corrupted)
	valid    bool
	dirty    bool
	lastUse  uint64
	data     []byte
	hookBits []uint16 // armed data-bit flips (offsets within data bits)
}

// Cache is one set-associative cache level. Not safe for concurrent use.
type Cache struct {
	geom    *config.Cache
	backing Backing
	lines   []line
	arena   []byte // contiguous backing store for all line data
	useCtr  uint64
	stats   Stats

	// resident holds bit i exactly when lines[i].valid: fill marks it,
	// evict and the ModeGlobal write-hit invalidation unmark it, and every
	// copy (Clone, CopyFrom, copyLine) carries it over. Flush, CopyFrom and
	// ValidLines walk it instead of every line header.
	resident *lineSet

	lineShift uint // log2(LineBytes)
	setMask   uint32
	tagShift  uint
	tagMask   uint64 // TagBits wide

	// Copy-on-write sync state, mirroring mem.Memory (see cowsync.go):
	// touched records the lines mutated since the last sync point, epoch
	// counts content generations, lastDelta holds the lines changed by the
	// most recent CaptureFrom into this cache, and syncSrc/syncVer record
	// which cache (at which epoch) this one last mirrored.
	touched   *lineSet
	epoch     uint64
	lastDelta *lineSet
	syncSrc   *Cache
	syncVer   uint64
}

// New builds a cache with the given geometry over a backing level.
func New(geom *config.Cache, backing Backing) *Cache {
	c := &Cache{
		geom:      geom,
		backing:   backing,
		lines:     make([]line, geom.Lines()),
		arena:     make([]byte, geom.Lines()*geom.LineBytes),
		resident:  newLineSet(geom.Lines()),
		lineShift: uint(bits.TrailingZeros32(uint32(geom.LineBytes))),
		setMask:   uint32(geom.Sets - 1),
		tagMask:   (uint64(1) << config.TagBits) - 1,
	}
	c.tagShift = c.lineShift + uint(bits.TrailingZeros32(uint32(geom.Sets)))
	lb := geom.LineBytes
	for i := range c.lines {
		c.lines[i].data = c.arena[i*lb : (i+1)*lb : (i+1)*lb]
	}
	return c
}

// Clone returns a deep copy of the cache — tags, data, dirty bits, LRU
// state, armed fault hooks, statistics and the resident-line set — wired
// over the given backing level. Only resident lines' data and hooks are
// copied: an invalid line's data is unobservable (lookup requires the
// valid bit, fill overwrites the data before setting it, and InjectBit
// masks on invalid lines) and it never holds hooks, so the zeroed arena is
// equivalent and the copy cost tracks occupancy, not capacity. This is
// what keeps campaign forks cheap.
func (c *Cache) Clone(backing Backing) *Cache {
	n := &Cache{
		geom:      c.geom,
		backing:   backing,
		lines:     make([]line, len(c.lines)),
		arena:     make([]byte, len(c.arena)),
		useCtr:    c.useCtr,
		stats:     c.stats,
		resident:  newLineSet(len(c.lines)),
		lineShift: c.lineShift,
		setMask:   c.setMask,
		tagShift:  c.tagShift,
		tagMask:   c.tagMask,
	}
	copy(n.lines, c.lines)
	lb := c.geom.LineBytes
	for i := range n.lines {
		n.lines[i].data = n.arena[i*lb : (i+1)*lb : (i+1)*lb]
	}
	c.resident.rangeSet(func(i int) {
		copy(n.lines[i].data, c.lines[i].data)
		if hb := c.lines[i].hookBits; len(hb) > 0 {
			n.lines[i].hookBits = append([]uint16(nil), hb...)
		}
	})
	n.resident.copyFrom(c.resident)
	return n
}

// CopyFrom makes c a copy of src (same geometry) wired over the given
// backing level, reusing c's existing line and arena storage. Campaign
// forks restore hundreds of snapshots; reuse turns each restore into plain
// memmoves instead of multi-megabyte zeroed allocations. Only the lines
// resident in c or in src are copied, so the cost is O(resident), not
// O(capacity). A line invalid in both keeps c's stale header and data,
// which no operation reads: lookup requires the valid bit, victim takes
// the first invalid way without reading its header, InjectBit masks on
// invalid lines, and an invalid line is never dirty and never holds hooks.
// A geometry mismatch returns a typed *Error so the caller can fall back
// to a fresh Clone instead of panicking.
func (c *Cache) CopyFrom(src *Cache, backing Backing) error {
	if c.geom != src.geom && *c.geom != *src.geom {
		return &Error{Op: "restore", Reason: fmt.Sprintf(
			"CopyFrom with mismatched geometry (%d/%d/%d into %d/%d/%d)",
			src.geom.Sets, src.geom.Ways, src.geom.LineBytes,
			c.geom.Sets, c.geom.Ways, c.geom.LineBytes)}
	}
	c.backing = backing
	c.useCtr = src.useCtr
	c.stats = src.stats
	c.resident.rangeUnion(src.resident, func(i int) { c.copyLine(src, i) })
	// A verbatim copy redefines c's content: drop any delta-sync provenance
	// so stale touched state cannot be mistaken for a valid delta later.
	// RestoreFrom/CaptureFrom re-establish it when appropriate.
	c.syncSrc, c.syncVer = nil, 0
	c.epoch++
	return nil
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Geometry returns the cache geometry.
func (c *Cache) Geometry() *config.Cache { return c.geom }

func (c *Cache) setOf(addr uint32) int { return int((addr >> c.lineShift) & c.setMask) }
func (c *Cache) tagOf(addr uint32) uint64 {
	return (uint64(addr) >> c.tagShift) & c.tagMask
}

// addrOf reconstructs the base address of a line from its (possibly
// corrupted) stored tag and its set index. Tags corrupted beyond the
// 32-bit address space reconstruct to a wrapped address: a dirty eviction
// of such a line scribbles its data at the wrong place, exactly the
// corruption a real tag upset causes.
func (c *Cache) addrOf(set int, tag uint64) uint32 {
	return uint32(tag<<c.tagShift) | uint32(set)<<c.lineShift
}

// lookup returns the way index of a hit in the set, or -1.
func (c *Cache) lookup(set int, tag uint64) int {
	base := set * c.geom.Ways
	for w := 0; w < c.geom.Ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			return base + w
		}
	}
	return -1
}

// victim picks the replacement way in the set: an invalid way if any,
// otherwise the least recently used.
func (c *Cache) victim(set int) int {
	base := set * c.geom.Ways
	best, bestUse := base, c.lines[base].lastUse
	for w := 0; w < c.geom.Ways; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			return base + w
		}
		if l.lastUse < bestUse {
			best, bestUse = base+w, l.lastUse
		}
	}
	return best
}

func (c *Cache) touch(idx int) {
	c.useCtr++
	c.lines[idx].lastUse = c.useCtr
	c.markLine(idx)
}

// disarm kills any armed hook on the line (replacement or overwrite).
func (c *Cache) disarm(idx int) {
	if len(c.lines[idx].hookBits) > 0 {
		c.stats.HookKills++
		c.lines[idx].hookBits = nil
		c.markLine(idx)
	}
}

// fireHooks applies armed flips to the stored line data (read hit).
func (c *Cache) fireHooks(idx int) {
	l := &c.lines[idx]
	if len(l.hookBits) == 0 {
		return
	}
	for _, b := range l.hookBits {
		l.data[b/8] ^= 1 << (b % 8)
	}
	l.hookBits = nil
	c.stats.HookFires++
	c.markLine(idx)
}

// evict writes back a dirty victim and invalidates it.
func (c *Cache) evict(idx int) int {
	if !c.lines[idx].valid {
		return 0
	}
	c.resident.unmark(idx)
	return c.invalidate(idx)
}

// invalidate writes back valid line idx if it is dirty and invalidates it,
// leaving its resident bit to the caller: evict clears one bit, Flush a
// whole bitmap word at a time.
func (c *Cache) invalidate(idx int) int {
	l := &c.lines[idx]
	cost := 0
	c.stats.Evictions++
	c.disarm(idx)
	if l.dirty {
		set := (idx / c.geom.Ways)
		cost += c.backing.StoreLine(c.addrOf(set, l.tag), l.data)
		c.stats.Writebacks++
	}
	c.markLine(idx)
	l.valid, l.dirty = false, false
	return cost
}

// fill loads the line for addr into the victim way and returns (way,
// cost). The caller has already established a miss.
func (c *Cache) fill(addr uint32) (int, int) {
	set := c.setOf(addr)
	idx := c.victim(set)
	cost := c.evict(idx)
	l := &c.lines[idx]
	lineAddr := addr &^ uint32(c.geom.LineBytes-1)
	cost += c.backing.FetchLine(lineAddr, l.data)
	l.tag = c.tagOf(addr)
	l.valid = true
	l.dirty = false
	c.resident.mark(idx)
	c.touch(idx) // touch marks the line for COW sync too
	return idx, cost
}

// AccessRead makes the line containing addr resident, firing or disarming
// fault hooks per the paper's semantics. Returns (hit, extra cycles spent
// below this level).
func (c *Cache) AccessRead(addr uint32) (bool, int) {
	c.stats.Accesses++
	set, tag := c.setOf(addr), c.tagOf(addr)
	if idx := c.lookup(set, tag); idx >= 0 {
		c.stats.Hits++
		c.touch(idx)
		c.fireHooks(idx) // read hit: the armed flip lands in the data
		return true, 0
	}
	c.stats.Misses++
	_, cost := c.fill(addr)
	return false, cost
}

// AccessWrite performs the policy state transition for a store touching
// the line containing addr. For ModeGlobal the paper's evict-on-write
// applies: a hit invalidates the line (disarming hooks); data travels to
// the backing level via StoreWord. For ModeLocal the line is
// write-allocated and marked dirty. Returns (hit, extra cycles, error);
// a store against a read-only mode — reachable only through
// fault-corrupted control flow — returns a typed *Error that the
// simulator records as a memory violation (Crash outcome).
func (c *Cache) AccessWrite(addr uint32, mode Mode) (bool, int, error) {
	c.stats.Accesses++
	set, tag := c.setOf(addr), c.tagOf(addr)
	idx := c.lookup(set, tag)
	switch mode {
	case ModeGlobal:
		if idx >= 0 {
			// Write hit: evict-on-write; the hook (if armed) dies with the
			// line, as the paper specifies for write hits.
			c.stats.Hits++
			c.disarm(idx)
			c.lines[idx].valid = false
			c.lines[idx].dirty = false
			c.resident.unmark(idx)
			c.markLine(idx)
			return true, 0, nil
		}
		c.stats.Misses++ // write miss: no allocate, nothing happens here
		return false, 0, nil
	case ModeLocal:
		if idx >= 0 {
			c.stats.Hits++
			c.touch(idx)  // marks the line for COW sync
			c.disarm(idx) // write hit overwrites the faulted data
			c.lines[idx].dirty = true
			return true, 0, nil
		}
		c.stats.Misses++
		idx, cost := c.fill(addr)
		c.lines[idx].dirty = true
		return false, cost, nil
	default:
		return false, 0, &Error{Op: "store",
			Reason: fmt.Sprintf("store in read-only mode %d at %#x", mode, addr)}
	}
}

// LoadWord returns the 32-bit word at addr from the resident line, or from
// the backing level if the line is not resident (e.g. after evict-on-write
// or for uncached traffic). It performs no state transition; callers pair
// it with a preceding AccessRead.
func (c *Cache) LoadWord(addr uint32) uint32 {
	set, tag := c.setOf(addr), c.tagOf(addr)
	if idx := c.lookup(set, tag); idx >= 0 {
		l := &c.lines[idx]
		off := addr & uint32(c.geom.LineBytes-1)
		return uint32(l.data[off]) | uint32(l.data[off+1])<<8 |
			uint32(l.data[off+2])<<16 | uint32(l.data[off+3])<<24
	}
	return c.backing.PeekWord(addr)
}

// StoreWordLocal writes a word into the resident dirty line (ModeLocal
// path, after AccessWrite). If the line is unexpectedly absent the word
// goes to the backing level.
func (c *Cache) StoreWordLocal(addr uint32, v uint32) int {
	set, tag := c.setOf(addr), c.tagOf(addr)
	if idx := c.lookup(set, tag); idx >= 0 {
		l := &c.lines[idx]
		off := addr & uint32(c.geom.LineBytes-1)
		l.data[off] = byte(v)
		l.data[off+1] = byte(v >> 8)
		l.data[off+2] = byte(v >> 16)
		l.data[off+3] = byte(v >> 24)
		l.dirty = true
		c.markLine(idx)
		return 0
	}
	return c.backing.StoreWord(addr, v)
}

// Backing interface implementation, so a Cache can serve as the level
// below another cache (L1 over L2).

// FetchLine implements Backing: an L1 miss reads a full line through this
// cache.
func (c *Cache) FetchLine(addr uint32, dst []byte) int {
	hit, below := c.AccessRead(addr)
	cost := c.geom.HitCycles + below
	_ = hit
	set, tag := c.setOf(addr), c.tagOf(addr)
	if idx := c.lookup(set, tag); idx >= 0 {
		copy(dst, c.lines[idx].data[:len(dst)])
	} else {
		// Only possible if the fetch raced a pathological geometry; fall
		// back to the backing level.
		c.backing.FetchLine(addr, dst)
	}
	return cost
}

// StoreLine implements Backing: a dirty write-back from the level above is
// absorbed with write-allocate semantics.
func (c *Cache) StoreLine(addr uint32, src []byte) int {
	_, below, _ := c.AccessWrite(addr, ModeLocal) // ModeLocal cannot error
	cost := c.geom.HitCycles + below
	set, tag := c.setOf(addr), c.tagOf(addr)
	if idx := c.lookup(set, tag); idx >= 0 {
		copy(c.lines[idx].data, src)
		c.lines[idx].dirty = true
		c.markLine(idx)
	}
	return cost
}

// StoreWord implements Backing: write-through traffic from the level above
// (global stores) is absorbed with write-allocate semantics, as the L2
// services all memory requests in the paper's configuration.
func (c *Cache) StoreWord(addr uint32, v uint32) int {
	_, below, _ := c.AccessWrite(addr, ModeLocal) // ModeLocal cannot error
	return c.geom.HitCycles + below + c.StoreWordLocal(addr, v)
}

// PeekWord implements Backing: read a word without state changes,
// consulting resident lines first.
func (c *Cache) PeekWord(addr uint32) uint32 { return c.LoadWord(addr) }

// Flush writes back all dirty lines and invalidates the cache (kernel
// completion on real GPUs flushes L1; campaigns flush between launches).
// It evicts only resident lines, in ascending line order, so the level
// below sees the same write-back sequence and LRU updates as a walk over
// every line, at O(bitmap words + resident lines) instead of O(lines).
func (c *Cache) Flush() {
	for w, word := range c.resident.bits {
		c.resident.bits[w] = 0
		for ; word != 0; word &= word - 1 {
			c.invalidate(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// InjectOutcome describes what an injected bit flip did.
type InjectOutcome uint8

// Injection outcomes.
const (
	// InjectMasked: the target line was invalid; no effect.
	InjectMasked InjectOutcome = iota
	// InjectTag: a tag bit of a valid line was flipped in place.
	InjectTag
	// InjectHook: a data-bit hook was armed on a valid line.
	InjectHook
)

// String names the outcome.
func (o InjectOutcome) String() string {
	switch o {
	case InjectMasked:
		return "masked"
	case InjectTag:
		return "tag"
	case InjectHook:
		return "hook"
	}
	return "unknown"
}

// SizeBits returns the injectable size of the cache in bits.
func (c *Cache) SizeBits() int64 { return c.geom.SizeBits() }

// InjectBit flips one bit of the abstract cache layout: line i occupies
// bits [i*LineBits, (i+1)*LineBits); within a line, bits [0,TagBits) are
// the tag and the rest are data. Follows the paper's semantics: tag flips
// are immediate, data flips arm a read-hit hook, invalid lines mask the
// fault.
func (c *Cache) InjectBit(bit int64) (InjectOutcome, error) {
	if bit < 0 || bit >= c.SizeBits() {
		return InjectMasked, fmt.Errorf("cache: bit %d outside [0,%d)", bit, c.SizeBits())
	}
	lineBits := int64(c.geom.LineBits())
	idx := int(bit / lineBits)
	off := bit % lineBits
	l := &c.lines[idx]
	if !l.valid {
		return InjectMasked, nil
	}
	if off < config.TagBits {
		l.tag ^= uint64(1) << uint(off)
		c.stats.TagFlips++
		c.markLine(idx)
		return InjectTag, nil
	}
	dataBit := uint16(off - config.TagBits)
	l.hookBits = append(l.hookBits, dataBit)
	c.stats.HookArms++
	c.markLine(idx)
	return InjectHook, nil
}

// PeekLine returns the resident line data containing addr, or nil if the
// line is not cached. No state change. Host-side device-memory reads
// overlay resident (possibly dirty) lines on the DRAM image with this.
func (c *Cache) PeekLine(addr uint32) []byte {
	set, tag := c.setOf(addr), c.tagOf(addr)
	if idx := c.lookup(set, tag); idx >= 0 {
		return c.lines[idx].data
	}
	return nil
}

// UpdateResident overwrites bytes [off, off+len(src)) of the line
// containing addr if it is resident, disarming any armed hook (the data is
// being replaced, like a write hit). Host-side device-memory writes keep
// resident lines coherent with this. Reports whether the line was resident.
func (c *Cache) UpdateResident(addr uint32, src []byte) bool {
	set, tag := c.setOf(addr), c.tagOf(addr)
	idx := c.lookup(set, tag)
	if idx < 0 {
		return false
	}
	c.disarm(idx)
	off := int(addr & uint32(c.geom.LineBytes-1))
	copy(c.lines[idx].data[off:], src)
	c.markLine(idx)
	return true
}

// ValidLines returns how many lines currently hold valid data (used by
// tests and occupancy diagnostics).
func (c *Cache) ValidLines() int { return c.resident.count() }
