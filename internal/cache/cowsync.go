package cache

import "math/bits"

// This file is the cache leg of the campaign engine's copy-on-write fork
// protocol (the device-memory leg lives in internal/mem). A cache tracks
// which of its lines were touched — filled, evicted, written, injected,
// or hook-mutated — since its last synchronization point; restoring a fork
// vessel or recapturing a recycled snapshot template then moves only those
// lines instead of the whole tag+data arena. The provenance rules
// (syncSrc/syncVer/epoch/lastDelta) mirror mem.Memory exactly; see
// DESIGN.md "Memory model & copy-on-write fork" for the invariants.

// lineSet is a fixed-size bitmap over the cache's lines. nil bits = off.
// Besides the copy-on-write sets below, every cache keeps one as its
// resident-line set (see Cache.resident).
type lineSet struct {
	bits []uint64
}

func newLineSet(lines int) *lineSet {
	return &lineSet{bits: make([]uint64, (lines+63)/64)}
}

func (s *lineSet) mark(i int)     { s.bits[i>>6] |= 1 << uint(i&63) }
func (s *lineSet) unmark(i int)   { s.bits[i>>6] &^= 1 << uint(i&63) }
func (s *lineSet) has(i int) bool { return s.bits[i>>6]&(1<<uint(i&63)) != 0 }
func (s *lineSet) clear()         { clear(s.bits) }
func (s *lineSet) copyFrom(o *lineSet) {
	copy(s.bits, o.bits)
}

func (s *lineSet) count() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// rangeSet calls fn for every set line index in ascending order.
func (s *lineSet) rangeSet(fn func(i int)) {
	for w, word := range s.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(w<<6 + b)
			word &^= 1 << uint(b)
		}
	}
}

// rangeUnion calls fn for every line index set in s or o (same size), in
// ascending order. fn may mark or unmark lines of either set: each word of
// the union is read before its bits are visited.
func (s *lineSet) rangeUnion(o *lineSet, fn func(i int)) {
	for w, word := range s.bits {
		for word |= o.bits[w]; word != 0; word &= word - 1 {
			fn(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// SyncStats reports what one RestoreFrom/CaptureFrom moved.
type SyncStats struct {
	UnitsCopied int // lines actually copied
	UnitsTotal  int // lines in the cache
	BytesCopied int64
	BytesTotal  int64
	Full        bool
}

// markLine records a line mutation when touch tracking is on. Every state
// transition that makes the line diverge from a synced copy must call it:
// LRU touches, fills, evictions, write hits, hook arms/fires/kills,
// resident updates and injected flips.
func (c *Cache) markLine(idx int) {
	if c.touched != nil {
		c.touched.mark(idx)
	}
}

// StartTracking enables (or resets) touched-line tracking and advances the
// cache's epoch, invalidating consumers synced against the previous clean
// point. The campaign prefix run calls this at its first snapshot capture.
func (c *Cache) StartTracking() {
	if c.touched == nil {
		c.touched = newLineSet(len(c.lines))
	} else {
		c.touched.clear()
	}
	c.epoch++
}

// SetSyncedTo records that c's content is an exact copy of src at src's
// current epoch and enables touch tracking on c, so the next RestoreFrom
// the same source moves only divergent lines. Called right after a full
// clone established that equality.
func (c *Cache) SetSyncedTo(src *Cache) {
	if c.touched == nil {
		c.touched = newLineSet(len(c.lines))
	} else {
		c.touched.clear()
	}
	c.syncSrc, c.syncVer = src, src.epoch
}

// TouchedLines returns how many lines were touched since the last sync
// point (0 when tracking is off). Test and diagnostics hook.
func (c *Cache) TouchedLines() int {
	if c.touched == nil {
		return 0
	}
	return c.touched.count()
}

// copyLine copies line i of src — header, hooks, and data when observable —
// into c, reusing c's arena slice for the data, and carries the line's
// resident bit along.
func (c *Cache) copyLine(src *Cache, i int) {
	d := c.lines[i].data
	c.lines[i] = src.lines[i]
	c.lines[i].data = d
	if !src.lines[i].valid {
		c.resident.unmark(i)
		return
	}
	c.resident.mark(i)
	copy(d, src.lines[i].data)
	if hb := src.lines[i].hookBits; len(hb) > 0 {
		c.lines[i].hookBits = append([]uint16(nil), hb...)
	}
}

// RestoreFrom makes c a copy of src (same geometry) wired over backing,
// copying only the lines that can differ when provenance allows: c last
// mirrored src at src's current epoch (or one epoch behind with
// src.lastDelta available), and c's own mutations since then are in its
// touched set. Unknown provenance, geometry mismatch handling, and
// full=true behave like CopyFrom. The per-experiment fork-restore path.
func (c *Cache) RestoreFrom(src *Cache, backing Backing, full bool) (SyncStats, error) {
	st := SyncStats{
		UnitsTotal: len(src.lines),
		BytesTotal: int64(len(src.arena)),
	}
	lb := int64(c.geom.LineBytes)
	fast := !full && c.touched != nil && c.syncSrc == src &&
		(c.syncVer == src.epoch || (c.syncVer+1 == src.epoch && src.lastDelta != nil))
	if !fast {
		if err := c.CopyFrom(src, backing); err != nil {
			return st, err
		}
		st.Full, st.UnitsCopied, st.BytesCopied = true, st.UnitsTotal, st.BytesTotal
		if full {
			c.touched, c.syncSrc, c.syncVer = nil, nil, 0
		} else {
			c.SetSyncedTo(src)
		}
		c.epoch++
		return st, nil
	}
	c.backing = backing
	c.useCtr = src.useCtr
	c.stats = src.stats
	if c.syncVer+1 == src.epoch {
		for i, w := range src.lastDelta.bits {
			c.touched.bits[i] |= w
		}
	}
	c.touched.rangeSet(func(i int) {
		c.copyLine(src, i)
		st.UnitsCopied++
		st.BytesCopied += lb
	})
	c.touched.clear()
	c.syncVer = src.epoch
	c.epoch++
	return st, nil
}

// CaptureFrom makes c — a recycled snapshot template, unwritten since it
// was captured — a copy of src, moving only the lines src touched since
// the previous capture into c. The delta is recorded in c.lastDelta and
// c's epoch advances; src's touched set resets (epoch bumped) to open the
// next capture interval. The snapshot-recycling path of the prefix run.
func (c *Cache) CaptureFrom(src *Cache, backing Backing, full bool) (SyncStats, error) {
	st := SyncStats{
		UnitsTotal: len(src.lines),
		BytesTotal: int64(len(src.arena)),
	}
	lb := int64(c.geom.LineBytes)
	fast := !full && src.touched != nil && c.syncSrc == src && c.syncVer == src.epoch
	if !fast {
		if err := c.CopyFrom(src, backing); err != nil {
			return st, err
		}
		st.Full, st.UnitsCopied, st.BytesCopied = true, st.UnitsTotal, st.BytesTotal
		c.lastDelta = nil
		c.epoch++
		if full {
			c.syncSrc, c.syncVer = nil, 0
			return st, nil
		}
		src.StartTracking()
		c.syncSrc, c.syncVer = src, src.epoch
		return st, nil
	}
	c.backing = backing
	c.useCtr = src.useCtr
	c.stats = src.stats
	src.touched.rangeSet(func(i int) {
		c.copyLine(src, i)
		st.UnitsCopied++
		st.BytesCopied += lb
	})
	if c.lastDelta == nil {
		c.lastDelta = newLineSet(len(c.lines))
	}
	c.lastDelta.copyFrom(src.touched)
	c.epoch++
	src.touched.clear()
	src.epoch++
	c.syncVer = src.epoch
	return st, nil
}
