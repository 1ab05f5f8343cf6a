package cache

import (
	"bytes"
	"slices"
	"testing"

	"gpufi/internal/config"
)

// writeback is one dirty line the cache handed to its backing level.
type writeback struct {
	addr uint32
	data string
}

// recBacking is a deterministic backing level that records every dirty
// write-back in order. Line contents are a pure function of the address,
// so two caches over two recBackings see the same fills.
type recBacking struct {
	wbs []writeback
}

func (b *recBacking) FetchLine(addr uint32, dst []byte) int {
	for j := range dst {
		dst[j] = byte(addr>>4)*31 + byte(addr>>12) + byte(j)*7
	}
	return 5
}

func (b *recBacking) StoreLine(addr uint32, src []byte) int {
	b.wbs = append(b.wbs, writeback{addr, string(src)})
	return 5
}

func (b *recBacking) StoreWord(uint32, uint32) int { return 5 }
func (b *recBacking) PeekWord(addr uint32) uint32  { return addr * 2654435761 }

// fullWalkFlush is the flush every cache ran before the resident-line set
// existed: evict every line in index order. It is the oracle Flush is
// checked against.
func fullWalkFlush(c *Cache) {
	for i := range c.lines {
		c.evict(i)
	}
}

// checkResident asserts the resident-set invariant and its two companions:
// bit i is set exactly when line i is valid, and an invalid line is never
// dirty and never holds hooks.
func checkResident(t *testing.T, c *Cache) {
	t.Helper()
	valid := 0
	for i := range c.lines {
		l := &c.lines[i]
		if c.resident.has(i) != l.valid {
			t.Fatalf("line %d: resident bit %v, valid %v", i, c.resident.has(i), l.valid)
		}
		if l.valid {
			valid++
		} else if l.dirty || len(l.hookBits) > 0 {
			t.Fatalf("invalid line %d: dirty %v, %d hooks", i, l.dirty, len(l.hookBits))
		}
	}
	if c.ValidLines() != valid {
		t.Fatalf("ValidLines %d, %d valid lines", c.ValidLines(), valid)
	}
}

// sameObservable asserts that got is observationally equal to want: the
// same counters, resident set and, for every resident line, the same
// header, hooks and data. Invalid lines' headers and data are never read,
// so they may differ.
func sameObservable(t *testing.T, got, want *Cache) {
	t.Helper()
	if got.useCtr != want.useCtr || got.stats != want.stats {
		t.Fatalf("counters diverged: useCtr %d/%d, stats %+v/%+v",
			got.useCtr, want.useCtr, got.stats, want.stats)
	}
	if got.ValidLines() != want.ValidLines() {
		t.Fatalf("ValidLines %d, want %d", got.ValidLines(), want.ValidLines())
	}
	for i := range want.lines {
		gl, wl := &got.lines[i], &want.lines[i]
		if gl.valid != wl.valid {
			t.Fatalf("line %d: valid %v, want %v", i, gl.valid, wl.valid)
		}
		if !wl.valid {
			continue
		}
		if gl.tag != wl.tag || gl.dirty != wl.dirty || gl.lastUse != wl.lastUse ||
			!slices.Equal(gl.hookBits, wl.hookBits) || !bytes.Equal(gl.data, wl.data) {
			t.Fatalf("resident line %d diverged: %+v vs %+v", i, gl, wl)
		}
	}
}

// FuzzResidentLines drives random operation sequences over two caches and
// checks the resident-line set against the line headers after every step,
// Flush against the full-walk oracle, and every copy for observational
// equality with its source.
//
// Each operation is four bytes: opcode, target, and two address/argument
// bytes. Operations that carry copy-on-write provenance (RestoreFrom,
// CaptureFrom) always copy cache 0 into cache 1, the roles the campaign
// engine gives a snapshot (or live device) and a vessel (or template);
// a delta request whose protocol precondition the sequence has broken —
// the source written since the last sync for RestoreFrom, the destination
// written since the last sync for CaptureFrom — runs as a full copy.
func FuzzResidentLines(f *testing.F) {
	f.Add([]byte{0, 31, 1, 0, 2, 30, 2, 64, 6, 0, 1, 200, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// 32 sets of 3 ways: 96 lines, so the bitmap has a partial word.
		geom := &config.Cache{Sets: 32, Ways: 3, LineBytes: 16, HitCycles: 1}
		bk := [2]*recBacking{{}, {}}
		x := [2]*Cache{New(geom, bk[0]), New(geom, bk[1])}
		// srcWritten: cache 0 changed since cache 1 last synced from it.
		// dstWritten: cache 1 changed since it last synced from cache 0.
		var srcWritten, dstWritten bool
		wrote := func(i int) {
			if i == 0 {
				srcWritten = true
			} else {
				dstWritten = true
			}
		}
		for k := 0; k+3 < len(ops); k += 4 {
			op, tgt, a, b := ops[k]%14, int(ops[k+1]&1), ops[k+2], ops[k+3]
			c := x[tgt]
			addr := (uint32(a)<<8 | uint32(b)) & 0x1ffc
			reps := 1 + int(ops[k+1]>>1)%16
			switch op {
			case 0, 1, 2:
				for r := 0; r < reps; r++ {
					ad := (addr + uint32(r)*52) & 0x1ffc
					switch op {
					case 0:
						c.AccessRead(ad)
					case 1:
						c.AccessWrite(ad, ModeGlobal)
					case 2:
						c.AccessWrite(ad, ModeLocal)
						c.StoreWordLocal(ad, uint32(r)*0x01010101^uint32(b))
					}
				}
				wrote(tgt)
			case 3:
				if _, _, err := c.AccessWrite(addr, ModeTexture); err == nil {
					t.Fatal("texture store did not fail")
				}
				wrote(tgt)
			case 4:
				c.StoreWordLocal(addr, uint32(a)*0x9e3779b9)
				wrote(tgt)
			case 5:
				c.UpdateResident(addr, []byte{a, b, a ^ b})
				wrote(tgt)
			case 6:
				if _, err := c.InjectBit((int64(a)<<8 | int64(b)) % c.SizeBits()); err != nil {
					t.Fatal(err)
				}
				wrote(tgt)
			case 7:
				oracleBk := &recBacking{}
				oracle := c.Clone(oracleBk)
				sameObservable(t, oracle, c)
				fullWalkFlush(oracle)
				bk[tgt].wbs = bk[tgt].wbs[:0]
				c.Flush()
				if !slices.Equal(bk[tgt].wbs, oracleBk.wbs) {
					t.Fatalf("op %d: Flush wrote back %x, full walk %x", k/4, bk[tgt].wbs, oracleBk.wbs)
				}
				sameObservable(t, c, oracle)
				wrote(tgt)
			case 8, 9:
				src := x[1-tgt]
				if op == 8 {
					x[tgt] = src.Clone(bk[tgt])
				} else if err := c.CopyFrom(src, bk[tgt]); err != nil {
					t.Fatal(err)
				}
				sameObservable(t, x[tgt], src)
				wrote(tgt)
			case 10, 11:
				full := op == 10 || srcWritten
				if _, err := x[1].RestoreFrom(x[0], bk[1], full); err != nil {
					t.Fatal(err)
				}
				sameObservable(t, x[1], x[0])
				srcWritten, dstWritten = false, false
			case 12, 13:
				full := op == 12 || dstWritten
				if _, err := x[1].CaptureFrom(x[0], bk[1], full); err != nil {
					t.Fatal(err)
				}
				sameObservable(t, x[1], x[0])
				srcWritten, dstWritten = false, false
			}
			checkResident(t, x[0])
			checkResident(t, x[1])
		}
	})
}

// BenchmarkFlush times one Flush of an RTX2060 L1D and L1T at about 1% and
// at 100% occupancy (clean lines). With the resident-line set the sparse
// flush costs the bitmap scan plus its few evictions, not a walk over
// every line header.
func BenchmarkFlush(b *testing.B) {
	g := config.RTX2060()
	for _, tc := range []struct {
		name string
		geom *config.Cache
	}{{"L1D", g.L1D}, {"L1T", g.L1T}} {
		for _, occ := range []struct {
			name string
			pct  int
		}{{"1pct", 1}, {"full", 100}} {
			b.Run(tc.name+"/"+occ.name, func(b *testing.B) {
				bk := &recBacking{}
				tpl := New(tc.geom, bk)
				lines := tc.geom.Lines()
				n := max(1, lines*occ.pct/100)
				// Consecutive line addresses walk the sets round-robin, so n
				// reads leave n lines resident.
				for i := 0; i < n; i++ {
					tpl.AccessRead(uint32(i * tc.geom.LineBytes))
				}
				if tpl.ValidLines() != n {
					b.Fatalf("template holds %d lines, want %d", tpl.ValidLines(), n)
				}
				// Refill a pool of caches off the clock and flush them on
				// it, so timer calls are amortized over the pool.
				pool := make([]*Cache, 32)
				for i := range pool {
					pool[i] = tpl.Clone(bk)
				}
				b.ResetTimer()
				for i := 0; i < b.N; {
					b.StopTimer()
					for _, c := range pool {
						if err := c.CopyFrom(tpl, bk); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					for j := 0; j < len(pool) && i < b.N; j, i = j+1, i+1 {
						pool[j].Flush()
					}
				}
			})
		}
	}
}
