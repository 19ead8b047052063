package vm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dram"
)

// findPageRef is the page-by-page search Buddy.FindPage replaced: the
// lowest free page whose index satisfies pred. It is the oracle the
// range query is held to.
func findPageRef(b *Buddy, pred func(idx uint64) bool) (uint64, bool) {
	best, found := uint64(0), false
	for o := 0; o <= b.maxOrder; o++ {
		for _, start := range b.free[o] {
			if found && start >= best {
				break
			}
			for p := start; p < start+uint64(1)<<o; p++ {
				if found && p >= best {
					break
				}
				if pred(p) {
					best, found = p, true
					break
				}
			}
		}
	}
	return best, found
}

// refAllocPage is allocPage as it stood before the closed-form query:
// the page-by-page search above with every candidate decoded through
// the mapper's ChannelOf.
func refAllocPage(sp *Space, cm ChannelMapper) uint64 {
	v := sp.vm
	var idx uint64
	ok := false
	switch v.cfg.Policy {
	case PolicyColor:
		if v.nchan > 1 {
			want := sp.nextColor
			onWant := func(i uint64) bool { return cm.ChannelOf(v.cfg.PhysBase+i<<v.cfg.PageBits) == want }
			if p, found := findPageRef(v.buddy, onWant); found {
				v.buddy.AllocPageAt(p)
				idx, ok = p, true
			}
			sp.nextColor = (want + 1) % v.nchan
		}
	case PolicyColocate:
		next := uint64(sp.tenant) * (v.cfg.PhysPages / uint64(len(v.spaces)))
		if sp.haveLast {
			next = sp.lastPage + 1
		}
		if v.buddy.AllocPageAt(next) {
			idx, ok = next, true
		} else if p, found := findPageRef(v.buddy, func(i uint64) bool { return i > next }); found {
			v.buddy.AllocPageAt(p)
			idx, ok = p, true
		}
	}
	if !ok {
		if idx, ok = v.buddy.AllocPage(); !ok {
			panic("vm: physical page pool exhausted")
		}
	}
	sp.lastPage, sp.haveLast = idx, true
	return idx
}

type namedMapper struct {
	name string
	cm   ChannelMapper
}

// testMappers is every SDRAM mapping on both timing profiles plus the
// hand-written fakeChans.
func testMappers() []namedMapper {
	var out []namedMapper
	for _, prof := range []dram.Preset{dram.PresetDDR, dram.PresetHBM} {
		for _, m := range []dram.Mapping{dram.MapLine, dram.MapBank, dram.MapRow} {
			cfg := prof.Config()
			cfg.Mapping = m
			out = append(out, namedMapper{fmt.Sprintf("%s/%s", prof, m), dram.NewSDRAM(cfg)})
		}
	}
	return append(out, namedMapper{"fake", fakeChans{}})
}

// poolFor sizes a test pool to one full round of the channel field
// (every channel's run once), within [512, 2^17] pages, so row
// mappings reach more than one channel without a 2^18-page pool.
func poolFor(cm ChannelMapper, pageBits uint) uint64 {
	pages := uint64(512)
	for pages < 1<<17 && pages<<pageBits < uint64(cm.ChannelCount())<<cm.ChannelShift() {
		pages <<= 1
	}
	return pages
}

// The closed-form query must agree with a brute-force ChannelOf scan
// on every mapping, at page-aligned and unaligned pool bases, for
// every channel and random ranges — including channels no page has.
func TestFirstOnChannelMatchesChannelOf(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range testMappers() {
		for _, base := range []uint64{0, 0x12345000, 0x800, 0x3fff_f800, 0x7_0000_0000} {
			cfg := DefaultConfig()
			cfg.PhysBase, cfg.PhysPages = base, poolFor(m.cm, cfg.PageBits)
			v := mustNew(t, cfg, 1, m.cm)
			chanOf := func(i uint64) int { return m.cm.ChannelOf(base + i<<cfg.PageBits) }
			for i := uint64(0); i < cfg.PhysPages; i += 1 + uint64(rng.Intn(97)) {
				if got, want := v.pageChannel(i), chanOf(i); got != want {
					t.Fatalf("%s base %#x: pageChannel(%d) = %d, ChannelOf says %d", m.name, base, i, got, want)
				}
			}
			for trial := 0; trial < 200; trial++ {
				lo := uint64(rng.Int63n(int64(cfg.PhysPages)))
				hi := lo + 1 + uint64(rng.Int63n(int64(cfg.PhysPages-lo)))
				c := rng.Intn(v.nchan)
				want, wantOK := uint64(0), false
				for p := lo; p < hi; p++ {
					if chanOf(p) == c {
						want, wantOK = p, true
						break
					}
				}
				got, ok := v.firstOnChannel(c, lo, hi)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("%s base %#x: firstOnChannel(%d, [%d,%d)) = %d,%v, scan says %d,%v",
						m.name, base, c, lo, hi, got, ok, want, wantOK)
				}
			}
		}
	}
}

// Which channels coloring can reach is pinned: a colour is reachable
// when some pool page's first line decodes to it. Under hbm's 2 KiB
// rows the bank-mapped field starts at bit 11, inside a 4 KiB page, so
// only even channels are first-line channels and the odd turns of the
// round-robin fall back to first-fit; under line interleaving only
// channel 0 is. This test documents that behaviour, it does not
// endorse it.
func TestColoringReachableChannels(t *testing.T) {
	want := map[string][]int{
		"hbm/bank": {0, 2, 4, 6},
		"hbm/line": {0},
		"hbm/row":  {0, 1, 2, 3, 4, 5, 6, 7},
		"ddr/bank": {0, 1},
		"ddr/line": {0},
		"ddr/row":  {0, 1},
	}
	for _, m := range testMappers() {
		exp, pinned := want[m.name]
		if !pinned {
			continue
		}
		cfg := DefaultConfig()
		if m.name == "ddr/row" {
			cfg.PhysPages = 1 << 17 // a channel's run is 2^16 pages
		}
		v := mustNew(t, cfg, 1, m.cm)
		var got []int
		for c := 0; c < v.nchan; c++ {
			if _, ok := v.firstOnChannel(c, 0, cfg.PhysPages); ok {
				got = append(got, c)
			}
		}
		seen := map[int]bool{}
		for i := uint64(0); i < cfg.PhysPages; i++ {
			seen[m.cm.ChannelOf(i<<cfg.PageBits)] = true
		}
		var scanned []int
		for c := 0; c < v.nchan; c++ {
			if seen[c] {
				scanned = append(scanned, c)
			}
		}
		if !reflect.DeepEqual(got, exp) || !reflect.DeepEqual(scanned, exp) {
			t.Errorf("%s: reachable colours %v (ChannelOf scan %v), want %v", m.name, got, scanned, exp)
		}
	}
}

// The range-query placement must place every page exactly where the
// page-by-page search did: random fault / Alloc / Free / AllocPageAt
// sequences over three spaces, under color and colo, on every mapping
// at two pool bases, against a reference VM driven through
// refAllocPage. The free lists must match and hold their invariants
// after every operation.
func TestPlacementMatchesPageScan(t *testing.T) {
	for _, m := range testMappers() {
		for _, pol := range []Policy{PolicyColor, PolicyColocate} {
			for _, base := range []uint64{0, 0x12345000} {
				name := fmt.Sprintf("%s/%s/base%#x", m.name, pol, base)
				t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
					cfg := testConfig()
					cfg.Policy, cfg.PhysBase = pol, base
					cfg.PhysPages = poolFor(m.cm, cfg.PageBits)
					diffPlacement(t, cfg, m.cm, 600)
				})
			}
		}
	}
}

func diffPlacement(t *testing.T, cfg Config, cm ChannelMapper, steps int) {
	const nspaces, vpages = 3, 64
	got, ref := mustNew(t, cfg, nspaces, cm), mustNew(t, cfg, nspaces, cm)
	rng := rand.New(rand.NewSource(int64(cfg.PhysPages) ^ int64(cfg.PhysBase) ^ int64(cfg.Policy)))
	pb := cfg.PageBits
	claimed := map[uint64]bool{}
	now := int64(0)
	refMap := func(sp *Space, vpn uint64) {
		if _, ok := sp.pt.Lookup(vpn); !ok {
			sp.pt.Map(vpn, refAllocPage(sp, cm))
		}
	}
	for step := 0; step < steps; step++ {
		i := rng.Intn(nspaces)
		gs, rs := got.Space(i), ref.Space(i)
		vpn := uint64(rng.Intn(vpages))
		n := uint64(1 + rng.Intn(6))
		now += 1000
		var op string
		switch k := rng.Intn(10); {
		case k < 4:
			op = "fault"
			gs.Ready(scalarLoad(vpn<<pb), uint64(step), now)
			refMap(rs, vpn)
		case k < 6:
			op = "alloc"
			gs.Alloc(vpn<<pb, n<<pb)
			for p := vpn; p < vpn+n; p++ {
				refMap(rs, p)
			}
		case k < 8:
			op = "free"
			gs.Free(vpn<<pb, n<<pb)
			rs.Free(vpn<<pb, n<<pb)
		default:
			op = "claim"
			idx := uint64(rng.Int63n(int64(cfg.PhysPages)))
			if claimed[idx] {
				got.buddy.FreePage(idx)
				ref.buddy.FreePage(idx)
				delete(claimed, idx)
			} else if a, b := got.buddy.AllocPageAt(idx), ref.buddy.AllocPageAt(idx); a != b {
				t.Fatalf("step %d: AllocPageAt(%d) = %v, reference %v", step, idx, a, b)
			} else if a {
				claimed[idx] = true
			}
		}
		if err := got.buddy.CheckInvariants(); err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		if !reflect.DeepEqual(got.buddy.free, ref.buddy.free) {
			t.Fatalf("step %d (%s, space %d): free lists diverge from the page-scan reference", step, op, i)
		}
		for p := vpn; p < vpn+n; p++ {
			g, gok := gs.pt.Lookup(p)
			r, rok := rs.pt.Lookup(p)
			if g != r || gok != rok {
				t.Fatalf("step %d (%s, space %d): vpn %d -> %d,%v, reference %d,%v", step, op, i, p, g, gok, r, rok)
			}
		}
	}
}

// A configuration New's parts cannot be built from, or a mapper whose
// field disagrees with its own ChannelOf, is an error, never a panic.
func TestNewRejectsInvalidConfig(t *testing.T) {
	sd := func(m dram.Mapping) ChannelMapper {
		cfg := dram.PresetHBM.Config()
		cfg.Mapping = m
		return dram.NewSDRAM(cfg)
	}
	cases := []struct {
		name string
		edit func(*Config)
		cm   ChannelMapper
		want string
	}{
		{"zero page size", func(c *Config) { c.PageBits = 0 }, nil, "zero page size"},
		{"VA wider than 63 bits", func(c *Config) { c.Levels, c.BitsPerLevel, c.PageBits = 5, 10, 14 }, nil, "wider than 63 bits"},
		{"pool not a power of two", func(c *Config) { c.PhysPages = 3 << 10 }, nil, "not a power of two"},
		{"empty pool", func(c *Config) { c.PhysPages = 0 }, nil, "not a power of two"},
		{"L1 TLB sets not a power of two", func(c *Config) { c.L1Sets = 6 }, nil, "(L1)"},
		{"L2 TLB without ways", func(c *Config) { c.L2Ways = 0 }, nil, "(L2)"},
		{"no page-table levels", func(c *Config) { c.Levels = 0 }, nil, "page-table shape"},
		{"no radix bits", func(c *Config) { c.BitsPerLevel = 0 }, nil, "page-table shape"},
		{"table wider than 52 VPN bits", func(c *Config) { c.Levels, c.BitsPerLevel, c.PageBits = 6, 9, 8 }, nil, "page-table shape"},
		{"field below its decode", func(*Config) {}, shiftedMapper{sd(dram.MapBank), -1}, "ChannelOf says"},
		{"field above its decode", func(*Config) {}, shiftedMapper{sd(dram.MapRow), 1}, "ChannelOf says"},
		{"field past bit 63", func(*Config) {}, shiftedMapper{fakeChans{}, 50}, "does not fit"},
		{"channel count not a power of two", func(*Config) {}, threeChans{}, "not a power of two"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		v, err := New(cfg, 2, tc.cm)
		if err == nil || v != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New = %v, %v; want an error containing %q", tc.name, v, err, tc.want)
		}
	}
	for _, m := range testMappers() {
		if _, err := New(DefaultConfig(), 2, m.cm); err != nil {
			t.Errorf("%s: New rejected a consistent mapper: %v", m.name, err)
		}
	}
}

// shiftedMapper claims a channel field off by delta bits from the
// decode it forwards.
type shiftedMapper struct {
	ChannelMapper
	delta int
}

func (m shiftedMapper) ChannelShift() uint {
	return uint(int(m.ChannelMapper.ChannelShift()) + m.delta)
}

type threeChans struct{}

func (threeChans) ChannelOf(addr uint64) int { return int(addr>>13) % 3 }
func (threeChans) ChannelCount() int         { return 3 }
func (threeChans) ChannelShift() uint        { return 13 }

// BenchmarkAllocPageColor is the demand-fault placement of the
// four-tenant HD motionsearch run: 4 spaces fault 2,208 pages, round
// robin, under page coloring on the default 1 GiB pool.
func BenchmarkAllocPageColor(b *testing.B) {
	for _, m := range []dram.Mapping{dram.MapBank, dram.MapRow} {
		b.Run("hbm/"+m.String(), func(b *testing.B) {
			dcfg := dram.PresetHBM.Config()
			dcfg.Mapping = m
			cm := dram.NewSDRAM(dcfg)
			cfg := DefaultConfig()
			cfg.Policy = PolicyColor
			for n := 0; n < b.N; n++ {
				v := mustNew(b, cfg, 4, cm)
				for vpn := uint64(0); vpn < 2208/4; vpn++ {
					for i := 0; i < 4; i++ {
						v.Space(i).resolve(vpn, 0)
					}
				}
			}
		})
	}
}
