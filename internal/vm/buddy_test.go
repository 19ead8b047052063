package vm

import (
	"math/rand"
	"testing"
)

// The buddy allocator's split/merge property test: a seeded random
// workload of page allocations, targeted claims and frees must keep
// the invariants (sorted aligned non-overlapping free lists, no
// unmerged buddy pairs) after every operation, never hand out a page
// twice, and merge back to the single full-pool block when everything
// is freed.
func TestBuddySplitMergeProperty(t *testing.T) {
	const npages = 256
	b := NewBuddy(npages)
	rng := rand.New(rand.NewSource(9))
	held := map[uint64]bool{}
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(4); {
		case op == 0 && len(held) > 0: // free a random held page
			var victim uint64
			k := rng.Intn(len(held))
			for p := range held {
				if k == 0 {
					victim = p
					break
				}
				k--
			}
			b.FreePage(victim)
			delete(held, victim)
		case op == 1: // targeted claim
			idx := uint64(rng.Intn(npages))
			if b.AllocPageAt(idx) {
				if held[idx] {
					t.Fatalf("step %d: AllocPageAt handed out held page %d", step, idx)
				}
				held[idx] = true
			} else if !held[idx] {
				t.Fatalf("step %d: AllocPageAt refused free page %d", step, idx)
			}
		default: // first-fit page alloc
			if idx, ok := b.AllocPage(); ok {
				if held[idx] {
					t.Fatalf("step %d: AllocPage handed out held page %d", step, idx)
				}
				held[idx] = true
			} else if len(held) != npages {
				t.Fatalf("step %d: pool reported full with %d/%d pages held", step, len(held), npages)
			}
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got := b.FreePages(); got != npages-uint64(len(held)) {
			t.Fatalf("step %d: FreePages = %d, want %d", step, got, npages-len(held))
		}
	}
	for p := range held {
		b.FreePage(p)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if b.FreePages() != npages || len(b.free[b.maxOrder]) != 1 || b.free[b.maxOrder][0] != 0 {
		t.Fatalf("freeing everything did not merge back to one full-pool block: %v", b.free)
	}
}

func TestBuddyFirstFitIsLowestAddress(t *testing.T) {
	b := NewBuddy(16)
	for want := uint64(0); want < 4; want++ {
		idx, ok := b.AllocPage()
		if !ok || idx != want {
			t.Fatalf("AllocPage = %d,%v, want %d", idx, ok, want)
		}
	}
	b.FreePage(1)
	if idx, ok := b.AllocPage(); !ok || idx != 1 {
		t.Fatalf("AllocPage after freeing 1 = %d,%v, want the hole at 1", idx, ok)
	}
}

func TestBuddyFindPage(t *testing.T) {
	b := NewBuddy(16)
	// Claim pages 0..3, then search for the lowest free page with an
	// odd index: must be 5.
	for i := uint64(0); i < 4; i++ {
		if !b.AllocPageAt(i) {
			t.Fatalf("AllocPageAt(%d) failed", i)
		}
	}
	odd := func(lo, hi uint64) (uint64, bool) { p := lo | 1; return p, p < hi }
	idx, ok := b.FindPage(odd)
	if !ok || idx != 5 {
		t.Fatalf("FindPage(odd) = %d,%v, want 5", idx, ok)
	}
	if _, ok := b.FindPage(func(lo, hi uint64) (uint64, bool) { return hi, false }); ok {
		t.Fatal("FindPage matched an impossible query")
	}
}

func TestBuddyDoubleFreePanics(t *testing.T) {
	b := NewBuddy(8)
	for i := 0; i < 8; i++ {
		b.AllocPage()
	}
	b.FreePage(3)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.FreePage(3)
}
