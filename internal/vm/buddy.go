package vm

import (
	"fmt"
	"sort"
)

// Buddy is a binary buddy allocator over a power-of-two pool of
// physical pages. Free blocks of 2^order pages live on per-order
// sorted free lists, so allocation is deterministic (lowest address
// wins), splitting walks down the orders, and freeing merges buddy
// pairs back up. The placement policies need more than "give me any
// page": AllocPageAt claims one specific free page (splitting whatever
// block contains it), and FindPage asks each free block for its lowest
// qualifying page — how page coloring asks for "the lowest free page
// on channel c" without decoding every free page.
type Buddy struct {
	npages   uint64
	maxOrder int
	free     [][]uint64 // free[o] holds sorted start indexes of free 2^o-page blocks
}

// NewBuddy builds an allocator over npages pages (a power of two).
func NewBuddy(npages uint64) *Buddy {
	if err := poolSizeErr(npages); err != nil {
		panic(err)
	}
	order := 0
	for uint64(1)<<order < npages {
		order++
	}
	b := &Buddy{npages: npages, maxOrder: order, free: make([][]uint64, order+1)}
	b.free[order] = []uint64{0}
	return b
}

func poolSizeErr(npages uint64) error {
	if npages == 0 || npages&(npages-1) != 0 {
		return fmt.Errorf("vm: buddy pool size %d is not a power of two", npages)
	}
	return nil
}

// insert adds a free block, keeping the order's list sorted.
func (b *Buddy) insert(order int, idx uint64) {
	l := b.free[order]
	i := sort.Search(len(l), func(i int) bool { return l[i] >= idx })
	if i < len(l) && l[i] == idx {
		panic(fmt.Sprintf("vm: double free of block %d at order %d", idx, order))
	}
	l = append(l, 0)
	copy(l[i+1:], l[i:])
	l[i] = idx
	b.free[order] = l
}

// remove deletes a free block if present.
func (b *Buddy) remove(order int, idx uint64) bool {
	l := b.free[order]
	i := sort.Search(len(l), func(i int) bool { return l[i] >= idx })
	if i == len(l) || l[i] != idx {
		return false
	}
	b.free[order] = append(l[:i], l[i+1:]...)
	return true
}

// AllocOrder claims the lowest-address free block of 2^order pages,
// splitting a larger block if needed. The false return means the pool
// cannot satisfy the request.
func (b *Buddy) AllocOrder(order int) (uint64, bool) {
	// Lowest address wins across all orders that could serve the
	// request; ties prefer the smaller order to avoid splitting.
	best, bestOrder, found := uint64(0), 0, false
	for o := order; o <= b.maxOrder; o++ {
		if len(b.free[o]) == 0 {
			continue
		}
		if !found || b.free[o][0] < best {
			best, bestOrder, found = b.free[o][0], o, true
		}
	}
	if !found {
		return 0, false
	}
	b.remove(bestOrder, best)
	// Split down to the requested order; the upper halves return to
	// the free lists.
	for o := bestOrder; o > order; o-- {
		b.insert(o-1, best+uint64(1)<<(o-1))
	}
	return best, true
}

// AllocPage claims the lowest free page.
func (b *Buddy) AllocPage() (uint64, bool) { return b.AllocOrder(0) }

// AllocPageAt claims one specific page if it is free, splitting the
// block that contains it. It reports whether the claim succeeded.
func (b *Buddy) AllocPageAt(idx uint64) bool {
	if idx >= b.npages {
		return false
	}
	for o := 0; o <= b.maxOrder; o++ {
		start := idx &^ (uint64(1)<<o - 1)
		if !b.remove(o, start) {
			continue
		}
		// Split toward idx: at each level the half not containing the
		// page goes back on the free list.
		for cur := o; cur > 0; cur-- {
			half := uint64(1) << (cur - 1)
			if idx < start+half {
				b.insert(cur-1, start+half)
			} else {
				b.insert(cur-1, start)
				start += half
			}
		}
		return true
	}
	return false
}

// FindPage returns the lowest free page a range query accepts. first
// answers for one free block [lo, hi): the lowest qualifying page in
// it, or false. Free blocks are disjoint and each order's list is
// sorted, so an answer from a block starting below the best so far is
// the new best, and the blocks after it are skipped: the search costs
// at most one query per free block and never visits a page.
func (b *Buddy) FindPage(first func(lo, hi uint64) (uint64, bool)) (uint64, bool) {
	best, found := uint64(0), false
	for o := 0; o <= b.maxOrder; o++ {
		for _, start := range b.free[o] {
			if found && start >= best {
				break // the list is sorted; nothing lower remains
			}
			if p, ok := first(start, start+uint64(1)<<o); ok {
				best, found = p, true
			}
		}
	}
	return best, found
}

// Free returns a 2^order-page block and merges buddy pairs upward.
func (b *Buddy) Free(idx uint64, order int) {
	if idx >= b.npages || idx&(uint64(1)<<order-1) != 0 {
		panic(fmt.Sprintf("vm: freeing misaligned or out-of-pool block %d order %d", idx, order))
	}
	for order < b.maxOrder {
		buddy := idx ^ uint64(1)<<order
		if !b.remove(order, buddy) {
			break
		}
		if buddy < idx {
			idx = buddy
		}
		order++
	}
	b.insert(order, idx)
}

// FreePage returns one page.
func (b *Buddy) FreePage(idx uint64) { b.Free(idx, 0) }

// FreePages counts the pages currently free.
func (b *Buddy) FreePages() uint64 {
	var n uint64
	for o, l := range b.free {
		n += uint64(len(l)) << o
	}
	return n
}

// CheckInvariants verifies the free lists are sorted and aligned, no
// free blocks overlap, nothing escapes the pool, and no mergeable
// buddy pair was left unmerged. Tests call it after every operation.
func (b *Buddy) CheckInvariants() error {
	type span struct{ start, end uint64 }
	var spans []span
	for o, l := range b.free {
		size := uint64(1) << o
		for i, idx := range l {
			if i > 0 && l[i-1] >= idx {
				return fmt.Errorf("order %d free list unsorted at %d", o, i)
			}
			if idx%size != 0 {
				return fmt.Errorf("order %d block %d misaligned", o, idx)
			}
			if idx+size > b.npages {
				return fmt.Errorf("order %d block %d escapes the pool", o, idx)
			}
			if o < b.maxOrder {
				buddy := idx ^ size
				j := sort.Search(len(l), func(j int) bool { return l[j] >= buddy })
				if j < len(l) && l[j] == buddy {
					return fmt.Errorf("order %d blocks %d and %d should have merged", o, idx, buddy)
				}
			}
			spans = append(spans, span{idx, idx + size})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	for i := 1; i < len(spans); i++ {
		if spans[i].start < spans[i-1].end {
			return fmt.Errorf("free blocks overlap at page %d", spans[i].start)
		}
	}
	return nil
}
