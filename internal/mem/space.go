package mem

import "fmt"

// AddressSpace is a per-process virtual address space: a page table mapping
// virtual pages to physical frames. Every page of a region is backed
// eagerly on Alloc; the simulator has no demand-paging concerns.
//
// Two address spaces can share physical frames via MapShared, which is how
// the Reload+Refresh experiments model a shared library / deduplicated page
// between victim and attacker.
type AddressSpace struct {
	pm    *PhysMem
	pages map[uint64]uint64 // virtual page -> physical frame
	brk   uint64            // next free virtual page

	// Direct-mapped software TLB over pages. Mappings are only ever added,
	// never changed or removed, so cached entries can never go stale and
	// the TLB needs no shootdown path.
	tlbTags   [tlbSlots]uint64 // page+1 per slot; 0 = empty
	tlbFrames [tlbSlots]uint64

	// tlMemo caches TranslationLevels results for unmapped pages; adding a
	// mapping can deepen a neighbouring walk, so mutators drop it wholesale.
	tlMemo map[uint64]int
}

// tlbSlots sizes the translation cache; collisions just recompute.
const tlbSlots = 1 << 9

// NewAddressSpace creates an empty address space drawing frames from pm.
func NewAddressSpace(pm *PhysMem) *AddressSpace {
	return &AddressSpace{
		pm:    pm,
		pages: make(map[uint64]uint64),
		brk:   0x1000, // leave page 0 unmapped, like a real process
	}
}

// Alloc reserves size bytes of fresh virtual memory (rounded up to whole
// pages) backed by randomized physical frames, and returns the base address.
func (as *AddressSpace) Alloc(size uint64) (VAddr, error) {
	if size == 0 {
		return 0, fmt.Errorf("mem: Alloc(0): size must be positive")
	}
	npages := (size + PageSize - 1) / PageSize
	base := as.brk
	for i := uint64(0); i < npages; i++ {
		frame, err := as.pm.AllocFrame()
		if err != nil {
			return 0, err
		}
		as.pages[base+i] = frame
	}
	as.brk += npages
	as.tlMemo = nil
	return VAddr(base << PageBits), nil
}

// AllocContiguous reserves size bytes backed by physically contiguous
// frames (a modelled huge-page region) and returns the base address.
func (as *AddressSpace) AllocContiguous(size uint64) (VAddr, error) {
	if size == 0 {
		return 0, fmt.Errorf("mem: AllocContiguous(0): size must be positive")
	}
	npages := (size + PageSize - 1) / PageSize
	first, err := as.pm.AllocContiguous(int(npages))
	if err != nil {
		return 0, err
	}
	base := as.brk
	for i := uint64(0); i < npages; i++ {
		as.pages[base+i] = first + i
	}
	as.brk += npages
	as.tlMemo = nil
	return VAddr(base << PageBits), nil
}

// Translate resolves a virtual address to its physical address.
func (as *AddressSpace) Translate(va VAddr) (PAddr, error) {
	page := va.Page()
	idx := page & (tlbSlots - 1)
	if as.tlbTags[idx] == page+1 {
		return PAddr(as.tlbFrames[idx]<<PageBits | uint64(va)&(PageSize-1)), nil
	}
	frame, ok := as.pages[page]
	if !ok {
		return 0, fmt.Errorf("mem: page fault at %#x", uint64(va))
	}
	as.tlbTags[idx] = page + 1
	as.tlbFrames[idx] = frame
	return PAddr(frame<<PageBits | uint64(va)&(PageSize-1)), nil
}

// MustTranslate is Translate for addresses the caller has itself mapped;
// it panics on a page fault, which always indicates a harness bug.
func (as *AddressSpace) MustTranslate(va VAddr) PAddr {
	pa, err := as.Translate(va)
	if err != nil {
		panic(err)
	}
	return pa
}

// MapShared maps size bytes starting at the other space's base address into
// this space at the same virtual address, sharing the physical frames. It
// models page deduplication / a shared library segment. The virtual range
// must not already be mapped here.
func (as *AddressSpace) MapShared(other *AddressSpace, base VAddr, size uint64) error {
	if size == 0 {
		return fmt.Errorf("mem: MapShared: size must be positive")
	}
	npages := (size + PageSize - 1) / PageSize
	start := base.Page()
	for i := uint64(0); i < npages; i++ {
		if _, dup := as.pages[start+i]; dup {
			return fmt.Errorf("mem: MapShared: virtual page %#x already mapped", start+i)
		}
		frame, ok := other.pages[start+i]
		if !ok {
			return fmt.Errorf("mem: MapShared: source page %#x not mapped", start+i)
		}
		as.pages[start+i] = frame
	}
	if end := start + npages; end > as.brk {
		as.brk = end
	}
	as.tlMemo = nil
	return nil
}

// Lines enumerates the line-aligned virtual addresses of a [base, base+size)
// region, a convenience for building candidate pools.
func Lines(base VAddr, size uint64) []VAddr {
	n := size / LineSize
	out := make([]VAddr, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, base+VAddr(i*LineSize))
	}
	return out
}
