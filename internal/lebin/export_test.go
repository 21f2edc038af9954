package lebin

// ScratchLen lets the tests place slab lengths on the chunk boundary.
const ScratchLen = scratchLen

// SlabFits is the ceiling an input of unknown size is held to: Fits on a
// reader that cannot tell its size.
func SlabFits(rows, cols int64) bool {
	r := &Reader{left: -1}
	return rows >= 0 && cols >= 0 && r.Fits(uint64(rows), uint64(cols), 4)
}
