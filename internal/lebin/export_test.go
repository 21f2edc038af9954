package lebin

// ScratchLen lets the tests place slab lengths on the chunk boundary.
const ScratchLen = scratchLen
