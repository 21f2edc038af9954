// Package asmtest is the test kit of the assembly kernels (internal/linalg,
// internal/quant): operands placed where a load or store that strays shows.
// Only tests import it.
package asmtest

import "unsafe"

// Unaligned returns n elements that start off elements past a 64-byte
// boundary, inside an allocation every other element of which holds
// sentinel; intact reports whether all of those still do. Sweeping off over
// one 16-byte window puts an operand at every alignment a vector load or
// store can meet, and intact catches a store outside the operand.
func Unaligned[T comparable](n, off int, sentinel T) (s []T, intact func() bool) {
	const line = 64
	per := line / int(unsafe.Sizeof(sentinel))
	buf := make([]T, 3*per+off+n)
	for i := range buf {
		buf[i] = sentinel
	}
	start := per
	for uintptr(unsafe.Pointer(&buf[start]))%line != 0 {
		start++
	}
	start += off
	return buf[start : start+n : start+n], func() bool {
		for i, v := range buf {
			if (i < start || i >= start+n) && v != sentinel {
				return false
			}
		}
		return true
	}
}
