//go:build linux

package linalg

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n elements that end exactly at the end of a mapped page
// whose successor is PROT_NONE: touching one byte past the slice faults.
func guarded[T float32 | float64](t *testing.T, n int) []T {
	t.Helper()
	var zero T
	bytes := n * int(unsafe.Sizeof(zero))
	page := syscall.Getpagesize()
	size := (bytes+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	data := mem[size-page-bytes : size-page]
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(data))), n)
}

// TestWideKernelsNeverReadPastARow: a 16-byte load or store that ran over
// the end of the Gram, the direction, the last factor row, out, x or y would
// hit the guard page and kill the test binary.
func TestWideKernelsNeverReadPastARow(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, k := range []int{4, 8, 20, 64} {
		ref, p := wideFixture(rng, k, 7, true)
		s := *ref
		s.GWide = guarded[float64](t, k*k)
		s.Wide = guarded[float64](t, k)
		s.Src = guarded[float32](t, len(ref.Src))
		copy(s.GWide, ref.GWide)
		copy(s.Src, ref.Src)
		s.Cols[0] = int32(len(s.Src)/k - 1) // the row that ends at the guard page
		mustMatchApply(t, &s, p, guarded[float32](t, k), fmt.Sprintf("guarded k=%d", k))
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64} {
		x, y := guarded[float64](t, n), guarded[float64](t, n)
		for j := range x {
			x[j], y[j] = rng.NormFloat64(), rng.NormFloat64()
		}
		mustMatchAxpy(t, rng.NormFloat64(), x, y, fmt.Sprintf("guarded axpy n=%d", n))
	}
}
