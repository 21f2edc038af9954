package asmtest

import (
	"syscall"
	"testing"
	"unsafe"
)

// Guarded returns n elements that end exactly at the end of a mapped page
// whose successor is PROT_NONE: touching one byte past the slice faults and
// kills the test binary. The mapping is released when the test ends.
func Guarded[T any](t testing.TB, n int) []T {
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
