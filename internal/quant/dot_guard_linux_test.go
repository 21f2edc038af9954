//go:build linux

package quant

import (
	"fmt"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n int8 that end exactly at the end of a mapped page whose
// successor is PROT_NONE: reading one byte past the slice faults.
func guarded(t *testing.T, n int) []int8 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	data := mem[size-page-n : size-page]
	return unsafe.Slice((*int8)(unsafe.Pointer(unsafe.SliceData(data))), n)
}

// TestDot4I8NeverReadsPastARow: a 16-byte load that ran over the end of the
// last row, or of the query, would hit the guard page and kill the test
// binary. The widths cover whole groups, one tail column and fifteen.
func TestDot4I8NeverReadsPastARow(t *testing.T) {
	for _, k := range []int{16, 17, 31, 64, 65} {
		xq, rows := guarded(t, k), guarded(t, 4*k)
		for i := range xq {
			xq[i] = int8(i*7 - 128)
		}
		for i := range rows {
			rows[i] = int8(i*13 + 5)
		}
		mustMatchPortable(t, xq, rows, k, fmt.Sprintf("guarded k=%d", k))
	}
}
