//go:build amd64 && !amd64.v3 && !purego

package linalg

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestHasAVXMatchesCPUInfo: the probe agrees with the kernel's own reading
// of the CPU, the avx flag in /proc/cpuinfo (which the kernel also clears
// when it does not save the YMM state).
func TestHasAVXMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if want := slices.Contains(strings.Fields(flags), "avx"); hasAVX != want {
			t.Fatalf("hasAVX = %v, /proc/cpuinfo avx flag %v", hasAVX, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo names no flags")
}

// TestWideKernelsWithoutAVX runs TestWideKernelsMatchPortable's cases
// through the wrappers as a CPU without AVX takes them: the CG matvec on the
// portable bodies, KernelName "sse2".
func TestWideKernelsWithoutAVX(t *testing.T) {
	if hasAVX && KernelName() != "avx" {
		t.Fatalf("KernelName() = %q with AVX, want avx", KernelName())
	}
	defer func(was bool) { hasAVX = was }(hasAVX)
	hasAVX = false
	if got := KernelName(); got != "sse2" {
		t.Fatalf("KernelName() = %q without AVX, want sse2", got)
	}
	wideKernelsMatchPortable(t)
}
