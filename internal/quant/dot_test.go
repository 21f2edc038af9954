package quant

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asmtest"
)

// mustMatchPortable checks the serving kernel against the portable block
// kernel, and the portable block kernel against four one-row dots, on one
// (query, four rows at stride k) input. Integer sums are exact, so equality
// is the whole contract: there is no tolerance and no ordering to respect.
func mustMatchPortable(t testing.TB, xq, rows []int8, k int, what string) {
	t.Helper()
	var want [4]int32
	for r := range want {
		want[r] = dotI8(xq, rows[r*k:])
	}
	p0, p1, p2, p3 := dot4I8Portable(xq, rows, k)
	if got := [4]int32{p0, p1, p2, p3}; got != want {
		t.Fatalf("%s: portable dot4I8 = %v, four dotI8 = %v", what, got, want)
	}
	s0, s1, s2, s3 := dot4I8(xq, rows, k)
	if got := [4]int32{s0, s1, s2, s3}; got != want {
		t.Fatalf("%s: %s dot4I8 = %v, portable = %v", what, KernelName(), got, want)
	}
}

// dotWidths is every k the kernel's three regimes meet at: below one
// 16-column group, whole groups, groups plus a tail, and two widths large
// enough for many passes of the group loop.
func dotWidths() []int {
	ks := []int{256, 1024}
	for k := 1; k <= 130; k++ {
		ks = append(ks, k)
	}
	return ks
}

func fill(b []int8, v int8) []int8 {
	for i := range b {
		b[i] = v
	}
	return b
}

// TestDot4I8MatchesPortable pins the serving kernel to the portable one on
// every int8 value a checkpoint can carry, −128 included (EncodeDense
// clamps to ±127, a decoded checkpoint need not), at every width.
func TestDot4I8MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range dotWidths() {
		xq, rows := make([]int8, k), make([]int8, 4*k)

		for _, xv := range []int8{-128, 127} {
			for _, rv := range []int8{-128, 127} {
				fill(xq, xv)
				fill(rows, rv)
				mustMatchPortable(t, xq, rows, k, fmt.Sprintf("k=%d all %d x all %d", k, xv, rv))
			}
		}

		// −128 × −128 = +16384 is the one product that does not fit a
		// saturating int16 pair sum; put it in each lane of each row alone.
		clear(xq)
		clear(rows)
		for j := 0; j < k; j++ {
			xq[j] = -128
			for r := 0; r < 4; r++ {
				rows[r*k+j] = -128
			}
			mustMatchPortable(t, xq, rows, k, fmt.Sprintf("k=%d lane %d", k, j))
			xq[j] = 0
			for r := 0; r < 4; r++ {
				rows[r*k+j] = 0
			}
		}

		for trial := 0; trial < 4; trial++ {
			for i := range xq {
				xq[i] = int8(rng.Intn(256) - 128)
			}
			for i := range rows {
				rows[i] = int8(rng.Intn(256) - 128)
			}
			mustMatchPortable(t, xq, rows, k, fmt.Sprintf("k=%d random %d", k, trial))
		}
	}
}

// TestDot4I8Unaligned starts the query and the rows at every offset 0…15
// from a cache-line boundary, so every 16-byte load alignment is read.
func TestDot4I8Unaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, k := range []int{15, 16, 17, 33, 64, 65} {
		for xo := 0; xo < 16; xo++ {
			xq, _ := asmtest.Unaligned[int8](k, xo, 0)
			for i := range xq {
				xq[i] = int8(rng.Intn(256) - 128)
			}
			for ro := 0; ro < 16; ro++ {
				rows, _ := asmtest.Unaligned[int8](4*k, ro, 0)
				for i := range rows {
					rows[i] = int8(rng.Intn(256) - 128)
				}
				mustMatchPortable(t, xq, rows, k, fmt.Sprintf("k=%d offsets %d/%d", k, xo, ro))
			}
		}
	}
}

// TestDot4I8WrapsLikeGo: at k = 2¹⁷ an all-(−128) input sums to 2³¹, one
// past the int32 range; the kernel must wrap exactly where Go's += does.
func TestDot4I8WrapsLikeGo(t *testing.T) {
	const k = 1 << 17
	xq, rows := fill(make([]int8, k), -128), fill(make([]int8, 4*k), -128)
	fill(rows[k:2*k], 127)
	mustMatchPortable(t, xq, rows, k, "k=2^17 wrap")
	if s0, _, _, _ := dot4I8(xq, rows, k); s0 != -1<<31 {
		t.Fatalf("row 0 = %d, want the wrapped %d", s0, -1<<31)
	}
}

// TestDot4I8ShortRowsPanic: the assembly does no bounds checks of its own,
// so the wrapper must refuse what the Go loop refuses.
func TestDot4I8ShortRowsPanic(t *testing.T) {
	for _, k := range []int{8, 16, 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: rows one byte short did not panic", k)
				}
			}()
			dot4I8(make([]int8, k), make([]int8, 4*k-1), k)
		}()
	}
}

// fuzzDotInput decodes fuzz bytes as [k−1, offset] then payload: the first
// k payload bytes are the query, the next 4k the rows (missing bytes are
// zero), both placed at `offset` into fresh allocations.
func fuzzDotInput(data []byte) (xq, rows []int8, k int, ok bool) {
	if len(data) < 2 {
		return nil, nil, 0, false
	}
	k = 1 + int(data[0])%160
	off := int(data[1]) % 16
	buf := make([]int8, 2*off+5*k)
	xq, rows = buf[off:][:k], buf[2*off+k:][:4*k]
	for i, b := range data[2:] {
		switch {
		case i < k:
			xq[i] = int8(b)
		case i < 5*k:
			rows[i-k] = int8(b)
		}
	}
	return xq, rows, k, true
}

// FuzzDot4I8MatchesPortable: no CI lane fuzzes, so the seeds below are what
// runs, as ordinary tests; `go test -fuzz` explores from them.
func FuzzDot4I8MatchesPortable(f *testing.F) {
	seed := func(k, off int, v byte) {
		data := []byte{byte(k - 1), byte(off)}
		for i := 0; i < 5*k; i++ {
			data = append(data, v)
			if v != 0x80 && v != 0x7f {
				v = v*31 + 7
			}
		}
		f.Add(data)
	}
	for _, k := range []int{1, 15, 16, 17, 31, 32, 33, 64, 65, 127, 128, 160} {
		seed(k, k%16, 0x80)
		seed(k, (k+5)%16, 0x7f)
		seed(k, (k+9)%16, 3)
	}
	f.Add([]byte{63, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		xq, rows, k, ok := fuzzDotInput(data)
		if !ok {
			return
		}
		mustMatchPortable(t, xq, rows, k, fmt.Sprintf("k=%d", k))
	})
}
