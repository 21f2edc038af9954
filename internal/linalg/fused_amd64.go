//go:build amd64 && !amd64.v3 && !purego

package linalg

// fusedBlock4 is fusedBlock4Portable on SSE2 (same binding rule as
// wide_amd64.go). The assembly checks no bounds: the wrapper makes the
// portable loop's — k floats of every row and of svec, four ratings, the
// whole packed triangle — so exactly those elements are touched.
func fusedBlock4(r1, r2, r3, r4, v, packed, svec []float32) {
	k := len(svec)
	if k == 0 {
		return
	}
	_, _, _, _, _, _ = r1[k-1], r2[k-1], r3[k-1], r4[k-1], v[3], packed[PackedLen(k)-1]
	fusedBlock4SSE2(&r1[0], &r2[0], &r3[0], &r4[0], k, &v[0], &packed[0], &svec[0])
}

// fusedBlock4SSE2 is fusedBlock4Portable for k ≥ 1.
//
//go:noescape
func fusedBlock4SSE2(r1, r2, r3, r4 *float32, k int, v, packed, svec *float32)
