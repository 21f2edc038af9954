// Package clgen generates the OpenCL C sources of the paper's kernels: the
// SAC'15 flat baseline and the eight thread-batched code variants (register
// / local-memory / vector toggles), specialized for a latent factor k and a
// work-group size.
//
// The Go reproduction only times these kernels: internal/kernels charges
// their cost on the simulated devices and internal/host computes the
// factors. This package is for users with real OpenCL hardware: the
// emitted sources follow the structures of the paper's Fig. 3 (register
// restructuring) and Fig. 5 (local staging), and the golden tests pin
// their shape. The sources target OpenCL C 1.2, the
// version the paper used.
package clgen

import (
	"fmt"
	"strings"

	"repro/internal/variant"
)

// Params specializes a kernel.
type Params struct {
	K         int             // latent factor (compile-time constant in the source)
	GroupSize int             // work-group size the kernel is tuned for
	Variant   variant.Options // optimization toggles (ignored by Baseline)
}

func (p Params) validate() error {
	if p.K <= 0 {
		return fmt.Errorf("clgen: k must be positive, got %d", p.K)
	}
	if p.GroupSize <= 0 {
		return fmt.Errorf("clgen: group size must be positive, got %d", p.GroupSize)
	}
	return nil
}

// Baseline emits the SAC'15-style flat kernel: one work-item per row, a
// private k×k scratch for YᵀY (the structure of the paper's Fig. 3a), a
// private right-hand side, and an inline Cholesky solve.
func Baseline(p Params) (string, error) {
	return baseline(p, true)
}

func baseline(p Params, preamble bool) (string, error) {
	if err := p.validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, p, "als_update_baseline", "flat one-work-item-per-row baseline (SAC'15 structure)", false, preamble)
	fmt.Fprintf(&b, `__kernel void als_update_baseline(
    __global const float *restrict val,      /* CSR values               */
    __global const int   *restrict col_idx,  /* CSR column indices       */
    __global const int   *restrict row_ptr,  /* CSR row pointers         */
    __global const float *restrict Y,        /* fixed factor, n x K      */
    __global float       *restrict X,        /* output factor, m x K     */
    const int m,
    const float lambda)
{
    const int u = get_global_id(0);
    if (u >= m) return;
    const int lo = row_ptr[u];
    const int omega = row_ptr[u + 1] - lo;
    __global float *xu = X + (size_t)u * K;
    if (omega == 0) {
        for (int i = 0; i < K; ++i) xu[i] = 0.0f;
        return;
    }

    /* S1: smat = Y^T Y |_omega + lambda*I (private K*K scratch, Fig. 3a). */
    float smat[K * K];
    float sum[K * K];
    for (int i = 0; i < K; ++i)
        for (int j = i; j < K; ++j) {
            float s = 0.0f;
            for (int z = 0; z < omega; ++z) {
                const int d = col_idx[lo + z] * K;
                s += Y[d + i] * Y[d + j];
            }
            sum[i * K + j] = s;
        }
    for (int i = 0; i < K; ++i)
        for (int j = i; j < K; ++j) {
            smat[i * K + j] = sum[i * K + j];
            smat[j * K + i] = sum[i * K + j];
        }
    for (int i = 0; i < K; ++i) smat[i * K + i] += lambda;

    /* S2: svec = Y^T r_u. */
    float svec[K];
    for (int c = 0; c < K; ++c) {
        float s = 0.0f;
        for (int z = 0; z < omega; ++z)
            s += val[lo + z] * Y[col_idx[lo + z] * K + c];
        svec[c] = s;
    }

    cholesky_solve(smat, svec);
    for (int i = 0; i < K; ++i) xu[i] = svec[i];
}
`)
	return b.String(), nil
}

// Batched emits the thread-batched kernel for the given variant: one
// work-group per row, lanes splitting the K columns, with the optimization
// toggles changing the source structurally —
//
//	Register: the Fig. 3b unrolled per-column accumulators (sum0..sumK-1)
//	          with lane guards, replacing the private K*K array;
//	Local:    __local staging of the gathered Y rows and the row's ratings
//	          (Fig. 5), tile by tile with barriers;
//	Vector:   explicit float4 arithmetic (vload4) in the gather step.
func Batched(p Params) (string, error) {
	return batched(p, true)
}

func batched(p Params, preamble bool) (string, error) {
	if err := p.validate(); err != nil {
		return "", err
	}
	v := p.Variant
	name := kernelName(v)
	var b strings.Builder
	header(&b, p, name, "thread-batched kernel: one work-group per row ("+v.String()+")", true, preamble)

	fmt.Fprintf(&b, "__kernel void %s(\n", name)
	b.WriteString(`    __global const float *restrict val,
    __global const int   *restrict col_idx,
    __global const int   *restrict row_ptr,
    __global const float *restrict Y,
    __global float       *restrict X,
    const int m,
    const float lambda)
{
    const int lx = get_local_id(0);
    const int ws = get_local_size(0);
`)
	if v.Local {
		b.WriteString(`    __local float yStage[STAGE_ROWS * K]; /* staged rows of Y (Fig. 5) */
    __local float rStage[STAGE_ROWS];     /* staged ratings of r_u      */
`)
	}
	b.WriteString(`    __local float smat[K * K];
    __local float svec[K];

    /* Grid-stride over rows: group g handles rows g, g+G, ... */
    for (int u = get_group_id(0); u < m; u += get_num_groups(0)) {
        const int lo = row_ptr[u];
        const int omega = row_ptr[u + 1] - lo;
        __global float *xu = X + (size_t)u * K;
        if (omega == 0) {
            for (int i = lx; i < K; i += ws) xu[i] = 0.0f;
            continue;
        }

`)

	// --- S1 initialization (before any staging tiles) ---
	if v.Register {
		b.WriteString("        /* S1 accumulators, register-restructured (Fig. 3b): one per j. */\n")
		for j := 0; j < p.K; j++ {
			fmt.Fprintf(&b, "        float sum%d = 0.0f;\n", j)
		}
	} else {
		b.WriteString(`        /* S1 scratch (Fig. 3a adapted): zero the shared K*K matrix. */
        for (int i = lx; i < K * K; i += ws) smat[i] = 0.0f;
        barrier(CLK_LOCAL_MEM_FENCE);
`)
	}

	// --- Tile loop (staging) or single pass ---
	if v.Local {
		b.WriteString(`        for (int c = lx; c < K; c += ws) svec[c] = 0.0f;
        barrier(CLK_LOCAL_MEM_FENCE);

        for (int base = 0; base < omega; base += STAGE_ROWS) {
            const int tile = min(STAGE_ROWS, omega - base);
            /* Stage the gathered rows of Y and the ratings (Fig. 5). */
            for (int z = lx; z < tile; z += ws) {
                const int d = col_idx[lo + base + z] * K;
                rStage[z] = val[lo + base + z];
                for (int c = 0; c < K; ++c)
                    yStage[z * K + c] = Y[d + c];
            }
            barrier(CLK_LOCAL_MEM_FENCE);
`)
	} else {
		b.WriteString(`
        {
            const int base = 0;
            const int tile = omega;
`)
	}

	// --- S1 accumulation over the tile ---
	if v.Register {
		b.WriteString("            for (int z = 0; z < tile; ++z) {\n")
		b.WriteString(s1LoadLine(v))
		for j := 0; j < p.K; j++ {
			fmt.Fprintf(&b, "                if (lx < K) sum%d += yi * %s;\n", j, yRef(v, fmt.Sprint(j)))
		}
		b.WriteString("            }\n")
	} else {
		b.WriteString(`            for (int i = lx; i < K; i += ws)
                for (int j = 0; j < K; ++j) {
                    float s = 0.0f;
                    for (int z = 0; z < tile; ++z) {
`)
		if v.Local {
			b.WriteString("                        s += yStage[z * K + i] * yStage[z * K + j];\n")
		} else {
			b.WriteString(`                        const int d = col_idx[lo + base + z] * K;
                        s += Y[d + i] * Y[d + j];
`)
		}
		b.WriteString(`                    }
                    smat[j * K + i] += s;
                }
`)
	}

	if v.Local {
		// Fused S2 over the staged tile (Fig. 5 stages the ratings too).
		b.WriteString(`            for (int c = lx; c < K; c += ws) {
                float s2acc = 0.0f;
                for (int z = 0; z < tile; ++z)
                    s2acc += rStage[z] * yStage[z * K + c];
                svec[c] += s2acc;
            }
            barrier(CLK_LOCAL_MEM_FENCE);
        } /* staging tiles */
`)
	} else {
		b.WriteString("        }\n")
	}

	// --- S1 finalization ---
	if v.Register {
		b.WriteString("        if (lx < K) {\n")
		for j := 0; j < p.K; j++ {
			fmt.Fprintf(&b, "            smat[%d * K + lx] = sum%d;\n", j, j)
		}
		b.WriteString("        }\n")
	}

	// Regularize, then S2 (Local variants computed svec fused with the
	// staging tiles above; the others gather from global here).
	b.WriteString(`
        barrier(CLK_LOCAL_MEM_FENCE);
        if (lx < K) smat[lx * K + lx] += lambda;
`)
	if !v.Local {
		b.WriteString(`
        /* S2: svec = Y^T r_u, lanes over columns. */
        for (int c = lx; c < K; c += ws) {
            float s = 0.0f;
`)
		if v.Vector {
			b.WriteString(s2VectorBody(v))
		} else {
			b.WriteString(`            for (int z = 0; z < omega; ++z)
                s += val[lo + z] * Y[col_idx[lo + z] * K + c];
`)
		}
		b.WriteString(`            svec[c] = s;
        }
`)
	}
	b.WriteString(`        barrier(CLK_LOCAL_MEM_FENCE);

        /* S3: Cholesky LL^T solve on lane 0. */
        if (lx == 0) {
            cholesky_solve_local(smat, svec);
        }
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int i = lx; i < K; i += ws) xu[i] = svec[i];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
}
`)
	return b.String(), nil
}

// All emits the complete program: one shared preamble (compile-time
// constants and both Cholesky device functions), then the baseline kernel
// and all eight batched variants — a single translation unit a real OpenCL
// compiler accepts.
func All(k, groupSize int) (string, error) {
	p := Params{K: k, GroupSize: groupSize}
	if err := p.validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, `/* ALS update kernels — complete program generated by clgen
 * (k=%d, work-group size %d, OpenCL C 1.2).
 */
#ifndef K
#define K %d
#endif
#ifndef STAGE_ROWS
#define STAGE_ROWS %d
#endif

`, k, groupSize, k, stageRows(p))
	b.WriteString(choleskyPrivate())
	b.WriteString(choleskyLocal())
	base, err := baseline(p, false)
	if err != nil {
		return "", err
	}
	b.WriteString(base)
	for _, v := range variant.All() {
		src, err := batched(Params{K: k, GroupSize: groupSize, Variant: v}, false)
		if err != nil {
			return "", err
		}
		b.WriteString("\n")
		b.WriteString(src)
	}
	return b.String(), nil
}

func kernelName(v variant.Options) string {
	return "als_update_" + strings.NewReplacer("+", "_").Replace(v.ID())
}

// header writes the per-kernel preamble: provenance comment, compile-time
// constants, and the Cholesky device functions (emitted once per source).
func header(b *strings.Builder, p Params, name, desc string, localSolve, preamble bool) {
	fmt.Fprintf(b, `/* %s — %s
 * generated by clgen for k=%d, work-group size %d (OpenCL C 1.2).
 */
`, name, desc, p.K, p.GroupSize)
	if !preamble {
		return
	}
	fmt.Fprintf(b, `#ifndef K
#define K %d
#endif
#ifndef STAGE_ROWS
#define STAGE_ROWS %d
#endif

`, p.K, stageRows(p))
	b.WriteString(choleskyPrivate())
	if localSolve {
		b.WriteString(choleskyLocal())
	}
}

// stageRows sizes the __local staging tile: bounded by a 32 KiB budget so
// the kernel compiles on any 1.2 device.
func stageRows(p Params) int {
	rows := (32 * 1024) / (4 * (p.K + 1))
	if rows > 1024 {
		rows = 1024
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// s1LoadLine loads the lane's column element of the gathered Y row.
func s1LoadLine(v variant.Options) string {
	if v.Local {
		return "            const float yi = (lx < K) ? yStage[z * K + lx] : 0.0f;\n"
	}
	return `                const int d = col_idx[lo + base + z] * K;
                const float yi = (lx < K) ? Y[d + lx] : 0.0f;
`
}

// yRef returns the expression for element `c` of the z-th gathered Y row.
func yRef(v variant.Options, c string) string {
	if v.Local {
		return "yStage[z * K + " + c + "]"
	}
	return "Y[d + " + c + "]"
}

// s2VectorBody issues the gather through float4 accumulators (the paper's
// explicit-vector optimization; 4 is portable across 1.2 devices).
func s2VectorBody(v variant.Options) string {
	return `            float4 acc4 = (float4)(0.0f);
            int z = 0;
            for (; z + 4 <= omega; z += 4) {
                const float4 r4 = vload4(0, val + lo + z);
                float4 y4;
                y4.s0 = Y[col_idx[lo + z + 0] * K + c];
                y4.s1 = Y[col_idx[lo + z + 1] * K + c];
                y4.s2 = Y[col_idx[lo + z + 2] * K + c];
                y4.s3 = Y[col_idx[lo + z + 3] * K + c];
                acc4 += r4 * y4;
            }
            s = acc4.s0 + acc4.s1 + acc4.s2 + acc4.s3;
            for (; z < omega; ++z)
                s += val[lo + z] * Y[col_idx[lo + z] * K + c];
`
}

// choleskyPrivate emits the S3 device function for private scratch.
func choleskyPrivate() string {
	return `static void cholesky_solve(float *a, float *b)
{
    for (int j = 0; j < K; ++j) {
        float d = a[j * K + j];
        for (int p = 0; p < j; ++p) d -= a[j * K + p] * a[j * K + p];
        const float ljj = sqrt(d);
        a[j * K + j] = ljj;
        for (int i = j + 1; i < K; ++i) {
            float s = a[i * K + j];
            for (int p = 0; p < j; ++p) s -= a[i * K + p] * a[j * K + p];
            a[i * K + j] = s / ljj;
        }
    }
    for (int i = 0; i < K; ++i) {
        float s = b[i];
        for (int p = 0; p < i; ++p) s -= a[i * K + p] * b[p];
        b[i] = s / a[i * K + i];
    }
    for (int i = K - 1; i >= 0; --i) {
        float s = b[i];
        for (int p = i + 1; p < K; ++p) s -= a[p * K + i] * b[p];
        b[i] = s / a[i * K + i];
    }
}
`
}

// choleskyLocal emits the S3 device function for __local scratch.
func choleskyLocal() string {
	return `static void cholesky_solve_local(__local float *a, __local float *b)
{
    for (int j = 0; j < K; ++j) {
        float d = a[j * K + j];
        for (int p = 0; p < j; ++p) d -= a[j * K + p] * a[j * K + p];
        const float ljj = sqrt(d);
        a[j * K + j] = ljj;
        for (int i = j + 1; i < K; ++i) {
            float s = a[i * K + j];
            for (int p = 0; p < j; ++p) s -= a[i * K + p] * a[j * K + p];
            a[i * K + j] = s / ljj;
        }
    }
    for (int i = 0; i < K; ++i) {
        float s = b[i];
        for (int p = 0; p < i; ++p) s -= a[i * K + p] * b[p];
        b[i] = s / a[i * K + i];
    }
    for (int i = K - 1; i >= 0; --i) {
        float s = b[i];
        for (int p = i + 1; p < K; ++p) s -= a[p * K + i] * b[p];
        b[i] = s / a[i * K + i];
    }
}

`
}
