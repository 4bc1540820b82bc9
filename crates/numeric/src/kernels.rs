//! Low-level dense kernels over flat row-major `f64` slices.
//!
//! These back [`crate::Matrix`]'s products and the batched MLP passes in
//! `powerlens-mlp`. They share three properties:
//!
//! * **contiguous inner loops** — every inner loop walks two slices in
//!   step, so the compiler can vectorize and the hardware prefetcher sees
//!   unit stride;
//! * **explicit lane structure** — the hot loops are written as
//!   fixed-width [`LANES`]-wide chunks with unrolled accumulators and a
//!   scalar remainder, the shape a `std::simd` or arch-intrinsic backend
//!   drops straight into;
//! * **no zero-skip branches** — dense data makes the branch nearly always
//!   false, and mispredictions cost more than the multiply they save.
//!
//! # Accumulation order and bit-identity
//!
//! The matrix kernels ([`gemm`], [`gemm_nt_bias`], [`gemm_tn_acc`]) lane-chunk
//! the *output* (`j`) dimension only: every output element still consumes its
//! reduction index `k` in plain ascending, left-associated order, so their
//! results are bit-identical to the naive loops — the `blocked ≡ naive` pins
//! stay exact, and batched MLP passes stay bit-identical to per-sample ones.
//! The *reduction* kernels ([`dot`], [`squared_distance`], and
//! [`gemm_nt`]/[`matvec`] which are built on `dot`) split the sum across
//! [`LANES`] independent accumulators; that re-association changes the
//! rounding, so their equivalence tests against the serial references
//! ([`dot_scalar`], [`squared_distance_scalar`]) are tolerance-pinned
//! instead (`crates/numeric/tests/kernel_tolerance.rs`).
//!
//! All kernels panic (via `debug_assert!` on the hot path, argument asserts
//! at the `Matrix` layer) rather than silently reading out of bounds; the
//! slice indexing itself is bounds-checked in release builds.

/// Cache-blocking depth for the `k` dimension of [`gemm`]. A 128-row panel
/// of `B` (128 x n doubles) stays resident in L1/L2 while the panel is
/// swept for every output row, which is what turns the naive triple loop
/// into a cache-friendly one for matrices larger than the cache.
pub const KC: usize = 128;

/// Fixed lane width of the chunked kernels: four `f64`s, one 256-bit
/// vector register on AVX2-class hardware (two 128-bit ops on NEON).
pub const LANES: usize = 4;

/// Splits equal-length slices into their lane-aligned heads and scalar
/// tails. The head length is the largest multiple of [`LANES`].
#[inline]
fn lane_split<'a>(a: &'a [f64], b: &'a [f64]) -> (&'a [f64], &'a [f64], &'a [f64], &'a [f64]) {
    debug_assert_eq!(a.len(), b.len());
    let main = a.len() - a.len() % LANES;
    let (ah, at) = a.split_at(main);
    let (bh, bt) = b.split_at(main);
    (ah, at, bh, bt)
}

/// Dot product of two equal-length slices: [`LANES`] independent
/// accumulators (breaking the serial FP dependency chain so the loop
/// vectorizes), scalar tail, pairwise final reduction.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (ah, at, bh, bt) = lane_split(a, b);
    let mut acc = [0.0f64; LANES];
    for (ca, cb) in ah.chunks_exact(LANES).zip(bh.chunks_exact(LANES)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let tail: f64 = at.iter().zip(bt).map(|(x, y)| x * y).sum();
    ((acc[0] + acc[2]) + (acc[1] + acc[3])) + tail
}

/// Serial ascending-index dot product — the reference [`dot`] is pinned
/// against.
#[inline]
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance `Σ (a[i]-b[i])²` with the accumulator
/// structure of [`dot`] — the inner loop of the whitened pairwise-distance
/// matrix in `powerlens-cluster`.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (ah, at, bh, bt) = lane_split(a, b);
    let mut acc = [0.0f64; LANES];
    for (ca, cb) in ah.chunks_exact(LANES).zip(bh.chunks_exact(LANES)) {
        let d0 = ca[0] - cb[0];
        let d1 = ca[1] - cb[1];
        let d2 = ca[2] - cb[2];
        let d3 = ca[3] - cb[3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let tail: f64 = at.iter().zip(bt).map(|(x, y)| (x - y) * (x - y)).sum();
    ((acc[0] + acc[2]) + (acc[1] + acc[3])) + tail
}

/// Serial ascending-index squared distance — the reference
/// [`squared_distance`] is pinned against.
#[inline]
pub fn squared_distance_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// `out[j] += a * x[j]` over a whole row, lane-chunked. Each output element
/// is read and written exactly once, so the per-element arithmetic — and
/// therefore the bits — match the plain scalar loop.
#[inline]
pub fn axpy(out: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(out.len(), x.len());
    let main = out.len() - out.len() % LANES;
    let (oh, ot) = out.split_at_mut(main);
    let (xh, xt) = x.split_at(main);
    for (o, v) in oh.chunks_exact_mut(LANES).zip(xh.chunks_exact(LANES)) {
        o[0] += a * v[0];
        o[1] += a * v[1];
        o[2] += a * v[2];
        o[3] += a * v[3];
    }
    for (o, &v) in ot.iter_mut().zip(xt) {
        *o += a * v;
    }
}

/// Fused four-step row update `out[j] = (((out[j] + a0·b0[j]) + a1·b1[j])
/// + a2·b2[j]) + a3·b3[j]`, lane-chunked over `j`.
///
/// The four `k` contributions stay left-associated in ascending order per
/// element, so chunking `j` changes nothing about the bits — this is the
/// register-blocked core of [`gemm`] and [`gemm_tn_acc`].
#[inline]
fn update_row_k4(out: &mut [f64], coeff: [f64; LANES], rows: [&[f64]; LANES]) {
    let n = out.len();
    let main = n - n % LANES;
    let (oh, ot) = out.split_at_mut(main);
    let [b0, b1, b2, b3] = rows;
    let (b0h, b0t) = b0.split_at(main);
    let (b1h, b1t) = b1.split_at(main);
    let (b2h, b2t) = b2.split_at(main);
    let (b3h, b3t) = b3.split_at(main);
    let [a0, a1, a2, a3] = coeff;
    for ((((o, v0), v1), v2), v3) in oh
        .chunks_exact_mut(LANES)
        .zip(b0h.chunks_exact(LANES))
        .zip(b1h.chunks_exact(LANES))
        .zip(b2h.chunks_exact(LANES))
        .zip(b3h.chunks_exact(LANES))
    {
        for l in 0..LANES {
            o[l] = (((o[l] + a0 * v0[l]) + a1 * v1[l]) + a2 * v2[l]) + a3 * v3[l];
        }
    }
    for ((((o, &v0), &v1), &v2), &v3) in ot.iter_mut().zip(b0t).zip(b1t).zip(b2t).zip(b3t) {
        *o = (((*o + a0 * v0) + a1 * v1) + a2 * v2) + a3 * v3;
    }
}

/// `out = A · B` where `A` is `m x k`, `B` is `k x n`, all row-major.
///
/// Blocked over `k` in panels of [`KC`] and register-blocked four-wide
/// within each panel; within each output element the `k` index ascends
/// left-associated, so the result is independent of the blocking factor
/// and of the lane chunking over `j`.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm: lhs length");
    assert_eq!(b.len(), k * n, "gemm: rhs length");
    assert_eq!(out.len(), m * n, "gemm: out length");
    out.fill(0.0);
    for kk in (0..k).step_by(KC) {
        let k_end = (kk + KC).min(k);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            // Register-block k four-wide: each output element is loaded and
            // stored once per four multiply-adds instead of once per one.
            let mut kx = kk;
            while kx + 4 <= k_end {
                let coeff = [a_row[kx], a_row[kx + 1], a_row[kx + 2], a_row[kx + 3]];
                let (b0, rest) = b[kx * n..(kx + 4) * n].split_at(n);
                let (b1, rest) = rest.split_at(n);
                let (b2, b3) = rest.split_at(n);
                update_row_k4(out_row, coeff, [b0, b1, b2, b3]);
                kx += 4;
            }
            for (kx, &aik) in a_row.iter().enumerate().take(k_end).skip(kx) {
                axpy(out_row, aik, &b[kx * n..(kx + 1) * n]);
            }
        }
    }
}

/// `out = A · Bᵀ` where `A` is `m x k` and `B` is `n x k` (so `Bᵀ` is
/// `k x n`), all row-major.
///
/// Because both operands are walked along rows, every inner product runs
/// over two contiguous slices — the natural kernel when the right-hand
/// side is already stored transposed (e.g. dense-layer weights, stored
/// `out_dim x in_dim`). Built on [`dot`], so it inherits its
/// re-associated accumulation (tolerance-pinned, not exact).
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm_nt: lhs length");
    assert_eq!(b.len(), n * k, "gemm_nt: rhs length");
    assert_eq!(out.len(), m * n, "gemm_nt: out length");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o = dot(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// `out = A · Bᵀ + 1·biasᵀ`: like [`gemm_nt`] but each output row starts
/// from `bias` instead of zero — the fused dense-layer forward pass.
///
/// Internally transposes `B` once and runs the ikj [`gemm`]: a per-element
/// serial dot product is a floating-point dependency chain the compiler
/// cannot vectorize, while the ikj form updates a whole output row per `k`
/// step. The result is still bit-identical to
/// `bias[j] + dot_scalar(a_row, b_row)` — the `k` index ascends either
/// way, and IEEE-754 addition is commutative, so adding the bias after the
/// accumulation instead of before produces the same bits.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn gemm_nt_bias(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    bias: &[f64],
    out: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "gemm_nt_bias: lhs length");
    assert_eq!(b.len(), n * k, "gemm_nt_bias: rhs length");
    assert_eq!(bias.len(), n, "gemm_nt_bias: bias length");
    assert_eq!(out.len(), m * n, "gemm_nt_bias: out length");
    let mut bt = vec![0.0; k * n];
    for j in 0..n {
        let b_row = &b[j * k..(j + 1) * k];
        for (s, &v) in b_row.iter().enumerate() {
            bt[s * n + j] = v;
        }
    }
    gemm(m, k, n, a, &bt, out);
    for row in out.chunks_exact_mut(n) {
        for (o, &bv) in row.iter_mut().zip(bias) {
            *o += bv;
        }
    }
}

/// `out += Aᵀ · B` where `A` is `k x m` and `B` is `k x n`, all row-major —
/// the gradient accumulation `∂W += ∂Yᵀ·X` of a batched dense backward
/// pass.
///
/// The reduction index `k` (the batch dimension) is the outer loop, so the
/// accumulation order per output element equals a sample-by-sample loop —
/// the lane chunking over `n` does not touch it.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn gemm_tn_acc(k: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), k * m, "gemm_tn_acc: lhs length");
    assert_eq!(b.len(), k * n, "gemm_tn_acc: rhs length");
    assert_eq!(out.len(), m * n, "gemm_tn_acc: out length");
    // Register-block the reduction (batch) dimension four-wide, as in
    // [`gemm`]; the left-associated updates keep ascending sample order.
    let mut s = 0;
    while s + 4 <= k {
        let (b0, rest) = b[s * n..(s + 4) * n].split_at(n);
        let (b1, rest) = rest.split_at(n);
        let (b2, b3) = rest.split_at(n);
        for i in 0..m {
            let coeff = [
                a[s * m + i],
                a[(s + 1) * m + i],
                a[(s + 2) * m + i],
                a[(s + 3) * m + i],
            ];
            update_row_k4(&mut out[i * n..(i + 1) * n], coeff, [b0, b1, b2, b3]);
        }
        s += 4;
    }
    for s in s..k {
        let a_row = &a[s * m..(s + 1) * m];
        let b_row = &b[s * n..(s + 1) * n];
        for (i, &g) in a_row.iter().enumerate() {
            axpy(&mut out[i * n..(i + 1) * n], g, b_row);
        }
    }
}

/// `out = A · x` where `A` is `m x k` row-major and `x` has length `k`.
///
/// One [`dot`] per row, so it re-associates the same way.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn matvec(m: usize, k: usize, a: &[f64], x: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), m * k, "matvec: matrix length");
    assert_eq!(x.len(), k, "matvec: vector length");
    assert_eq!(out.len(), m, "matvec: out length");
    for (i, o) in out.iter_mut().enumerate() {
        *o = dot(&a[i * k..(i + 1) * k], x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for s in 0..k {
                    out[i * n + j] += a[i * k + s] * b[s * n + j];
                }
            }
        }
        out
    }

    fn seq(len: usize, scale: f64) -> Vec<f64> {
        (0..len).map(|i| (i as f64 * 0.37 - 1.0) * scale).collect()
    }

    #[test]
    fn gemm_matches_naive_beyond_block_size() {
        // k spans multiple KC panels and n is not a multiple of LANES, so
        // both the k blocking and the j-lane remainder are exercised.
        let (m, k, n) = (3, 2 * KC + 7, 5);
        let a = seq(m * k, 0.01);
        let b = seq(k * n, 0.02);
        let mut out = vec![1.0; m * n]; // pre-dirty: gemm must overwrite
        gemm(m, k, n, &a, &b, &mut out);
        let want = naive(m, k, n, &a, &b);
        for (x, y) in out.iter().zip(&want) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_nt_matches_transposed_gemm() {
        let (m, k, n) = (4, 6, 3);
        let a = seq(m * k, 0.1);
        let b = seq(n * k, 0.2); // n x k
        let mut bt = vec![0.0; k * n];
        for j in 0..n {
            for s in 0..k {
                bt[s * n + j] = b[j * k + s];
            }
        }
        let mut got = vec![0.0; m * n];
        gemm_nt(m, k, n, &a, &b, &mut got);
        // gemm_nt runs the lane re-associated dot, so the pin is a
        // tolerance, not bit equality.
        for (x, y) in got.iter().zip(&naive(m, k, n, &a, &bt)) {
            assert!((x - y).abs() < 1e-12 * y.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_nt_bias_adds_row_broadcast_bias() {
        let (m, k, n) = (2, 3, 2);
        let a = seq(m * k, 0.5);
        let b = seq(n * k, 0.25);
        let bias = [10.0, -20.0];
        let mut plain = vec![0.0; m * n];
        gemm_nt(m, k, n, &a, &b, &mut plain);
        let mut with_bias = vec![0.0; m * n];
        gemm_nt_bias(m, k, n, &a, &b, &bias, &mut with_bias);
        for i in 0..m {
            for j in 0..n {
                let (got, want) = (with_bias[i * n + j], bias[j] + plain[i * n + j]);
                assert!(
                    (got - want).abs() < 1e-12 * want.abs().max(1.0),
                    "{got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn gemm_tn_acc_accumulates_transposed_product() {
        let (k, m, n) = (5, 3, 4);
        let a = seq(k * m, 0.3); // k x m
        let b = seq(k * n, 0.7); // k x n
        let mut at = vec![0.0; m * k];
        for s in 0..k {
            for i in 0..m {
                at[i * k + s] = a[s * m + i];
            }
        }
        let want = naive(m, k, n, &at, &b);
        let mut out = vec![1.0; m * n]; // accumulate on top of ones
        gemm_tn_acc(k, m, n, &a, &b, &mut out);
        for (x, y) in out.iter().zip(&want) {
            assert!((x - 1.0 - y).abs() < 1e-12, "{x} vs 1 + {y}");
        }
    }

    #[test]
    fn matvec_matches_gemm_column() {
        let (m, k) = (4, 7);
        let a = seq(m * k, 0.11);
        let x = seq(k, 0.9);
        let mut got = vec![0.0; m];
        matvec(m, k, &a, &x, &mut got);
        let want = naive(m, k, 1, &a, &x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "gemm: lhs length")]
    fn gemm_rejects_bad_lengths() {
        let mut out = [0.0; 1];
        gemm(1, 2, 1, &[1.0], &[1.0, 2.0], &mut out);
    }
}
