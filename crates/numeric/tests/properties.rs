//! Property-based tests for the numeric substrate.

use powerlens_numeric::{
    covariance, euclidean, jacobi_eigen, mahalanobis, pseudo_inverse, zscore_scale, Matrix,
    Whitener,
};
use proptest::prelude::*;

/// Reference product: the seed's naive ikj triple loop (zero-skip included),
/// kept here as the ground truth the blocked kernel must reproduce.
fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let v = a[(i, k)];
            if v == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out[(i, j)] += v * b[(k, j)];
            }
        }
    }
    out
}

/// Strategy: a conformable matrix pair with shapes up to 24x24 — large
/// enough to exercise non-trivial slab positions in the blocked kernel.
fn matmul_operands() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..=24, 1usize..=24, 1usize..=24).prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec(-100.0f64..100.0, m * k)
                .prop_map(move |raw| Matrix::from_vec(m, k, raw).unwrap()),
            proptest::collection::vec(-100.0f64..100.0, k * n)
                .prop_map(move |raw| Matrix::from_vec(k, n, raw).unwrap()),
        )
    })
}

/// Strategy: a random symmetric matrix of size 1..=6 with bounded entries.
fn symmetric_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=6).prop_flat_map(|n| {
        proptest::collection::vec(-100.0f64..100.0, n * n).prop_map(move |raw| {
            let mut m = Matrix::from_vec(n, n, raw).unwrap();
            for i in 0..n {
                for j in 0..i {
                    let avg = 0.5 * (m[(i, j)] + m[(j, i)]);
                    m[(i, j)] = avg;
                    m[(j, i)] = avg;
                }
            }
            m
        })
    })
}

/// Strategy: a random observation matrix (2..=12 rows, 1..=6 cols).
fn observations() -> impl Strategy<Value = Matrix> {
    (2usize..=12, 1usize..=6).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-50.0f64..50.0, r * c)
            .prop_map(move |raw| Matrix::from_vec(r, c, raw).unwrap())
    })
}

proptest! {
    #[test]
    fn eigen_reconstructs_input(a in symmetric_matrix()) {
        let eig = jacobi_eigen(&a).unwrap();
        let n = a.rows();
        let mut d = Matrix::zeros(n, n);
        for i in 0..n { d[(i, i)] = eig.values[i]; }
        let r = eig.vectors.matmul(&d).unwrap().matmul(&eig.vectors.transpose()).unwrap();
        let scale = a.max_abs().max(1.0);
        for i in 0..n {
            for j in 0..n {
                prop_assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-8 * scale);
            }
        }
    }

    #[test]
    fn eigen_trace_is_preserved(a in symmetric_matrix()) {
        let eig = jacobi_eigen(&a).unwrap();
        let trace: f64 = (0..a.rows()).map(|i| a[(i, i)]).sum();
        let sum: f64 = eig.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
    }

    #[test]
    fn pinv_satisfies_first_penrose_condition(a in symmetric_matrix()) {
        let p = pseudo_inverse(&a).unwrap();
        let apa = a.matmul(&p).unwrap().matmul(&a).unwrap();
        let scale = a.max_abs().max(1.0);
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                prop_assert!((apa[(i, j)] - a[(i, j)]).abs() < 1e-6 * scale);
            }
        }
    }

    #[test]
    fn covariance_is_symmetric_psd(x in observations()) {
        let c = covariance(&x).unwrap();
        prop_assert!(c.is_symmetric(1e-9 * c.max_abs().max(1.0)));
        let eig = jacobi_eigen(&c).unwrap();
        for v in eig.values {
            prop_assert!(v > -1e-7 * c.max_abs().max(1.0), "negative eigenvalue {v}");
        }
    }

    #[test]
    fn mahalanobis_is_symmetric_and_nonnegative(x in observations()) {
        let c = covariance(&x).unwrap();
        let p = pseudo_inverse(&c).unwrap();
        let a = x.row(0).to_vec();
        let b = x.row(x.rows() - 1).to_vec();
        let dab = mahalanobis(&a, &b, &p).unwrap();
        let dba = mahalanobis(&b, &a, &p).unwrap();
        prop_assert!(dab >= 0.0);
        prop_assert!((dab - dba).abs() < 1e-9 * dab.max(1.0));
        prop_assert!(mahalanobis(&a, &a, &p).unwrap() < 1e-9);
    }

    #[test]
    fn zscore_output_is_finite_and_centred(x in observations()) {
        let s = zscore_scale(&x).unwrap();
        prop_assert!(s.all_finite());
        for c in 0..s.cols() {
            let mean: f64 = (0..s.rows()).map(|r| s[(r, c)]).sum::<f64>() / s.rows() as f64;
            prop_assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn matmul_is_associative(
        a in proptest::collection::vec(-10.0f64..10.0, 9),
        b in proptest::collection::vec(-10.0f64..10.0, 9),
        c in proptest::collection::vec(-10.0f64..10.0, 9),
    ) {
        let ma = Matrix::from_vec(3, 3, a).unwrap();
        let mb = Matrix::from_vec(3, 3, b).unwrap();
        let mc = Matrix::from_vec(3, 3, c).unwrap();
        let left = ma.matmul(&mb).unwrap().matmul(&mc).unwrap();
        let right = ma.matmul(&mb.matmul(&mc).unwrap()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((left[(i, j)] - right[(i, j)]).abs() < 1e-6 * left.max_abs().max(1.0));
            }
        }
    }

    #[test]
    fn transpose_is_involution(x in observations()) {
        prop_assert_eq!(x.transpose().transpose(), x);
    }

    #[test]
    fn blocked_matmul_matches_naive_reference(ops in matmul_operands()) {
        let (a, b) = ops;
        let fast = a.matmul(&b).unwrap();
        let naive = matmul_naive(&a, &b);
        // Same accumulation order per element => results are identical,
        // not merely close. (The zero-skip branch in the reference adds
        // exact zeros, which cannot change a finite sum.)
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn matmul_nt_matches_naive_on_transpose(ops in matmul_operands()) {
        let (a, b) = ops;
        let bt = b.transpose(); // b.rows() == a.cols(), so bt is n x k
        let fast = a.matmul_nt(&bt).unwrap();
        let naive = matmul_naive(&a, &b);
        // matmul_nt runs the lane dot kernel, which re-associates the
        // reduction across LANES accumulators — so this
        // pin is a tolerance, unlike the still-exact blocked≡naive pin
        // above (whose per-element k order is unchanged by lane chunking).
        let scale = naive.max_abs().max(1.0);
        for i in 0..naive.rows() {
            for j in 0..naive.cols() {
                prop_assert!(
                    (fast[(i, j)] - naive[(i, j)]).abs() < 1e-12 * scale,
                    "({}, {}): {} vs {}", i, j, fast[(i, j)], naive[(i, j)]
                );
            }
        }
    }

    #[test]
    fn whitened_euclidean_matches_mahalanobis(x in observations()) {
        let c = covariance(&x).unwrap();
        let p = pseudo_inverse(&c).unwrap();
        let wh = Whitener::from_covariance(&c).unwrap();
        let z = wh.whiten(&x).unwrap();
        let scale = x.max_abs().max(1.0);
        for i in 0..x.rows() {
            for j in 0..x.rows() {
                let direct = mahalanobis(x.row(i), x.row(j), &p).unwrap();
                let fast = euclidean(z.row(i), z.row(j));
                prop_assert!(
                    (direct - fast).abs() < 1e-9 * scale,
                    "pair ({}, {}): {} vs {}", i, j, direct, fast
                );
            }
        }
    }
}
