//! Property-based tests of the linear-algebra kernels: the sparse paths
//! must agree with dense references, and the power method's fixed points
//! must be genuine.

use lmm_linalg::power::stationary_distribution;
use lmm_linalg::{
    vec_ops, CooMatrix, CsrMatrix, DenseMatrix, LinearOperator, PowerOptions, StationaryOperator,
    StochasticMatrix,
};
use lmm_par::ThreadPool;
use proptest::prelude::*;

/// Strategy: a random list of triplets inside an `n x n` matrix.
fn triplets(n: usize, max_entries: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0..n, 0..n, 0.0f64..10.0), 0..max_entries)
}

fn build_pair(n: usize, entries: &[(usize, usize, f64)]) -> (CsrMatrix, DenseMatrix) {
    let mut coo = CooMatrix::new(n, n);
    let mut dense = DenseMatrix::zeros(n, n).expect("n > 0");
    for &(r, c, v) in entries {
        coo.push(r, c, v);
        dense.set(r, c, dense.get(r, c) + v);
    }
    (coo.to_csr(), dense)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// COO assembly with duplicate summing matches the dense accumulation.
    #[test]
    fn coo_to_csr_matches_dense(n in 1usize..12, entries in triplets(11, 40)) {
        let entries: Vec<_> = entries.into_iter()
            .filter(|&(r, c, _)| r < n && c < n)
            .collect();
        let (csr, dense) = build_pair(n, &entries);
        for r in 0..n {
            for c in 0..n {
                prop_assert!((csr.get(r, c) - dense.get(r, c)).abs() < 1e-12);
            }
        }
    }

    /// Sparse matrix-vector products agree with the dense reference.
    #[test]
    fn apply_matches_dense(
        n in 1usize..10,
        entries in triplets(9, 30),
        x_seed in prop::collection::vec(-5.0f64..5.0, 1..10),
    ) {
        let entries: Vec<_> = entries.into_iter()
            .filter(|&(r, c, _)| r < n && c < n)
            .collect();
        let (csr, dense) = build_pair(n, &entries);
        let x: Vec<f64> = (0..n).map(|i| x_seed[i % x_seed.len()]).collect();
        let sparse_y = csr.apply(&x).expect("dims");
        let dense_y = dense.apply(&x).expect("dims");
        prop_assert!(vec_ops::l1_diff(&sparse_y, &dense_y) < 1e-9);
        let sparse_t = csr.apply_transpose(&x).expect("dims");
        let dense_t = dense.apply_transpose(&x).expect("dims");
        prop_assert!(vec_ops::l1_diff(&sparse_t, &dense_t) < 1e-9);
    }

    /// Transposition is an involution and preserves every entry.
    #[test]
    fn transpose_involution(n in 1usize..10, entries in triplets(9, 30)) {
        let entries: Vec<_> = entries.into_iter()
            .filter(|&(r, c, _)| r < n && c < n)
            .collect();
        let (csr, _) = build_pair(n, &entries);
        let tt = csr.transpose().transpose();
        prop_assert_eq!(&tt, &csr);
        for (r, c, v) in csr.iter() {
            prop_assert_eq!(csr.transpose().get(c, r), v);
        }
    }

    /// Row normalization yields rows summing to 1 (or flagged dangling).
    #[test]
    fn normalize_rows_invariant(n in 1usize..10, entries in triplets(9, 30)) {
        let entries: Vec<_> = entries.into_iter()
            .filter(|&(r, c, _)| r < n && c < n)
            .collect();
        let (csr, _) = build_pair(n, &entries);
        let (normalized, dangling) = csr.normalize_rows();
        let sums = normalized.row_sums();
        for (r, s) in sums.iter().enumerate() {
            if dangling.contains(&r) {
                prop_assert_eq!(*s, 0.0);
            } else {
                prop_assert!((s - 1.0).abs() < 1e-9, "row {} sums to {}", r, s);
            }
        }
    }

    /// The power method's output on a strictly positive chain is a genuine
    /// fixed point and a distribution.
    #[test]
    fn stationary_is_fixed_point(
        n in 2usize..8,
        raw in prop::collection::vec(0.05f64..1.0, 4..64),
    ) {
        prop_assume!(raw.len() >= n * n);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|r| raw[r * n..(r + 1) * n].to_vec())
            .collect();
        let mut dense = DenseMatrix::from_rows(&rows).expect("square");
        let dangling = dense.normalize_rows();
        prop_assert!(dangling.is_empty());
        let csr = dense.to_csr();
        let (pi, report) =
            stationary_distribution(&csr, &PowerOptions::default()).expect("primitive");
        prop_assert!(report.converged);
        prop_assert!(vec_ops::is_distribution(&pi, 1e-9));
        let next = csr.apply_transpose(&pi).expect("dims");
        prop_assert!(vec_ops::l1_diff(&pi, &next) < 1e-9);
    }

    /// StochasticMatrix::from_adjacency never produces invalid rows.
    #[test]
    fn stochastic_from_adjacency_valid(n in 1usize..10, entries in triplets(9, 30)) {
        let entries: Vec<_> = entries.into_iter()
            .filter(|&(r, c, _)| r < n && c < n)
            .collect();
        let (csr, _) = build_pair(n, &entries);
        let m = StochasticMatrix::from_adjacency(csr).expect("non-negative");
        let sums = m.matrix().row_sums();
        for (r, s) in sums.iter().enumerate() {
            let is_dangling = m.dangling().contains(&r);
            prop_assert!(is_dangling == (*s == 0.0));
        }
    }

    /// The pull-mode gather operator agrees with the serial scatter
    /// `apply_transpose_into` to 1e-12 (in fact bitwise) on random
    /// row-normalized matrices, at every pool size.
    #[test]
    fn pull_mode_operator_matches_serial_scatter(
        n in 1usize..24,
        entries in triplets(23, 160),
    ) {
        let entries: Vec<_> = entries.into_iter()
            .filter(|&(r, c, _)| r < n && c < n)
            .collect();
        let (csr, _) = build_pair(n, &entries);
        let (stochastic, _) = csr.normalize_rows();
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 2.0)).collect();
        let mut serial = vec![0.0; n];
        stochastic.apply_transpose_into(&x, &mut serial).expect("dims");
        for threads in [1usize, 2, 4] {
            let pool = std::sync::Arc::new(ThreadPool::new(threads));
            let op = StationaryOperator::new(&stochastic, pool).expect("square");
            let mut gathered = vec![0.0; n];
            op.apply_to(&x, &mut gathered).expect("dims");
            prop_assert!(vec_ops::linf_diff(&serial, &gathered) <= 1e-12, "{threads} threads");
            for (a, b) in serial.iter().zip(&gathered) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Parallel vec_ops reductions match their serial counterparts within
    /// accumulated rounding, and are identical across pool sizes.
    #[test]
    fn parallel_vec_ops_match_serial(
        seed in prop::collection::vec(-8.0f64..8.0, 8..64),
        scale_by in 0.25f64..4.0,
    ) {
        // Stretch the seed across several PAR_CHUNK grids so the chunked
        // code path actually splits.
        let n = 2 * vec_ops::PAR_CHUNK + 37;
        let x: Vec<f64> = (0..n).map(|i| seed[i % seed.len()] * scale_by).collect();
        let y: Vec<f64> = (0..n).map(|i| seed[(i + 3) % seed.len()]).collect();
        let serial_pool = ThreadPool::serial();
        let pool = ThreadPool::new(4);
        let l1 = vec_ops::l1_norm(&x);
        prop_assert!((vec_ops::l1_norm_par(&pool, &x) - l1).abs() <= 1e-9 * (1.0 + l1));
        let d1 = vec_ops::l1_diff(&x, &y);
        prop_assert!((vec_ops::l1_diff_par(&pool, &x, &y) - d1).abs() <= 1e-9 * (1.0 + d1));
        // Cross-pool-size bit-identity.
        prop_assert_eq!(
            vec_ops::l1_norm_par(&serial_pool, &x).to_bits(),
            vec_ops::l1_norm_par(&pool, &x).to_bits()
        );
        prop_assert_eq!(
            vec_ops::sum_par(&serial_pool, &x).to_bits(),
            vec_ops::sum_par(&pool, &x).to_bits()
        );
        // Elementwise kernels are exact.
        let mut ys = y.clone();
        let mut yp = y.clone();
        vec_ops::axpy(0.5, &x, &mut ys);
        vec_ops::axpy_par(&pool, 0.5, &x, &mut yp);
        prop_assert_eq!(&ys, &yp);
    }

    /// The pooled stationary distribution agrees with the serial one.
    #[test]
    fn pooled_stationary_matches_serial(
        n in 2usize..8,
        raw in prop::collection::vec(0.05f64..1.0, 4..64),
    ) {
        prop_assume!(raw.len() >= n * n);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|r| raw[r * n..(r + 1) * n].to_vec())
            .collect();
        let mut dense = DenseMatrix::from_rows(&rows).expect("square");
        let dangling = dense.normalize_rows();
        prop_assume!(dangling.is_empty());
        let csr = dense.to_csr();
        let (serial, _) =
            stationary_distribution(&csr, &PowerOptions::default()).expect("primitive");
        for threads in [1usize, 4] {
            let pool = std::sync::Arc::new(ThreadPool::new(threads));
            let (pooled, report) = lmm_linalg::power::stationary_distribution_pool(
                &csr,
                &PowerOptions::default(),
                pool,
            )
            .expect("primitive");
            prop_assert!(report.converged);
            prop_assert!(vec_ops::l1_diff(&serial, &pooled) < 1e-9, "{threads} threads");
        }
    }
}
