//! Property tests at the workload level: for random problem sizes,
//! granularities, capability counts, seeds and scheduling policies,
//! the parallel runs agree with the plain-Rust oracles.

use proptest::prelude::*;
use rph_eden::EdenConfig;
use rph_gph::{BlackHoling, GphConfig, SparkExec, SparkPolicy};
use rph_workloads::apsp::BIG;
use rph_workloads::kernels::{
    self, block_mul_acc, block_mul_acc_naive, floyd_warshall, floyd_warshall_blocked,
    matmul_oracle, matmul_tiled_into, min_plus_relax, TILE,
};
use rph_workloads::{Apsp, MatMul, NQueens, SumEuler};

/// Small-integer matrix: every product and partial sum is exactly
/// representable in f64, so tiled and untiled kernels must agree
/// bit-for-bit, not just approximately.
fn int_matrix(n: usize, mul: u64, modulus: u64, offset: f64) -> Vec<f64> {
    (0..n * n)
        .map(|i| ((i as u64).wrapping_mul(mul) % modulus) as f64 - offset)
        .collect()
}

/// The sizes where blocked kernels historically break: degenerate
/// (1, 2), straddling the tile edge (T−1, T, T+1), straddling the
/// micro-kernel footprint, and a multi-tile non-divisible size.
fn edge_sizes() -> Vec<usize> {
    vec![1, 2, 3, 5, TILE - 1, TILE, TILE + 1, 2 * TILE + 5]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sum_euler_any_config_matches_oracle(
        n in 20i64..150,
        chunk in 1i64..40,
        caps in 1usize..6,
        seed in 0u64..1000,
        steal in any::<bool>(),
        eager in any::<bool>(),
        spark_thread in any::<bool>(),
        big_area in any::<bool>(),
    ) {
        let w = SumEuler::new(n).with_chunk_size(chunk);
        let mut cfg = GphConfig::ghc69_plain(caps).without_trace().with_seed(seed);
        cfg.spark_policy = if steal { SparkPolicy::Steal } else { SparkPolicy::Push };
        cfg.black_holing = if eager { BlackHoling::Eager } else { BlackHoling::Lazy };
        cfg.spark_exec = if spark_thread { SparkExec::SparkThread } else { SparkExec::ThreadPerSpark };
        if big_area {
            cfg = cfg.with_big_alloc_area();
        }
        let m = w.run_gph(cfg).unwrap();
        prop_assert_eq!(m.value, w.expected());

        let e = w.run_eden(EdenConfig::new(caps).without_trace().with_seed(seed)).unwrap();
        prop_assert_eq!(e.value, w.expected());
    }

    #[test]
    fn matmul_any_grid_matches_oracle(
        base in 1usize..6,
        grid in 1usize..4,
        caps in 1usize..5,
        oversub in any::<bool>(),
    ) {
        let n = grid * base * 4; // always divisible by the grid
        let w = MatMul::new(n, grid);
        let m = w
            .run_gph(GphConfig::ghc69_plain(caps).with_work_stealing().without_trace())
            .unwrap();
        prop_assert_eq!(m.value, w.expected());
        let pes = if oversub { grid * grid + 1 } else { (grid * grid).max(caps) };
        let e = w
            .run_eden(EdenConfig::oversubscribed(pes, caps).without_trace())
            .unwrap();
        prop_assert_eq!(e.value, w.expected());
    }

    #[test]
    fn apsp_any_size_matches_oracle(
        n in 6usize..36,
        pes in 1usize..5,
        density in 100u64..900,
        seed in 0u64..100,
        eager in any::<bool>(),
    ) {
        let mut w = Apsp::new(n);
        w.density_millis = density;
        w.seed = seed;
        let mut cfg = GphConfig::ghc69_plain(pes).with_work_stealing().without_trace();
        if eager {
            cfg = cfg.with_eager_blackholing();
        }
        let m = w.run_gph(cfg).unwrap();
        prop_assert_eq!(m.value, w.expected());
        let e = w.run_eden(EdenConfig::new(pes).without_trace()).unwrap();
        prop_assert_eq!(e.value, w.expected());
    }

    #[test]
    fn tiled_matmul_matches_oracles_at_any_size(
        n in 1usize..80,
        amul in 1u64..100,
        bmul in 1u64..100,
        modulus in 2u64..12,
        accumulate in any::<bool>(),
    ) {
        let a = int_matrix(n, amul, modulus, 0.0);
        let b = int_matrix(n, bmul, modulus, (modulus / 2) as f64);
        let acc = if accumulate {
            int_matrix(n, amul.wrapping_add(bmul), modulus, 1.0)
        } else {
            vec![0.0; n * n]
        };
        let (tiled, cost) = block_mul_acc(&acc, &a, &b, n);
        let (naive, cost_naive) = block_mul_acc_naive(&acc, &a, &b, n);
        prop_assert_eq!(&tiled, &naive, "n={}", n);
        prop_assert_eq!(cost, cost_naive);
        if !accumulate {
            prop_assert_eq!(&tiled, &matmul_oracle(&a, &b, n), "n={}", n);
        }
    }

    #[test]
    fn blocked_floyd_warshall_matches_plain_at_any_size(
        n in 1usize..70,
        density in 100u64..900,
        seed in 0u64..100,
    ) {
        let mut w = Apsp::new(n.max(1));
        w.density_millis = density;
        w.seed = seed;
        let mut plain = w.input_flat();
        let mut blocked = plain.clone();
        floyd_warshall(&mut plain, w.n);
        floyd_warshall_blocked(&mut blocked, w.n);
        prop_assert_eq!(plain, blocked, "n={}", n);
    }

    #[test]
    fn in_place_relaxation_waves_match_floyd_warshall(
        n in 1usize..70,
        density in 100u64..900,
        seed in 0u64..100,
    ) {
        let mut w = Apsp::new(n);
        w.density_millis = density;
        w.seed = seed;
        // Unreachable pairs as true infinities, not the BIG surrogate.
        let mut flat: Vec<f64> = (w.input_flat().into_iter())
            .map(|d| if d == BIG { f64::INFINITY } else { d })
            .collect();
        let mut rows: Vec<Vec<f64>> = flat.chunks_exact(n).map(|r| r.to_vec()).collect();
        for k in 0..n {
            let pivot = rows[k].clone();
            for (i, row) in rows.iter_mut().enumerate() {
                if i != k {
                    let cost = min_plus_relax(row, &pivot, k);
                    prop_assert_eq!(cost, n as u64 * kernels::C_MINPLUS);
                }
            }
        }
        floyd_warshall(&mut flat, n);
        prop_assert_eq!(rows.concat(), flat, "n={}", n);
    }

    #[test]
    fn nqueens_any_depth_matches_oracle(
        n in 5usize..8,
        depth in 1usize..4,
        pes in 2usize..5,
        prefetch in 1usize..4,
    ) {
        let w = NQueens::new(n).with_spawn_depth(depth);
        let m = w
            .run_eden_master_worker(EdenConfig::new(pes).without_trace(), prefetch)
            .unwrap();
        prop_assert_eq!(m.value, w.expected());
        let g = w
            .run_gph(GphConfig::ghc69_plain(pes).with_work_stealing().without_trace())
            .unwrap();
        prop_assert_eq!(g.value, w.expected());
    }
}

/// The proptest sweeps hit the tile-edge sizes only probabilistically;
/// these runs pin them deterministically — every size where the
/// micro-kernel/edge-loop split or the tile extent arithmetic could
/// go wrong.
#[test]
fn tiled_kernels_match_oracles_at_tile_edge_sizes() {
    for n in edge_sizes() {
        let a = int_matrix(n, 7, 10, 0.0);
        let b = int_matrix(n, 13, 10, 4.0);
        let mut tiled = vec![0.0; n * n];
        matmul_tiled_into(&mut tiled, &a, &b, n);
        assert_eq!(tiled, matmul_oracle(&a, &b, n), "matmul n={n}");

        let w = Apsp::new(n);
        let mut plain = w.input_flat();
        let mut blocked = plain.clone();
        kernels::floyd_warshall(&mut plain, n);
        kernels::floyd_warshall_blocked(&mut blocked, n);
        assert_eq!(plain, blocked, "apsp n={n}");
    }
}
