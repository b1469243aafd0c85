//! Per-phase microbenchmark for the blocked Floyd–Warshall tile
//! kernels: where does the wall-clock actually go?

use rph_workloads::kernels::TILE;
use std::time::Instant;

fn main() {
    let n = 256usize;
    let mut d: Vec<f64> = (0..n * n)
        .map(|i| {
            if i % 17 == 0 {
                f64::INFINITY
            } else {
                ((i % 29) + 1) as f64
            }
        })
        .collect();
    for i in 0..n {
        d[i * n + i] = 0.0;
    }

    // The tier modules only exist under the `simd` feature — the
    // forced-scalar (`--no-default-features`) build must still compile
    // this example, it just skips straight to the scalar probe.
    #[cfg(all(target_arch = "x86_64", feature = "simd"))]
    {
        use rph_workloads::simd::{avx2, avx512};
        let reps = 2000;
        let ops = (TILE * TILE * TILE) as f64; // relaxations per tile call
        if std::arch::is_x86_feature_detected!("avx512f") {
            let mut scratch = Vec::with_capacity(TILE);
            let t = Instant::now();
            for _ in 0..reps {
                unsafe {
                    avx512::min_plus_tile_disjoint(&mut d, n, (0, TILE), (TILE, TILE), (64, TILE));
                }
            }
            let dt = t.elapsed().as_secs_f64() / reps as f64;
            println!(
                "avx512 disjoint: {:8.1} ns/tile  ({:.1} Gop/s)",
                dt * 1e9,
                ops / dt / 1e9
            );
            let t = Instant::now();
            for _ in 0..reps {
                unsafe {
                    avx512::min_plus_tile_general(
                        &mut d,
                        n,
                        (0, TILE),
                        (TILE, TILE),
                        (64, TILE),
                        &mut scratch,
                    );
                }
            }
            let dt = t.elapsed().as_secs_f64() / reps as f64;
            println!(
                "avx512 general:  {:8.1} ns/tile  ({:.1} Gop/s)",
                dt * 1e9,
                ops / dt / 1e9
            );
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut scratch = Vec::with_capacity(TILE);
            let t = Instant::now();
            for _ in 0..reps {
                unsafe {
                    avx2::min_plus_tile_disjoint(&mut d, n, (0, TILE), (TILE, TILE), (64, TILE));
                }
            }
            let dt = t.elapsed().as_secs_f64() / reps as f64;
            println!(
                "avx2 disjoint:   {:8.1} ns/tile  ({:.1} Gop/s)",
                dt * 1e9,
                ops / dt / 1e9
            );
            let t = Instant::now();
            for _ in 0..reps {
                unsafe {
                    avx2::min_plus_tile_general(
                        &mut d,
                        n,
                        (0, TILE),
                        (TILE, TILE),
                        (64, TILE),
                        &mut scratch,
                    );
                }
            }
            let dt = t.elapsed().as_secs_f64() / reps as f64;
            println!(
                "avx2 general:    {:8.1} ns/tile  ({:.1} Gop/s)",
                dt * 1e9,
                ops / dt / 1e9
            );
        }
    }

    // Scalar tile via the scalar blocked driver on a TILE-sized
    // problem is awkward to isolate; approximate with full runs.
    let mk = || {
        let mut d: Vec<f64> = (0..n * n)
            .map(|i| {
                if i % 17 == 0 {
                    f64::INFINITY
                } else {
                    ((i % 29) + 1) as f64
                }
            })
            .collect();
        for i in 0..n {
            d[i * n + i] = 0.0;
        }
        d
    };
    let runs = 5;
    let t = Instant::now();
    for _ in 0..runs {
        let mut d = mk();
        rph_workloads::kernels::floyd_warshall_blocked_scalar(&mut d, n);
        std::hint::black_box(&d);
    }
    println!(
        "scalar FW total: {:8.3} ms",
        t.elapsed().as_secs_f64() / runs as f64 * 1e3
    );
    let t = Instant::now();
    for _ in 0..runs {
        let mut d = mk();
        rph_workloads::kernels::floyd_warshall_blocked(&mut d, n);
        std::hint::black_box(&d);
    }
    println!(
        "simd   FW total: {:8.3} ms",
        t.elapsed().as_secs_f64() / runs as f64 * 1e3
    );
    let per_kb = n / TILE;
    let total_tiles = per_kb * per_kb * per_kb;
    println!("tiles per full run: {total_tiles} (each {TILE}^3 relaxations)");
}
