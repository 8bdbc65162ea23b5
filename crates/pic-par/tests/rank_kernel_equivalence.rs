//! Rank-path equivalence (DESIGN.md §13): the binned SIMD rank loop is a
//! drop-in replacement for the AoS reference loop.
//!
//! - **Exact tier**: bit-identical final state — same surviving ids, same
//!   position/velocity bit patterns — across distributions, rank counts,
//!   rebin intervals, SIMD backends, and both distributed implementations
//!   in this crate (static baseline and diffusion LB). Particles never
//!   interact, so binning may reorder the sweep but must not change one
//!   bit of any particle's trajectory.
//! - **Fast tier**: positional drift against the AoS loop stays within
//!   the derived analytic bound (`verify::analytic_tolerance`), the same
//!   gate the serial engine applies to its fast sweep.
//!
//! The AoS loop rehomes by testing every particle; the binned loop drains
//! only the bins of its drift-reach window (DESIGN.md §14). The drift
//! shapes below pin that window from every side: rightward and leftward
//! drift, an injection faster than the initial population, row crossers
//! at 4 ranks (a 2×2 grid, where every bin drains), and cut moves every
//! 2 steps.
//!
//! The whole file also passes with `PIC_NO_SIMD=1` (CI runs it both
//! ways): forcing scalar must change nothing for the exact tier.

use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::engine::SweepMode;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::{InitConfig, SimulationSetup};
use pic_core::simd::SimdBackend;
use pic_core::verify::analytic_tolerance;
use pic_par::baseline::run_baseline;
use pic_par::diffusion::{run_diffusion, DiffusionParams};
use pic_par::runner::{ParConfig, ParOutcome, RankKernel};
use proptest::prelude::*;

const STEPS: u32 = 30;
const N: u64 = 600;

/// A drift shape: the population's `(k, m, dir)` and the `(k, m, dir)`
/// of a mid-run injection.
#[derive(Debug, Clone, Copy)]
struct Shape {
    name: &'static str,
    k: u32,
    m: i32,
    dir: i8,
    inject: (u32, i32, i8),
}

const SHAPES: [Shape; 3] = [
    // Rightward drift (max stride 3) with row crossers.
    Shape {
        name: "right k=1 m=1",
        k: 1,
        m: 1,
        dir: 1,
        inject: (0, 1, 1),
    },
    // Leftward drift, no row motion: only x-edge bins drain.
    Shape {
        name: "left k=1",
        k: 1,
        m: 0,
        dir: -1,
        inject: (0, 0, -1),
    },
    // A slow rightward population joined by a fast leftward injection:
    // the window's left reach comes from the injection alone.
    Shape {
        name: "fast injection",
        k: 0,
        m: 0,
        dir: 1,
        inject: (3, 0, -1),
    },
];

/// A setup that exercises every rank-loop phase: drift, cross-cut
/// exchange, and the event path (injection and removal mid-run).
fn setup(dist: Distribution, shape: Shape) -> SimulationSetup {
    let (k, m, dir) = shape.inject;
    InitConfig::new(Grid::new(32).unwrap(), N, dist)
        .with_k(shape.k)
        .with_m(shape.m)
        .with_dir(shape.dir)
        .build()
        .unwrap()
        .with_event(Event::inject(
            7,
            Region {
                x0: 2,
                x1: 12,
                y0: 2,
                y1: 12,
            },
            40,
            k,
            m,
            dir,
        ))
        .with_event(Event::remove(15, Region::whole(32), 25))
}

fn distributions() -> Vec<Distribution> {
    vec![
        Distribution::Uniform,
        Distribution::Geometric { r: 0.9 },
        Distribution::Sinusoidal,
        Distribution::Linear {
            alpha: 2.0,
            beta: 3.0,
        },
    ]
}

/// Sorted (id, x-bits, y-bits, vx-bits, vy-bits) across all ranks.
fn bit_finals(outcomes: &[ParOutcome]) -> Vec<(u64, u64, u64, u64, u64)> {
    let mut v: Vec<_> = outcomes
        .iter()
        .flat_map(|o| o.local_particles.iter())
        .map(|p| {
            (
                p.id,
                p.x.to_bits(),
                p.y.to_bits(),
                p.vx.to_bits(),
                p.vy.to_bits(),
            )
        })
        .collect();
    v.sort_by_key(|t| t.0);
    v
}

/// Run `setup` on `ranks` ranks: the static baseline when `lb_interval`
/// is `None`, else the diffusion balancer moving cuts every
/// `lb_interval` steps.
fn run_setup(
    setup: &SimulationSetup,
    ranks: usize,
    lb_interval: Option<u32>,
    kernel: RankKernel,
) -> Vec<ParOutcome> {
    let cfg = ParConfig::new(setup.clone(), STEPS).with_kernel(kernel);
    run_threads(ranks, |comm| {
        let o = if let Some(interval) = lb_interval {
            run_diffusion(
                &comm,
                &cfg,
                DiffusionParams {
                    interval,
                    tau: 0,
                    border_w: 3,
                },
            )
        } else {
            run_baseline(&comm, &cfg)
        };
        assert!(o.verify.passed(), "{:?}", o.verify);
        o
    })
}

fn run_impl(
    dist: Distribution,
    ranks: usize,
    diffusion: bool,
    kernel: RankKernel,
) -> Vec<ParOutcome> {
    run_setup(
        &setup(dist, SHAPES[0]),
        ranks,
        diffusion.then_some(3),
        kernel,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole contract: Binned/Exact ≡ AoS, bit for bit, across the
    /// sampled cross product of distribution × drift shape × rank count ×
    /// rebin interval × implementation (static, or cuts moving every 2
    /// or 3 steps).
    #[test]
    fn binned_exact_bitwise_matches_aos_rank_loop(
        dist_i in 0usize..4,
        shape_i in 0usize..3,
        ranks in prop::sample::select(vec![1usize, 2, 4]),
        rebin in prop::sample::select(vec![1u32, 3, 16]),
        lb_interval in prop::sample::select(vec![None, Some(2u32), Some(3)]),
    ) {
        let (dist, shape) = (distributions()[dist_i], SHAPES[shape_i]);
        let s = setup(dist, shape);
        let aos = bit_finals(&run_setup(&s, ranks, lb_interval, RankKernel::aos()));
        let kernel = RankKernel::default().with_rebin_interval(rebin);
        let binned = bit_finals(&run_setup(&s, ranks, lb_interval, kernel));
        prop_assert_eq!(
            &aos, &binned,
            "dist {:?}, {}, {} ranks, rebin {}, lb {:?}",
            dist, shape.name, ranks, rebin, lb_interval
        );
    }
}

/// Every SIMD backend the host offers produces the same bits as the AoS
/// loop on the exact tier — the lane width is an implementation detail.
#[test]
fn binned_exact_bitwise_identical_across_backends() {
    let dist = Distribution::Geometric { r: 0.9 };
    let aos = bit_finals(&run_impl(dist, 4, true, RankKernel::aos()));
    for backend in SimdBackend::available() {
        let kernel = RankKernel::default().with_backend(backend);
        let got = bit_finals(&run_impl(dist, 4, true, kernel));
        assert_eq!(aos, got, "backend {}", backend.name());
    }
}

/// Every drift shape on every rank count and rebin interval, static and
/// with cuts moving every 2 steps: the drain window must never miss a
/// leaver. At 4 ranks (a 2×2 grid) the `m = 1` shape crosses rows, so
/// every bin drains; the other shapes drain x-edge bins only.
#[test]
fn drift_shapes_match_aos_bitwise() {
    let dist = Distribution::Geometric { r: 0.85 };
    for shape in SHAPES {
        let s = setup(dist, shape);
        for ranks in [1usize, 2, 4] {
            for lb_interval in [None, Some(2)] {
                let aos = bit_finals(&run_setup(&s, ranks, lb_interval, RankKernel::aos()));
                for rebin in [1u32, 3, 16] {
                    let kernel = RankKernel::default().with_rebin_interval(rebin);
                    let got = bit_finals(&run_setup(&s, ranks, lb_interval, kernel));
                    assert_eq!(
                        aos, got,
                        "{}, {ranks} ranks, lb {lb_interval:?}, rebin {rebin}",
                        shape.name
                    );
                }
            }
        }
    }
}

/// Fast-tier drift against the AoS reference stays within the analytic
/// gate, on both implementations and at the extreme rebin intervals. The
/// id sets must still agree exactly — only float trajectories may drift.
#[test]
fn fast_tier_drift_within_analytic_tolerance() {
    // k=1, m=1 ⇒ max stride max(2k+1, |m|) = 3 (same formula the serial
    // engine's `verify_analytic` uses).
    let tol = analytic_tolerance(STEPS as u64, 3);
    let dist = Distribution::Sinusoidal;
    for diffusion in [false, true] {
        let aos = bit_finals(&run_impl(dist, 4, diffusion, RankKernel::aos()));
        for rebin in [1u32, 16] {
            let kernel =
                RankKernel::from_sweep(SweepMode::SoaBinnedFast).with_rebin_interval(rebin);
            let fast = bit_finals(&run_impl(dist, 4, diffusion, kernel));
            assert_eq!(fast.len(), aos.len(), "population diverged");
            for (a, f) in aos.iter().zip(&fast) {
                assert_eq!(a.0, f.0, "id sets diverged");
                let dx = (f64::from_bits(a.1) - f64::from_bits(f.1)).abs();
                let dy = (f64::from_bits(a.2) - f64::from_bits(f.2)).abs();
                assert!(
                    dx <= tol && dy <= tol,
                    "id {}: fast-tier drift ({dx:e}, {dy:e}) exceeds analytic \
                     tolerance {tol:e} (diffusion={diffusion}, rebin={rebin})",
                    a.0
                );
            }
        }
    }
}
