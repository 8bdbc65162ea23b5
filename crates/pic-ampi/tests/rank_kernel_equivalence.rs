//! Rank-path equivalence for the AMPI-style runtime (DESIGN.md §13):
//! the VP-local binned stores the VP scheduler advances must be
//! physics-identical to the AoS reference loop, whatever the balancer
//! does to VP placement. Exact tier ⇒ bit-identical; fast tier ⇒ within
//! the derived analytic drift bound. Also passes under `PIC_NO_SIMD=1`.

mod common;

use pic_ampi::balancer::Balancer;
use pic_ampi::model::AmpiParams;
use pic_ampi::runtime::{run_ampi, run_ampi_traced};
use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::engine::SweepMode;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_core::verify::analytic_tolerance;
use pic_par::runner::{ParConfig, ParOutcome, RankKernel};
use pic_trace::{Counter, TraceReport, Tracer};

const STEPS: u32 = 30;

fn cfg(kernel: RankKernel) -> ParConfig {
    let setup = InitConfig::new(
        Grid::new(32).unwrap(),
        600,
        Distribution::Geometric { r: 0.9 },
    )
    .with_k(1)
    .with_m(1)
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
        0,
        1,
        1,
    ))
    .with_event(Event::remove(15, Region::whole(32), 25));
    ParConfig::new(setup, STEPS).with_kernel(kernel)
}

fn run(kernel: RankKernel, ranks: usize, balancer: Balancer) -> Vec<ParOutcome> {
    let cfg = cfg(kernel);
    run_threads(ranks, |comm| {
        let o = run_ampi(
            &comm,
            &cfg,
            &AmpiParams {
                d: 4,
                interval: 6,
                balancer,
            },
        );
        assert!(o.verify.passed(), "{balancer:?}: {:?}", o.verify);
        o
    })
}

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

#[test]
fn ampi_binned_exact_bitwise_matches_aos() {
    for ranks in [1usize, 2, 4] {
        let aos = bit_finals(&run(RankKernel::aos(), ranks, Balancer::paper_default()));
        for rebin in [1u32, 3, 16] {
            let kernel = RankKernel::default().with_rebin_interval(rebin);
            let got = bit_finals(&run(kernel, ranks, Balancer::paper_default()));
            assert_eq!(aos, got, "{ranks} ranks, rebin {rebin}");
        }
    }
}

#[test]
fn ampi_binned_exact_bitwise_matches_aos_across_balancers() {
    for balancer in [Balancer::Greedy, Balancer::None] {
        let aos = bit_finals(&run(RankKernel::aos(), 4, balancer));
        let got = bit_finals(&run(RankKernel::default(), 4, balancer));
        assert_eq!(aos, got, "{balancer:?}");
    }
}

#[test]
fn ampi_fast_tier_drift_within_analytic_tolerance() {
    // k=1, m=1 ⇒ max stride 3, matching the serial engine's
    // `verify_analytic` stride formula.
    let tol = analytic_tolerance(STEPS as u64, 3);
    let aos = bit_finals(&run(RankKernel::aos(), 4, Balancer::paper_default()));
    let kernel = RankKernel::from_sweep(SweepMode::SoaBinnedFast);
    let fast = bit_finals(&run(kernel, 4, Balancer::paper_default()));
    assert_eq!(fast.len(), aos.len(), "population diverged");
    for (a, f) in aos.iter().zip(&fast) {
        assert_eq!(a.0, f.0, "id sets diverged");
        let dx = (f64::from_bits(a.1) - f64::from_bits(f.1)).abs();
        let dy = (f64::from_bits(a.2) - f64::from_bits(f.2)).abs();
        assert!(
            dx <= tol && dy <= tol,
            "id {}: fast-tier drift ({dx:e}, {dy:e}) exceeds {tol:e}",
            a.0
        );
    }
}

/// Traced AMPI run of `cfg` on `ranks` cores with LB rounds every
/// `interval` steps, every rank tracing every step.
fn run_traced(
    cfg: &ParConfig,
    ranks: usize,
    d: usize,
    interval: u32,
    balancer: Balancer,
) -> Vec<(ParOutcome, TraceReport)> {
    let params = AmpiParams {
        d,
        interval,
        balancer,
    };
    run_threads(ranks, |comm| {
        let mut t = Tracer::in_memory(1);
        let o = run_ampi_traced(&comm, cfg, &params, &mut t);
        assert!(o.verify.passed(), "{:?}", o.verify);
        (o, t.finish().expect("tracing enabled"))
    })
}

/// Bitwise particle state plus every rank-visible record: VP decisions,
/// loads, and the per-step counters (migrations, messages, collective
/// bytes). Left out are the overlap clock, a wall-time reading, and the
/// rebin count, which only a binned store has.
fn assert_same_run(label: &str, a: &[(ParOutcome, TraceReport)], b: &[(ParOutcome, TraceReport)]) {
    let outcomes =
        |r: &[(ParOutcome, TraceReport)]| r.iter().map(|x| x.0.clone()).collect::<Vec<_>>();
    assert_eq!(
        bit_finals(&outcomes(a)),
        bit_finals(&outcomes(b)),
        "{label}: particle bits"
    );
    for (rank, ((oa, ta), (ob, tb))) in a.iter().zip(b).enumerate() {
        assert_eq!(oa.local_count, ob.local_count, "{label} rank {rank}");
        assert_eq!(ta.cuts, tb.cuts, "{label} rank {rank}: VP decisions");
        assert_eq!(ta.steps.len(), tb.steps.len(), "{label} rank {rank}");
        for (sa, sb) in ta.steps.iter().zip(&tb.steps) {
            assert_eq!(sa.loads, sb.loads, "{label} rank {rank} step {}", sa.step);
            let mut ca = sa.counters;
            let mut cb = sb.counters;
            for c in [Counter::OverlapNs, Counter::Rebins] {
                ca[c.idx()] = 0;
                cb[c.idx()] = 0;
            }
            assert_eq!(ca, cb, "{label} rank {rank} step {} counters", sa.step);
        }
    }
}

#[test]
fn vp_stores_bitwise_match_aos_with_counters_across_shapes() {
    // Benchmark-shaped drift, leftward leavers in the first bins, row
    // crossers through VP y-edges, a fast injection, and events on
    // migrating VPs — over d × ranks × rebin × LB interval (VPs may move
    // every 2 steps). Both kernels run the same exchange, so the message
    // counters must agree too.
    for (shape, setup) in common::scenarios() {
        for d in [1usize, 2, 4, 8] {
            for ranks in [1usize, 2, 3, 4] {
                for interval in [2, common::INTERVAL] {
                    let cfg = ParConfig::new(setup.clone(), common::STEPS);
                    let aos = run_traced(
                        &cfg.clone().with_kernel(RankKernel::aos()),
                        ranks,
                        d,
                        interval,
                        Balancer::paper_default(),
                    );
                    for rebin in [1u32, 3, 16] {
                        let kernel = RankKernel::default().with_rebin_interval(rebin);
                        let got = run_traced(
                            &cfg.clone().with_kernel(kernel),
                            ranks,
                            d,
                            interval,
                            Balancer::paper_default(),
                        );
                        let label =
                            format!("{shape}, d={d}, {ranks} ranks, rebin {rebin}, F={interval}");
                        assert_same_run(&label, &aos, &got);
                    }
                }
            }
        }
    }
}
