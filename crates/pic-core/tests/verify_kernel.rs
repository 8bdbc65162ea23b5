//! Report identity of the in-place verification kernel.
//!
//! `VerifyReport::check_batch` / `check_particles` read a store's columns in
//! whatever order the store keeps them and reduce the integer-cell
//! arithmetic mod `n` before widening. `verify_all` over the id-sorted
//! materialization is the per-particle reference (i128 arithmetic,
//! canonical order). Every field of the two reports must agree — checked,
//! failures, max error, the 16 smallest failing ids, checksum — across
//! distributions, events, strides, step counts and corruptions.

use pic_core::bin::BinnedStore;
use pic_core::dist::Distribution;
use pic_core::engine::{Simulation, SweepMode};
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_core::particle::Particle;
use pic_core::soa::ParticleBatch;
use pic_core::verify::{
    analytic_tolerance, expected_position, verify_all, VerifyReport, DEFAULT_TOLERANCE,
    MAX_FAILING_IDS,
};
use proptest::prelude::*;

/// The reference: `verify_all` over the population sorted by id.
fn reference(grid: &Grid, ps: &[Particle], step: u32, expected: u128, tol: f64) -> VerifyReport {
    let mut sorted = ps.to_vec();
    sorted.sort_by_key(|p| p.id);
    verify_all(grid, &sorted, step, expected, tol)
}

/// The kernel over the batch in storage order, and over the same
/// particles as an AoS slice.
fn in_place(grid: &Grid, b: &ParticleBatch, step: u32, expected: u128, tol: f64) -> VerifyReport {
    let mut soa = VerifyReport::new(expected, tol);
    soa.check_batch(grid, b, step);
    let mut aos = VerifyReport::new(expected, tol);
    aos.check_particles(grid, &b.to_particles(), step);
    assert_eq!(soa, aos, "SoA and AoS drivers disagree");
    soa
}

/// Field-exact report equality; `max_error` by bits so a NaN or a signed
/// zero cannot hide.
fn assert_same(got: &VerifyReport, want: &VerifyReport, label: &str) {
    assert_eq!(
        got.max_error.to_bits(),
        want.max_error.to_bits(),
        "{label}: max_error"
    );
    assert_eq!(got, want, "{label}");
}

fn distribution(which: usize, r: f64) -> Distribution {
    match which {
        0 => Distribution::Uniform,
        1 => Distribution::Geometric { r },
        2 => Distribution::Sinusoidal,
        3 => Distribution::Linear {
            alpha: 1.0,
            beta: 2.0,
        },
        _ => Distribution::Patch {
            x0: 4,
            x1: 16,
            y0: 4,
            y1: 16,
        },
    }
}

/// Deterministic LCG stream for picking corruption targets.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After a run with an injection (`born_at > 0`) and a removal, every
    /// sweep mode's `verify`/`verify_analytic` equals the reference over
    /// its id-sorted particles; then corrupting up to 40 particles of the
    /// bin-ordered batch (some to NaN) keeps the kernel equal to the
    /// reference, including which 16 failing ids it keeps.
    #[test]
    fn kernel_report_matches_sorted_reference(
        which in 0usize..5,
        n in 50u64..300,
        k in 0u32..3,
        m in -3i32..4,
        steps in 10u32..50,
        inject_n in 1u64..60,
        remove_n in 1u64..60,
        r in 0.8f64..1.2,
        corrupt in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let grid = Grid::new(32).unwrap();
        let setup = InitConfig::new(grid, n, distribution(which, r))
            .with_k(k)
            .with_m(m)
            .build()
            .unwrap()
            .with_event(Event::inject(3, Region { x0: 0, x1: 16, y0: 0, y1: 16 }, inject_n, 1, -2, -1))
            .with_event(Event::remove(7, Region::whole(32), remove_n));
        for mode in [SweepMode::Serial, SweepMode::Soa, SweepMode::SoaBinned, SweepMode::SoaBinnedFast] {
            let mut sim = Simulation::with_mode(setup.clone(), mode).with_rebin_interval(3);
            sim.run(steps);
            let ps = sim.particles();
            let expected = sim.expected_id_sum();
            let want = reference(&grid, &ps, steps, expected, DEFAULT_TOLERANCE);
            assert_same(&sim.verify_with_tolerance(DEFAULT_TOLERANCE), &want, "exact tolerance");
            let stride = ps.iter().map(|p| (2 * p.k as u64 + 1).max(p.m.unsigned_abs() as u64)).max().unwrap_or(1);
            let tol = analytic_tolerance(steps as u64, stride);
            assert_same(&sim.verify_analytic(), &reference(&grid, &ps, steps, expected, tol), "analytic");
            prop_assert!(sim.verify().passed());
        }

        let mut sim = Simulation::with_mode(setup, SweepMode::SoaBinned).with_rebin_interval(3);
        sim.run(steps);
        let expected = sim.expected_id_sum();
        let mut batch = sim.batch().unwrap().clone();
        let mut state = seed;
        for c in 0..corrupt.min(batch.len()) {
            let i = lcg(&mut state) as usize % batch.len();
            match c % 4 {
                0 => batch.x[i] = grid.wrap_coord(batch.x[i] + 1.0),
                1 => batch.y[i] = grid.wrap_coord(batch.y[i] + 0.25),
                2 => batch.x[i] = f64::NAN,
                _ => batch.y[i] = f64::NAN,
            }
        }
        let got = in_place(&grid, &batch, steps, expected, DEFAULT_TOLERANCE);
        let want = reference(&grid, &batch.to_particles(), steps, expected, DEFAULT_TOLERANCE);
        assert_same(&got, &want, "corrupted");
    }

    /// Extreme strides and step counts (`k = u32::MAX`, `m = i32::MIN`,
    /// `steps = u32::MAX`) push the displacement past i64 and into the
    /// i128 fallback; the reduced-operand cells must still equal the
    /// reference formula, so on-trajectory particles pass and off-by-a-cell
    /// ones fail identically.
    #[test]
    fn extreme_strides_and_steps_match_reference(
        half in 1usize..3_000,
        count in 1usize..40,
        k in prop::sample::select(vec![0u32, 1, 7, u32::MAX / 2, u32::MAX - 1, u32::MAX]),
        m in prop::sample::select(vec![i32::MIN, i32::MIN + 1, -5, 0, 3, i32::MAX]),
        final_step in prop::sample::select(vec![0u32, 1, 2, 1_000_003, u32::MAX - 1, u32::MAX]),
        seed in 0u64..1_000_000,
    ) {
        let grid = Grid::new(half * 2).unwrap();
        let ncells = grid.ncells() as u64;
        let mut state = seed;
        let mut ps = Vec::with_capacity(count);
        for i in 0..count {
            let (x0, y0) = grid.cell_center(
                (lcg(&mut state) % ncells) as usize,
                (lcg(&mut state) % ncells) as usize,
            );
            let mut p = Particle {
                // Ids in a scrambled order, as a binned store holds them.
                id: (i as u64 * 7919) % 10_007 + 1,
                x: x0,
                y: y0,
                vx: 0.0,
                vy: 0.0,
                q: if lcg(&mut state).is_multiple_of(2) { 1.0 } else { -1.0 },
                x0,
                y0,
                k,
                m,
                born_at: match lcg(&mut state) % 3 {
                    0 => 0,
                    1 => (lcg(&mut state) as u32).min(final_step),
                    // Born after the final step: participates in 0 steps.
                    _ => final_step.saturating_add(1),
                },
            };
            let steps = final_step.saturating_sub(p.born_at) as u64;
            let (ex, ey) = expected_position(&grid, &p, steps);
            p.x = ex;
            p.y = ey;
            if lcg(&mut state).is_multiple_of(3) {
                p.x = grid.wrap_coord(ex + 1.0);
            }
            ps.push(p);
        }
        let expected = ps.iter().map(|p| p.id as u128).sum();
        let batch = ParticleBatch::from_particles(&ps);
        let got = in_place(&grid, &batch, final_step, expected, DEFAULT_TOLERANCE);
        let want = reference(&grid, &ps, final_step, expected, DEFAULT_TOLERANCE);
        assert_same(&got, &want, "extreme");
    }
}

/// More than 16 failures held in descending id order: the kernel keeps the
/// 16 smallest failing ids, ascending — exactly what the reference reads
/// off the sorted population.
#[test]
fn keeps_the_sixteen_smallest_failing_ids() {
    let grid = Grid::new(32).unwrap();
    let mut setup = InitConfig::new(grid, 500, Distribution::Uniform)
        .with_m(1)
        .build()
        .unwrap();
    setup.particles.reverse();
    let expected = setup.initial_id_sum();
    let mut batch = ParticleBatch::from_particles(&setup.particles);
    // Corrupt every 11th particle: 46 failures, largest ids first.
    let mut failing: Vec<u64> = Vec::new();
    for i in (0..batch.len()).step_by(11) {
        batch.x[i] = grid.wrap_coord(batch.x[i] + 2.0);
        failing.push(batch.id[i]);
    }
    failing.sort_unstable();
    let got = in_place(&grid, &batch, 0, expected, DEFAULT_TOLERANCE);
    assert_eq!(got.position_failures, failing.len() as u64);
    assert_eq!(got.failing_ids, failing[..MAX_FAILING_IDS]);
    assert_same(
        &got,
        &reference(&grid, &batch.to_particles(), 0, expected, DEFAULT_TOLERANCE),
        "descending",
    );

    // Merging per-subset reports keeps the same rule.
    let (a, b) = setup.particles.split_at(250);
    let half = |ps: &[Particle]| {
        let mut ps = ps.to_vec();
        for p in ps.iter_mut().filter(|p| failing.contains(&p.id)) {
            p.x = grid.wrap_coord(p.x + 2.0);
        }
        let mut r = VerifyReport::new(0, DEFAULT_TOLERANCE);
        r.check_particles(&grid, &ps, 0);
        r
    };
    let mut merged = half(b).merge(&half(a));
    merged.expected_id_sum = expected;
    assert_same(&merged, &got, "merged halves");
}

/// A NaN coordinate on either axis is an error of `+∞`: the particle
/// fails and `max_error` is `∞`, in the kernel and the reference alike.
#[test]
fn nan_positions_fail_verification() {
    let grid = Grid::new(16).unwrap();
    let mut ps = InitConfig::new(grid, 40, Distribution::Uniform)
        .build()
        .unwrap()
        .particles;
    ps[3].x = f64::NAN;
    ps[9].y = f64::NAN;
    ps[17].x = f64::NAN;
    ps[17].y = f64::NAN;
    ps[21].y = grid.wrap_coord(ps[21].y + 0.5);
    let nan_ids = [ps[3].id, ps[9].id, ps[17].id];
    ps.reverse();
    let expected = ps.iter().map(|p| p.id as u128).sum();
    let batch = ParticleBatch::from_particles(&ps);
    let got = in_place(&grid, &batch, 0, expected, DEFAULT_TOLERANCE);
    let want = reference(&grid, &ps, 0, expected, DEFAULT_TOLERANCE);
    assert_same(&got, &want, "nan");
    for (label, r) in [("kernel", &got), ("reference", &want)] {
        assert!(!r.passed(), "{label}: a NaN position must FAIL");
        assert_eq!(r.max_error, f64::INFINITY, "{label}");
        assert_eq!(r.position_failures, 4, "{label}");
        for id in nan_ids {
            assert!(r.failing_ids.contains(&id), "{label}: id {id} not failing");
        }
    }
}

#[test]
fn empty_store_reports_like_the_reference() {
    let grid = Grid::new(8).unwrap();
    let store = BinnedStore::new(&[], &grid, 16);
    let got = in_place(&grid, store.batch(), 12, 0, DEFAULT_TOLERANCE);
    assert_same(
        &got,
        &reference(&grid, &[], 12, 0, DEFAULT_TOLERANCE),
        "empty",
    );
    assert!(got.passed());
    assert_eq!(got.checked, 0);
}
