//! Self-verification (paper §III-D).
//!
//! Because every particle moves exactly `±(2k+1)` cells in x and `m` cells
//! in y per step, its final position after `s` steps is known in closed form
//! (paper eqs. 5–6):
//!
//! ```text
//! x_s = (x_0 + sign(a_x,0)·(2k+1)·s·h) mod L
//! y_s = (y_0 + m·h·s) mod L
//! ```
//!
//! The check is O(1) per particle, trivially parallel, and "even a single
//! force miscalculation will be reflected rigorously in the final result".
//! A second, independent check — the id checksum `Σ id = n(n+1)/2` — catches
//! particles lost or duplicated in transit between processors.
//!
//! Every runner verifies through one kernel, [`VerifyReport::check_batch`]
//! (SoA columns, read in place in whatever order the store keeps them)
//! and its AoS twin [`VerifyReport::check_particles`]. [`verify_all`] is
//! the per-particle reference the kernel is tested against.

use crate::charge::{direction_from_charge, SimConstants};
use crate::geometry::Grid;
use crate::particle::Particle;
use crate::soa::ParticleBatch;

/// Default absolute position tolerance, matching the PRK reference codes.
pub const DEFAULT_TOLERANCE: f64 = 1e-5;

/// Per-step relative error budget of the fast-math kernel tier
/// (DESIGN.md §12). The refined reciprocal-square-root is within a few
/// ulps (≲ 5e-16 relative) and the FMA/reassociation differences are of
/// the same order; 1e-13 leaves two orders of headroom so the analytic
/// gate never flakes on a conforming kernel while still catching any
/// real force miscalculation, which displaces a particle by ≥ h/2 within
/// a step or two.
pub const FAST_KERNEL_REL_ERR: f64 = 1e-13;

/// Absolute position tolerance for verifying the **fast** kernel tier
/// analytically against eqs. 5–6 after `steps` steps, for particles whose
/// largest per-step displacement is `max_stride` cells.
///
/// Derivation: the fast tier perturbs each step's acceleration by a
/// relative error ε = [`FAST_KERNEL_REL_ERR`] on a displacement of at most
/// `stride · h` per step. An acceleration error at step `i` displaces
/// every later step through the velocity, so after `s` steps the
/// accumulated bound is `Σ_{i=1..s} i · ε · stride · h` ≈
/// `ε · stride · s(s+1)/2 · h` — quadratic in `s`, which is why the fast
/// tier is gated by this *derived* bound rather than a fixed epsilon. The
/// result is clamped to never exceed the paper's [`DEFAULT_TOLERANCE`]
/// (the gate must stay at least as strict as the spec's own check) and to
/// a 1e-10 floor (below which the bound would be tighter than what exact
/// integer-cell positions can even express after periodic wrapping).
pub fn analytic_tolerance(steps: u64, max_stride: u64) -> f64 {
    let s = steps as f64;
    let bound = FAST_KERNEL_REL_ERR * max_stride.max(1) as f64 * s * (s + 1.0) * 0.5;
    bound.clamp(1e-10, DEFAULT_TOLERANCE)
}

/// Cap on `failing_ids` kept for diagnostics, locally and after merging.
pub const MAX_FAILING_IDS: usize = 16;

/// Expected final position of a particle after participating in
/// `steps` time steps, per paper eqs. 5–6. Exact integer-cell arithmetic:
/// the result is an exact cell center, immune to accumulation error.
pub fn expected_position(grid: &Grid, p: &Particle, steps: u64) -> (f64, f64) {
    let col0 = grid.cell_of(p.x0) as i128;
    let row0 = grid.cell_of(p.y0) as i128;
    let dx = p.cells_per_step_x(grid) as i128 * steps as i128;
    let dy = p.cells_per_step_y() as i128 * steps as i128;
    let n = grid.ncells() as i128;
    let col = (((col0 + dx) % n) + n) % n;
    let row = (((row0 + dy) % n) + n) % n;
    // Preserve the sub-cell offset of the initial position (h/2 for
    // spec-conforming placements).
    let fx = p.x0 - p.x0.floor();
    let fy = p.y0 - p.y0.floor();
    (col as f64 + fx, row as f64 + fy)
}

/// Expected velocity after `steps` steps (starting from the spec's rest
/// state in x): the vertical velocity is constant `m·h/dt`; the horizontal
/// velocity alternates between `0` (even step counts — the particle has
/// just decelerated back to rest) and `±2(2k+1)·h/dt` (odd step counts —
/// mid-flight between the accelerate/decelerate pair).
pub fn expected_velocity(
    grid: &Grid,
    consts: &SimConstants,
    p: &Particle,
    steps: u64,
) -> (f64, f64) {
    let vy = p.m as f64 * consts.h / consts.dt;
    let vx = if steps.is_multiple_of(2) {
        0.0
    } else {
        2.0 * p.cells_per_step_x(grid) as f64 * consts.h / consts.dt
    };
    (vx, vy)
}

/// Verify a particle's velocity against the analytic alternation. Separate
/// from the position check because the paper's specification verifies
/// positions only; this is a strictly stronger (optional) test that can
/// catch a corrupted velocity *before* it shows up as a position error in
/// the next step.
pub fn verify_velocity(
    grid: &Grid,
    consts: &SimConstants,
    p: &Particle,
    steps: u64,
    tol: f64,
) -> ParticleVerdict {
    let (evx, evy) = expected_velocity(grid, consts, p, steps);
    let error = axis_error((p.vx - evx).abs(), (p.vy - evy).abs());
    ParticleVerdict {
        id: p.id,
        ok: error <= tol,
        error,
    }
}

/// Outcome of verifying one particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParticleVerdict {
    pub id: u64,
    pub ok: bool,
    /// max(|Δx|, |Δy|) against the analytic position (`+∞` when either
    /// axis is NaN).
    pub error: f64,
}

/// Verify one particle that has participated in `steps` steps.
pub fn verify_particle(grid: &Grid, p: &Particle, steps: u64, tol: f64) -> ParticleVerdict {
    let (ex, ey) = expected_position(grid, p, steps);
    // Compare with minimum-image distance so an actual position of
    // L−ε and expected 0 (or vice versa) count as matching.
    let dx = grid.periodic_delta(p.x, ex).abs();
    let dy = grid.periodic_delta(p.y, ey).abs();
    let error = axis_error(dx, dy);
    ParticleVerdict {
        id: p.id,
        ok: error <= tol,
        error,
    }
}

/// `(c0 + per_step·steps) mod n` for a cell index `c0` in `[0, n)`, from
/// reduced operands: the displacement is reduced mod `n` in i64 (i128 only
/// when the product overflows), then one conditional subtract wraps the
/// sum. Equal to [`expected_position`]'s i128 formula for every input.
#[inline]
fn wrapped_cell(c0: i64, per_step: i64, steps: u64, n: i64) -> i64 {
    let d = match i64::try_from(steps)
        .ok()
        .and_then(|s| per_step.checked_mul(s))
    {
        Some(d) => d.rem_euclid(n),
        None => (per_step as i128 * steps as i128).rem_euclid(n as i128) as i64,
    };
    let c = c0 + d;
    if c >= n {
        c - n
    } else {
        c
    }
}

/// The verification inputs of one particle, read from either layout.
struct Probe {
    id: u64,
    x: f64,
    y: f64,
    q: f64,
    x0: f64,
    y0: f64,
    k: u32,
    m: i32,
    born_at: u32,
}

/// max(|Δx|, |Δy|) between a particle's position and eqs. 5–6 after
/// `steps` steps — the same floating-point operations as
/// [`verify_particle`], so the error is bit-identical.
#[inline]
fn position_error(grid: &Grid, n: i64, p: &Probe, steps: u64) -> f64 {
    let col0 = grid.cell_of(p.x0);
    let row0 = grid.cell_of(p.y0);
    let per_x = direction_from_charge(col0, p.q) as i64 * (2 * p.k as i64 + 1);
    let col = wrapped_cell(col0 as i64, per_x, steps, n);
    let row = wrapped_cell(row0 as i64, p.m as i64, steps, n);
    let ex = col as f64 + (p.x0 - p.x0.floor());
    let ey = row as f64 + (p.y0 - p.y0.floor());
    let dx = grid.periodic_delta(p.x, ex).abs();
    let dy = grid.periodic_delta(p.y, ey).abs();
    axis_error(dx, dy)
}

/// `max(dx, dy)` where a NaN on either axis is an error of `+∞`:
/// `f64::max` returns the other operand when one is NaN, which would let
/// a particle with a NaN coordinate pass on its other axis and keep the
/// NaN out of `max_error`.
#[inline]
fn axis_error(dx: f64, dy: f64) -> f64 {
    if dx.is_nan() || dy.is_nan() {
        f64::INFINITY
    } else {
        dx.max(dy)
    }
}

/// Aggregate verification report.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Number of particles checked.
    pub checked: u64,
    /// Number of particles whose position deviates beyond tolerance.
    pub position_failures: u64,
    /// Largest observed deviation.
    pub max_error: f64,
    /// The [`MAX_FAILING_IDS`] smallest failing ids, ascending
    /// (diagnostics).
    pub failing_ids: Vec<u64>,
    /// Sum of ids of surviving particles.
    pub id_sum: u128,
    /// Expected id sum given the injections/removals that occurred.
    pub expected_id_sum: u128,
    /// Tolerance used.
    pub tolerance: f64,
}

impl VerifyReport {
    /// A report over no particles yet, to be filled by
    /// [`VerifyReport::check_batch`] / [`VerifyReport::check_particles`].
    pub fn new(expected_id_sum: u128, tolerance: f64) -> VerifyReport {
        VerifyReport {
            checked: 0,
            position_failures: 0,
            max_error: 0.0,
            failing_ids: Vec::new(),
            id_sum: 0,
            expected_id_sum,
            tolerance,
        }
    }

    /// Verify an SoA batch in place at final step `final_step` and fold it
    /// into this report. Reads the `x, y, q, x0, y0, k, m, born_at, id`
    /// columns in storage order; the report does not depend on that
    /// order.
    pub fn check_batch(&mut self, grid: &Grid, b: &ParticleBatch, final_step: u32) {
        let n = b.len();
        let (x, y, q, x0, y0) = (&b.x[..n], &b.y[..n], &b.q[..n], &b.x0[..n], &b.y0[..n]);
        let (k, m, born_at, id) = (&b.k[..n], &b.m[..n], &b.born_at[..n], &b.id[..n]);
        self.check(
            grid,
            final_step,
            (0..n).map(|i| Probe {
                id: id[i],
                x: x[i],
                y: y[i],
                q: q[i],
                x0: x0[i],
                y0: y0[i],
                k: k[i],
                m: m[i],
                born_at: born_at[i],
            }),
        );
    }

    /// [`VerifyReport::check_batch`] over an AoS slice, without copying it.
    pub fn check_particles(&mut self, grid: &Grid, particles: &[Particle], final_step: u32) {
        self.check(
            grid,
            final_step,
            particles.iter().map(|p| Probe {
                id: p.id,
                x: p.x,
                y: p.y,
                q: p.q,
                x0: p.x0,
                y0: p.y0,
                k: p.k,
                m: p.m,
                born_at: p.born_at,
            }),
        );
    }

    /// The one verification kernel: each particle has participated in
    /// `final_step − born_at` steps.
    #[inline(always)]
    fn check(&mut self, grid: &Grid, final_step: u32, probes: impl Iterator<Item = Probe>) {
        let n = grid.ncells() as i64;
        for p in probes {
            let steps = final_step.saturating_sub(p.born_at) as u64;
            let error = position_error(grid, n, &p, steps);
            self.checked += 1;
            self.id_sum += p.id as u128;
            self.max_error = self.max_error.max(error);
            let ok = error <= self.tolerance;
            if !ok {
                self.position_failures += 1;
                self.note_failing_id(p.id);
            }
        }
    }

    /// Keep `id` if it is among the [`MAX_FAILING_IDS`] smallest seen,
    /// in ascending order.
    fn note_failing_id(&mut self, id: u64) {
        let ids = &mut self.failing_ids;
        if ids.len() == MAX_FAILING_IDS {
            if id >= ids[MAX_FAILING_IDS - 1] {
                return;
            }
            ids.pop();
        }
        let at = ids.partition_point(|&f| f <= id);
        ids.insert(at, id);
    }

    /// True if both the trajectory check and the checksum pass.
    pub fn passed(&self) -> bool {
        self.position_failures == 0 && self.id_sum == self.expected_id_sum
    }

    /// Merge reports from disjoint particle subsets (e.g. per-rank
    /// verification in the parallel implementations); `failing_ids` keeps
    /// the smallest of both.
    pub fn merge(mut self, other: &VerifyReport) -> VerifyReport {
        self.checked += other.checked;
        self.position_failures += other.position_failures;
        self.max_error = self.max_error.max(other.max_error);
        self.id_sum += other.id_sum;
        for &id in &other.failing_ids {
            self.note_failing_id(id);
        }
        self
    }
}

/// Verify a set of particles at final step `final_step`; each particle has
/// participated in `final_step − born_at` steps. `expected_id_sum` comes
/// from the engine's ledger (or `n(n+1)/2` when no events fired).
///
/// The per-particle reference ([`verify_particle`], i128 cell arithmetic):
/// `failing_ids` are the first failures in slice order, so over an
/// ascending-id slice the report equals the in-place kernel's.
pub fn verify_all(
    grid: &Grid,
    particles: &[Particle],
    final_step: u32,
    expected_id_sum: u128,
    tol: f64,
) -> VerifyReport {
    let mut report = VerifyReport::new(expected_id_sum, tol);
    for p in particles {
        let steps = final_step.saturating_sub(p.born_at) as u64;
        let v = verify_particle(grid, p, steps, tol);
        report.checked += 1;
        report.id_sum += p.id as u128;
        report.max_error = report.max_error.max(v.error);
        if !v.ok {
            report.position_failures += 1;
            if report.failing_ids.len() < MAX_FAILING_IDS {
                report.failing_ids.push(p.id);
            }
        }
    }
    report
}

/// Convenience: the closed-form checksum `n(n+1)/2` for an event-free run.
pub fn triangular_id_sum(n: u64) -> u128 {
    n as u128 * (n as u128 + 1) / 2
}

/// Scaled verification constants are not needed: this re-exports the
/// canonical constants for harnesses that want a single import.
pub fn canonical_constants() -> SimConstants {
    SimConstants::CANONICAL
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge::{particle_charge, sign_for_direction};

    fn particle_at(grid: &Grid, col: usize, row: usize, k: u32, m: i32, dir: i8) -> Particle {
        let c = SimConstants::CANONICAL;
        let (x, y) = grid.cell_center(col, row);
        Particle {
            id: 1,
            x,
            y,
            vx: 0.0,
            vy: m as f64,
            q: particle_charge(&c, 0.5, k, sign_for_direction(col, dir)),
            x0: x,
            y0: y,
            k,
            m,
            born_at: 0,
        }
    }

    #[test]
    fn expected_position_wraps_right() {
        let g = Grid::new(8).unwrap();
        let p = particle_at(&g, 6, 0, 0, 0, 1);
        let (x, y) = expected_position(&g, &p, 3);
        assert_eq!((x, y), (1.5, 0.5)); // 6 + 3 mod 8 = 1
    }

    #[test]
    fn expected_position_wraps_left_and_down() {
        let g = Grid::new(8).unwrap();
        let p = particle_at(&g, 1, 2, 1, -3, -1);
        // dx = −3/step for 5 steps: 1 − 15 = −14 mod 8 = 2.
        // dy = −3·5 = −15: 2 − 15 = −13 mod 8 = 3.
        let (x, y) = expected_position(&g, &p, 5);
        assert_eq!((x, y), (2.5, 3.5));
    }

    #[test]
    fn expected_position_huge_step_count_no_overflow() {
        let g = Grid::new(5998).unwrap();
        let mut p = particle_at(&g, 0, 0, u32::MAX / 2, 1, 1);
        p.k = 1_000_000_000;
        let (x, _) = expected_position(&g, &p, u64::from(u32::MAX));
        assert!((0.0..g.extent()).contains(&x));
    }

    #[test]
    fn verdict_catches_single_cell_error() {
        let g = Grid::new(8).unwrap();
        let mut p = particle_at(&g, 0, 0, 0, 0, 1);
        p.x = 2.5; // pretend it moved 2 cells in 1 step instead of 1
        let v = verify_particle(&g, &p, 1, DEFAULT_TOLERANCE);
        assert!(!v.ok);
        assert!((v.error - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdict_accepts_exact_position() {
        let g = Grid::new(8).unwrap();
        let mut p = particle_at(&g, 0, 0, 0, 2, 1);
        p.x = 3.5;
        p.y = g.wrap_coord(0.5 + 6.0);
        let v = verify_particle(&g, &p, 3, DEFAULT_TOLERANCE);
        assert!(v.ok, "error = {}", v.error);
        assert_eq!(v.error, 0.0);
    }

    #[test]
    fn periodic_seam_not_a_false_failure() {
        let g = Grid::new(8).unwrap();
        let mut p = particle_at(&g, 7, 0, 0, 0, 1);
        // After one step the particle should be at 0.5; simulate a tiny
        // rounding of the actual slightly below L instead.
        p.x = 8.0 - 1e-9;
        // expected = 0.5 → naive |p.x − 0.5| = 7.5 would fail, but the
        // expected cell for one step from col 7 is col 0 (x = 0.5), and
        // p.x = L−ε is distance 0.5+ε away — that *is* a failure.
        let v = verify_particle(&g, &p, 1, DEFAULT_TOLERANCE);
        assert!(!v.ok);
        // But p.x = 0.5 − tiny wraps cleanly:
        p.x = 0.5 - 1e-9;
        let v = verify_particle(&g, &p, 1, DEFAULT_TOLERANCE);
        assert!(v.ok);
    }

    #[test]
    fn report_checksum_mismatch_fails() {
        let g = Grid::new(8).unwrap();
        let ps = vec![particle_at(&g, 0, 0, 0, 0, 1)];
        let r = verify_all(&g, &ps, 0, 99, DEFAULT_TOLERANCE);
        assert_eq!(r.id_sum, 1);
        assert!(!r.passed(), "wrong checksum must fail");
        let r = verify_all(&g, &ps, 0, 1, DEFAULT_TOLERANCE);
        assert!(r.passed());
    }

    #[test]
    fn merge_accumulates() {
        let g = Grid::new(8).unwrap();
        let a = vec![particle_at(&g, 0, 0, 0, 0, 1)];
        let mut b0 = particle_at(&g, 2, 0, 0, 0, 1);
        b0.id = 2;
        b0.x = 7.5; // wrong
        let ra = verify_all(&g, &a, 0, 0, DEFAULT_TOLERANCE);
        let rb = verify_all(&g, &[b0], 0, 0, DEFAULT_TOLERANCE);
        let mut merged = ra.merge(&rb);
        merged.expected_id_sum = 3;
        assert_eq!(merged.checked, 2);
        assert_eq!(merged.position_failures, 1);
        assert_eq!(merged.id_sum, 3);
        assert_eq!(merged.failing_ids, vec![2]);
        assert!(!merged.passed());
    }

    #[test]
    fn analytic_tolerance_bounds() {
        // Monotone in both arguments, floored, and never looser than the
        // paper's default tolerance.
        assert_eq!(analytic_tolerance(0, 1), 1e-10);
        assert_eq!(analytic_tolerance(10, 1), 1e-10); // still under the floor
        let t_mid = analytic_tolerance(1_000, 3);
        assert!(t_mid > 1e-10 && t_mid < DEFAULT_TOLERANCE, "{t_mid}");
        assert!(analytic_tolerance(2_000, 3) >= analytic_tolerance(1_000, 3));
        assert!(analytic_tolerance(1_000, 9) >= analytic_tolerance(1_000, 3));
        assert_eq!(analytic_tolerance(u32::MAX as u64, 999), DEFAULT_TOLERANCE);
        // Typical CI smoke shape: tiny, far below the spec tolerance.
        assert!(analytic_tolerance(50, 1) < 1e-8);
    }

    #[test]
    fn triangular_sum() {
        assert_eq!(triangular_id_sum(0), 0);
        assert_eq!(triangular_id_sum(1), 1);
        assert_eq!(triangular_id_sum(6_400_000), 6_400_000u128 * 6_400_001 / 2);
    }

    #[test]
    fn velocity_alternates_between_rest_and_double_stride() {
        use crate::motion::advance_particle;
        let g = Grid::new(16).unwrap();
        let c = SimConstants::CANONICAL;
        let mut p = particle_at(&g, 0, 0, 1, 2, 1); // stride 3 rightward
        for s in 1..=9u64 {
            advance_particle(&g, &c, &mut p);
            let v = verify_velocity(&g, &c, &p, s, 1e-9);
            assert!(v.ok, "step {s}: vx = {}, error {}", p.vx, v.error);
            let (evx, _) = expected_velocity(&g, &c, &p, s);
            if s % 2 == 1 {
                assert!((evx - 6.0).abs() < 1e-12, "odd step evx {evx}");
            } else {
                assert_eq!(evx, 0.0);
            }
        }
    }

    #[test]
    fn velocity_corruption_detected() {
        let g = Grid::new(16).unwrap();
        let c = SimConstants::CANONICAL;
        let mut p = particle_at(&g, 0, 0, 0, 1, 1);
        p.vx = 0.5; // should be 0 at step 0
        let v = verify_velocity(&g, &c, &p, 0, DEFAULT_TOLERANCE);
        assert!(!v.ok);
        // Position check alone would NOT see this yet.
        let pos = verify_particle(&g, &p, 0, DEFAULT_TOLERANCE);
        assert!(pos.ok);
    }

    #[test]
    fn injected_particle_verified_over_partial_run() {
        let g = Grid::new(8).unwrap();
        let mut p = particle_at(&g, 0, 0, 0, 0, 1);
        p.born_at = 10;
        // Participates in 5 steps of a 15-step run → expected col 5.
        p.x = 5.5;
        let r = verify_all(&g, &[p], 15, 1, DEFAULT_TOLERANCE);
        assert!(r.passed(), "{r:?}");
    }
}
