//! Cell-binned particle storage: counting-sort locality for the sweep.
//!
//! [`BinnedStore`] keeps a [`ParticleBatch`] physically ordered by cell
//! *column* — bin `c` is the contiguous span `offsets[c]..offsets[c+1]` —
//! so the sweep walks memory in cell order and the per-column load
//! histogram falls out of the prefix sums for free (O(columns) instead of
//! an O(n) scan). The permutation is rebuilt every `rebin_interval` steps
//! with a stable counting sort and one gather pass through a persistent
//! double buffer, so the amortized cost is O(n / R) per step and the
//! steady state allocates nothing (scratch capacity is retained between
//! rebins; when the population is column-homogeneous the permutation is
//! the identity and the gather is skipped entirely, and when it is a few
//! contiguous runs — a drifting store that wrapped around — the gather is
//! one block move per run).
//!
//! ## The parity invariant (why `q_left` can be hoisted)
//!
//! Between rebins particles drift out of their recorded columns, so the
//! *column* of a bin goes stale after one step. Its *parity* does not
//! stay merely approximately right — it is exactly shared by every
//! particle in the bin at every step: each spec-conforming particle moves
//! exactly `±(2k+1)` columns per step, an **odd** stride, so all
//! particles flip column parity together each step (the periodic wrap
//! preserves parity because the grid has an even number of columns).
//! A bin's parity at sweep time is therefore
//! `bin_column_parity XOR (steps_since_rebin & 1)`, valid for *any*
//! rebin interval, and the corner charges `q_left = ±q`, `q_right =
//! −q_left` hoist out of the inner loop. The actual column (needed for
//! the corner displacement `rx`) is still derived per particle — that is
//! one float-to-int truncation, with the branchy `mesh_charge` lookups
//! gone. Debug builds assert the invariant per particle; populations
//! whose strides are corrupted out-of-spec (failure-injection mutants)
//! must rebin every step to stay exact.
//!
//! ## Bit-exactness
//!
//! [`advance_bin_span`] performs, per particle, the *same sequence of
//! floating-point operations* as the unbinned sweep (`total_force` +
//! eqs. 1–2): same `coulomb` corner evaluations in the same pairing, same
//! integration, same wrap. Binning changes traversal order only, and
//! particles are independent within a step, so the resulting population
//! is bit-identical to every other sweep mode — asserted by the
//! cross-mode property tests for rebin intervals {1, 3, 16}. Canonical
//! (ascending-id) order is restored on export by [`BinnedStore::to_particles`].

use crate::charge::{coulomb, mesh_charge, SimConstants};
use crate::charge_grid::ChargeGrid;
use crate::events::Region;
use crate::geometry::Grid;
use crate::particle::Particle;
use crate::pool::{self, SyncMutPtr};
use crate::simd::{self, SimdBackend};
use crate::soa::ParticleBatch;
use std::collections::HashSet;

/// Default rebin interval, chosen from the measured amortization curve
/// (`BENCH_sweep.json`, rebin sensitivity rows): the counting sort plus
/// 11-array gather costs roughly three binned sweeps, so re-sorting every
/// step erases the locality win while 16 steps of drift still leaves the
/// order column-coherent enough to keep the kernel fast. Set the interval
/// to 1 (`--rebin 1`, [`Simulation::with_rebin_interval`]) when a consumer
/// wants the O(columns) histogram fast path fresh *every* step — e.g. a
/// load balancer invoked more often than every 16 steps; the natural
/// co-tuning is rebin = balancer interval.
///
/// [`Simulation::with_rebin_interval`]: crate::engine::Simulation::with_rebin_interval
pub const DEFAULT_REBIN: u32 = 16;

/// The rebin gathers by block moves only while the permutation's
/// contiguous runs average at least this many particles (at most
/// `n / MIN_MEAN_RUN` runs); a more scattered permutation takes the
/// per-element scatter.
const MIN_MEAN_RUN: usize = 32;

/// Which force kernel the binned sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelTier {
    /// The bit-identity contract: every backend produces the scalar
    /// reference's bits (DESIGN.md §10). The default.
    #[default]
    Exact,
    /// The fast-math contract: FMA, reciprocal-sqrt, reassociated corner
    /// accumulation (DESIGN.md §12). Verified analytically against
    /// eqs. 5–6 within [`crate::verify::analytic_tolerance`], not
    /// bitwise. The scalar backend ignores this and stays exact, so
    /// `PIC_NO_SIMD=1` forces bit-identity in either tier.
    Fast,
}

impl KernelTier {
    /// Lower-case label for telemetry and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Exact => "exact",
            KernelTier::Fast => "fast",
        }
    }
}

/// Cell-binned structure-of-arrays particle store (see module docs).
#[derive(Debug, Clone)]
pub struct BinnedStore {
    /// Particle data in bin (cell-column) order; within a bin the order is
    /// stable under rebinning.
    batch: ParticleBatch,
    /// Gather target, swapped with `batch` on each non-identity rebin;
    /// retains capacity so steady-state rebins allocate nothing.
    scratch: ParticleBatch,
    /// `ncols + 1` prefix sums: bin `b` (column `col_lo + b`) is
    /// `offsets[b]..offsets[b+1]`. Indices past `offsets[ncols]` are the
    /// *tail*: exchange arrivals appended by [`BinnedStore::push_tail`]
    /// that have not been folded into bin order yet.
    offsets: Vec<usize>,
    /// First grid column this store bins (0 for a whole-grid store; the
    /// rank's subgrid origin for a distributed store).
    col_lo: usize,
    /// Number of binned columns (`col_hi − col_lo`).
    ncols: usize,
    /// Counting-sort destination per source index (reused across rebins).
    perm: Vec<usize>,
    /// Counting-sort write cursors (reused across rebins).
    cursor: Vec<usize>,
    /// Contiguous runs of the last permutation as `(src, dst)` starts: run
    /// `r` moves sources `runs[r].0..runs[r + 1].0` (the last one up to
    /// `n`) to consecutive slots from `runs[r].1`. Meaningful only when the
    /// rebin did not exceed the run bound ([`MIN_MEAN_RUN`]); capacity is
    /// retained across rebins.
    runs: Vec<(usize, usize)>,
    /// Sweeps executed since the last rebin.
    age: u32,
    /// Set by any structural edit (push/remove/mutate); forces a rebin
    /// before the next sweep and disables the histogram fast path.
    dirty: bool,
    rebin_interval: u32,
    /// Lifetime count of [`BinnedStore::rebin`] invocations (telemetry).
    rebins: u64,
    /// Instruction-set backend for the span kernel, selected once at
    /// construction ([`SimdBackend::detect`]); every backend is
    /// bit-identical, so this is a pure throughput knob.
    backend: SimdBackend,
    /// Exact (bit-identical) or fast (analytically-verified) span kernel.
    tier: KernelTier,
    /// Particle–thread binding: when true the sweep dispatches by
    /// [`pool::Pool::run_owned`] slot instead of self-scheduling chunks,
    /// so each pool thread sweeps the same bins every step between
    /// rebins (cache/NUMA locality). Results are identical either way —
    /// binding is pure scheduling.
    bind: bool,
    /// Per-slot `(start, end)` particle spans (bin-aligned, contiguous,
    /// covering `0..n`), recomputed lazily when invalidated by a rebin or
    /// a pool-width change; capacity is retained.
    owner_spans: Vec<(usize, usize)>,
    /// Slot count `owner_spans` was computed for (0 = invalid).
    owner_slots: usize,
}

impl BinnedStore {
    /// Bin `particles` on `grid`. `rebin_interval` is clamped to ≥ 1.
    pub fn new(particles: &[Particle], grid: &Grid, rebin_interval: u32) -> BinnedStore {
        BinnedStore::new_subdomain(particles, grid, rebin_interval, 0, grid.ncells())
    }

    /// Bin `particles` over the column range `[col_lo, col_hi)` only — the
    /// per-rank store of the distributed implementations. Every particle
    /// must lie inside the range whenever a rebin runs (the rank step
    /// drains leavers before rebinning, so this holds by construction).
    pub fn new_subdomain(
        particles: &[Particle],
        grid: &Grid,
        rebin_interval: u32,
        col_lo: usize,
        col_hi: usize,
    ) -> BinnedStore {
        assert!(
            col_lo < col_hi && col_hi <= grid.ncells(),
            "bad column range {col_lo}..{col_hi} on a {}-column grid",
            grid.ncells()
        );
        let ncols = col_hi - col_lo;
        let mut store = BinnedStore {
            batch: ParticleBatch::from_particles(particles),
            scratch: ParticleBatch::new(),
            offsets: vec![0; ncols + 1],
            col_lo,
            ncols,
            perm: Vec::new(),
            cursor: vec![0; ncols],
            runs: Vec::new(),
            age: 0,
            dirty: false,
            rebin_interval: rebin_interval.max(1),
            rebins: 0,
            backend: SimdBackend::detect(),
            tier: KernelTier::Exact,
            bind: false,
            owner_spans: Vec::new(),
            owner_slots: 0,
        };
        store.rebin(grid);
        store
    }

    /// The binned column range `[col_lo, col_hi)`.
    pub fn columns(&self) -> (usize, usize) {
        (self.col_lo, self.col_lo + self.ncols)
    }

    /// Re-anchor the store to a new column range (a load-balancer cut
    /// move) and rebin immediately. All particles must already lie inside
    /// the new range — callers drain leavers under the new decomposition
    /// first.
    pub fn set_columns(&mut self, grid: &Grid, col_lo: usize, col_hi: usize) {
        assert!(
            col_lo < col_hi && col_hi <= grid.ncells(),
            "bad column range {col_lo}..{col_hi} on a {}-column grid",
            grid.ncells()
        );
        self.col_lo = col_lo;
        self.ncols = col_hi - col_lo;
        self.rebin(grid);
    }

    /// The instruction-set backend the sweep kernel runs on.
    pub fn simd_backend(&self) -> SimdBackend {
        self.backend
    }

    /// Override the kernel backend (A/B measurements and the cross-backend
    /// identity tests; results are bit-identical on every backend).
    pub fn set_simd_backend(&mut self, backend: SimdBackend) {
        self.backend = backend;
    }

    /// The force-kernel tier the sweep runs ([`KernelTier::Exact`] unless
    /// overridden).
    pub fn kernel_tier(&self) -> KernelTier {
        self.tier
    }

    /// Select the force-kernel tier. Switching to [`KernelTier::Fast`]
    /// trades bit-identity for throughput; verify such runs with
    /// [`crate::verify::analytic_tolerance`].
    pub fn set_kernel_tier(&mut self, tier: KernelTier) {
        self.tier = tier;
    }

    /// Whether sweeps use the persistent bin→worker assignment.
    pub fn thread_binding(&self) -> bool {
        self.bind
    }

    /// Enable/disable particle–thread binding (see the `bind` field docs).
    /// Takes effect at the next sweep; never changes results.
    pub fn set_thread_binding(&mut self, bind: bool) {
        self.bind = bind;
        self.owner_slots = 0;
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// The rebin interval `R` (sweeps between counting sorts).
    pub fn rebin_interval(&self) -> u32 {
        self.rebin_interval
    }

    /// Change the rebin interval (clamped to ≥ 1); takes effect at the
    /// next sweep.
    pub fn set_rebin_interval(&mut self, rebin_interval: u32) {
        self.rebin_interval = rebin_interval.max(1);
    }

    /// Direct view of the underlying batch — **bin order**, not canonical
    /// order; use [`BinnedStore::to_particles`] for the canonical view.
    pub fn batch(&self) -> &ParticleBatch {
        &self.batch
    }

    /// Rebuild the counting-sort permutation from current positions.
    /// Stable (equal columns keep their relative order), skips the gather
    /// when the permutation is the identity, moves whole blocks when it is
    /// a few contiguous runs (a drifting store wraps around), and reuses
    /// all scratch storage — after warm-up this allocates nothing.
    pub fn rebin(&mut self, grid: &Grid) {
        match self.sort_permutation(grid) {
            Gather::Identity => {}
            path => {
                let runs = (path == Gather::Blocks).then_some(&self.runs[..]);
                gather(&self.batch, &mut self.scratch, &self.perm, runs);
                std::mem::swap(&mut self.batch, &mut self.scratch);
            }
        }
        self.age = 0;
        self.dirty = false;
        self.rebins += 1;
        // Bin boundaries moved: the persistent bin→worker assignment is
        // recomputed lazily at the next bound sweep. Rebin boundaries are
        // the *only* points where ownership is rebalanced.
        self.owner_slots = 0;
    }

    /// The counting sort: fill `offsets`, `perm` (`perm[i]` = destination
    /// of source `i`) and, up to the run bound, `runs`; report which
    /// gather the permutation needs.
    fn sort_permutation(&mut self, grid: &Grid) -> Gather {
        let n = self.batch.len();
        let ncols = self.ncols;
        self.offsets.clear();
        self.offsets.resize(ncols + 1, 0);
        for &x in &self.batch.x {
            let c = grid.cell_of(x);
            debug_assert!(
                (self.col_lo..self.col_lo + ncols).contains(&c),
                "rebin with un-homed particle: column {c} outside {}..{}",
                self.col_lo,
                self.col_lo + ncols
            );
            self.offsets[c - self.col_lo + 1] += 1;
        }
        for c in 0..ncols {
            self.offsets[c + 1] += self.offsets[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets[..ncols]);
        self.perm.clear();
        self.perm.resize(n, 0);
        // A bijection of 0..n with one run is the identity, so the bound
        // never drops below one run.
        let max_runs = (n / MIN_MEAN_RUN).max(1);
        self.runs.clear();
        self.runs.reserve(max_runs);
        let mut scattered = false;
        let mut next = usize::MAX;
        for (i, &x) in self.batch.x.iter().enumerate() {
            let c = grid.cell_of(x) - self.col_lo;
            let dst = self.cursor[c];
            self.cursor[c] += 1;
            self.perm[i] = dst;
            if dst != next {
                if self.runs.len() < max_runs {
                    self.runs.push((i, dst));
                } else {
                    scattered = true;
                }
            }
            next = dst + 1;
        }
        if scattered {
            Gather::Scatter
        } else if self.runs.len() <= 1 {
            Gather::Identity
        } else {
            Gather::Blocks
        }
    }

    /// [`Self::rebin`] through a caller-owned gather buffer: stores that
    /// rebin one after another (the AMPI runtime's per-VP stores on one
    /// core) share a single double buffer instead of one each. The store's
    /// own buffer is dropped; `spare` comes back holding the store's
    /// previous particle arrays as the next gather target.
    pub fn rebin_with(&mut self, grid: &Grid, spare: &mut ParticleBatch) {
        self.scratch = std::mem::take(spare);
        self.rebin(grid);
        *spare = std::mem::take(&mut self.scratch);
    }

    /// Recompute the per-slot owner spans: a contiguous, bin-aligned
    /// partition of `0..n` whose boundaries sit at the first bin boundary
    /// at or past each ideal `s·n/slots` cut, so slots carry near-equal
    /// particle counts at bin granularity. Capacity-retaining (steady
    /// state allocates nothing once warm).
    fn compute_owner_spans(&mut self, slots: usize) {
        // Spans cover the binned region only; tail arrivals are swept
        // serially by their owner step and merge at the next rebin.
        let n = self.offsets[self.ncols];
        self.owner_spans.clear();
        let mut prev = 0usize;
        for s in 1..=slots {
            let end = if s == slots {
                n
            } else {
                let target = s * n / slots;
                let b = self.offsets.partition_point(|&o| o < target);
                self.offsets[b.min(self.offsets.len() - 1)]
            };
            let end = end.max(prev);
            self.owner_spans.push((prev, end));
            prev = end;
        }
        self.owner_slots = slots;
    }

    /// Lifetime number of counting-sort (rebin) invocations, including the
    /// initial sort at construction. Feeds the trace `rebins` counter.
    pub fn rebin_count(&self) -> u64 {
        self.rebins
    }

    /// Advance every particle one step: rebin if structurally dirty, sweep
    /// bin spans through the pool with the parity-hoisted kernel, then
    /// rebin at the *end* of the sweep if the interval is due — so with
    /// `R = 1` the histogram fast path is always fresh when balancer
    /// layers read it between steps.
    pub fn advance_all(&mut self, grid: &Grid, consts: &SimConstants, chunk_size: usize) {
        if self.dirty {
            self.rebin(grid);
        }
        // Pool dispatch covers the binned region; tail arrivals (absent in
        // the serial engine, where every push marks the store dirty) are
        // swept per-particle afterwards.
        let n = self.offsets[self.ncols];
        let bound = self.bind && n > 0;
        let slots = if bound {
            let slots = pool::global().active_threads();
            // Rebalance the persistent assignment only when invalidated —
            // by a rebin or a pool-width change — never mid-interval.
            if self.owner_slots != slots {
                self.compute_owner_spans(slots);
            }
            slots
        } else {
            0
        };
        let parity = self.age & 1;
        let backend = self.backend;
        let tier = self.tier;
        let col_lo = self.col_lo;
        let offsets = &self.offsets[..];
        let xp = SyncMutPtr::new(self.batch.x.as_mut_ptr());
        let yp = SyncMutPtr::new(self.batch.y.as_mut_ptr());
        let vxp = SyncMutPtr::new(self.batch.vx.as_mut_ptr());
        let vyp = SyncMutPtr::new(self.batch.vy.as_mut_ptr());
        let q = &self.batch.q[..n];
        // Sweep `start..end` one bin-clipped sub-span at a time (empty
        // bins are skipped by the offsets walk). Ranges handed to this
        // closure are disjoint, so each span is exclusively owned here.
        let sweep_range = |start: usize, end: usize| {
            let mut b = offsets.partition_point(|&o| o <= start) - 1;
            let mut i = start;
            while i < end {
                while offsets[b + 1] <= i {
                    b += 1;
                }
                let span_end = end.min(offsets[b + 1]);
                let len = span_end - i;
                let bin_parity = ((col_lo + b) as u32 & 1) ^ parity;
                let q_left = if bin_parity == 0 { consts.q } else { -consts.q };
                let (x, y, vx, vy) = unsafe {
                    (
                        std::slice::from_raw_parts_mut(xp.get().add(i), len),
                        std::slice::from_raw_parts_mut(yp.get().add(i), len),
                        std::slice::from_raw_parts_mut(vxp.get().add(i), len),
                        std::slice::from_raw_parts_mut(vyp.get().add(i), len),
                    )
                };
                match tier {
                    KernelTier::Exact => simd::advance_bin_span_simd(
                        backend,
                        grid,
                        consts,
                        q_left,
                        x,
                        y,
                        vx,
                        vy,
                        &q[i..span_end],
                    ),
                    KernelTier::Fast => {
                        // Pull the next span's columns towards the cache
                        // while this one computes (spans are contiguous
                        // in particle index, so the next span starts at
                        // `span_end`).
                        if span_end < end {
                            unsafe {
                                simd::prefetch_read(xp.get().add(span_end));
                                simd::prefetch_read(yp.get().add(span_end));
                            }
                            simd::prefetch_read(q[span_end..].as_ptr());
                        }
                        simd::advance_bin_span_fast(
                            backend,
                            grid,
                            consts,
                            q_left,
                            x,
                            y,
                            vx,
                            vy,
                            &q[i..span_end],
                        )
                    }
                }
                i = span_end;
            }
        };
        if bound {
            let spans = &self.owner_spans[..];
            pool::global().run_owned(slots, &|s| {
                let (start, end) = spans[s];
                if start < end {
                    sweep_range(start, end);
                }
            });
        } else {
            pool::global().run_chunked(n, chunk_size, &sweep_range);
        }
        self.sweep_tail(grid, consts, None);
        self.age += 1;
        if self.age >= self.rebin_interval {
            self.rebin(grid);
        }
    }

    /// One serial sweep on the *calling* thread — the distributed rank
    /// path, where each rank is already its own parallel unit and pool
    /// dispatch would contend across rank threads. Rebins first if
    /// structurally dirty, runs the tier kernel over every bin span plus
    /// the per-particle tail, and does **not** rebin at the end: the rank
    /// step rebins after the exchange ([`BinnedStore::rebin_due`]) so the
    /// counting sort only ever sees homed particles.
    ///
    /// With `charges`, per-bin corner charges are read from the rank's
    /// ghost-ringed [`ChargeGrid`] window instead of the parity formula.
    /// The two sources are bitwise-identical (the grid stores exactly
    /// `mesh_charge(col, q)`, and the age-parity flip is an exact
    /// negation), so this is a data-path choice, not a numeric one.
    pub fn sweep_local(
        &mut self,
        grid: &Grid,
        consts: &SimConstants,
        charges: Option<&ChargeGrid>,
    ) {
        if self.dirty {
            self.rebin(grid);
        }
        self.sweep_bins(grid, consts, charges);
        self.sweep_tail(grid, consts, charges);
        self.age += 1;
    }

    /// The tier kernel over every bin at the current age parity.
    fn sweep_bins(&mut self, grid: &Grid, consts: &SimConstants, charges: Option<&ChargeGrid>) {
        let parity = self.age & 1;
        let row0 = charges.map(|cg| cg.bounds().1 .0);
        let binned = self.offsets[self.ncols];
        for b in 0..self.ncols {
            let (i, span_end) = (self.offsets[b], self.offsets[b + 1]);
            if i == span_end {
                continue;
            }
            let col = self.col_lo + b;
            let base = match charges {
                Some(cg) => cg.charge_at(col, row0.unwrap()),
                None => mesh_charge(col, consts.q),
            };
            let q_left = if parity == 1 { -base } else { base };
            if self.tier == KernelTier::Fast && span_end < binned {
                // Pull the next span's columns towards the cache while
                // this one computes (spans are contiguous in index).
                simd::prefetch_read(self.batch.x[span_end..].as_ptr());
                simd::prefetch_read(self.batch.y[span_end..].as_ptr());
                simd::prefetch_read(self.batch.q[span_end..].as_ptr());
            }
            let x = &mut self.batch.x[i..span_end];
            let y = &mut self.batch.y[i..span_end];
            let vx = &mut self.batch.vx[i..span_end];
            let vy = &mut self.batch.vy[i..span_end];
            let q = &self.batch.q[i..span_end];
            match self.tier {
                KernelTier::Exact => {
                    simd::advance_bin_span_simd(self.backend, grid, consts, q_left, x, y, vx, vy, q)
                }
                KernelTier::Fast => {
                    simd::advance_bin_span_fast(self.backend, grid, consts, q_left, x, y, vx, vy, q)
                }
            }
        }
    }

    /// Advance the tail region (exchange arrivals past `offsets[ncols]`)
    /// one step, per particle, through the exact scalar span kernel with
    /// the particle's *live* column charge — no parity flip, because the
    /// column is read fresh rather than remembered from a rebin. Tail
    /// particles are homed on arrival, so with `charges` the lookup stays
    /// inside the ghost-ringed window.
    fn sweep_tail(&mut self, grid: &Grid, consts: &SimConstants, charges: Option<&ChargeGrid>) {
        let n = self.batch.len();
        let start = self.offsets[self.ncols];
        for i in start..n {
            let (col, row) = grid.cell_of_point(self.batch.x[i], self.batch.y[i]);
            let q_left = match charges {
                Some(cg) => cg.charge_at(col, row),
                None => mesh_charge(col, consts.q),
            };
            advance_bin_span(
                grid,
                consts,
                q_left,
                &mut self.batch.x[i..i + 1],
                &mut self.batch.y[i..i + 1],
                &mut self.batch.vx[i..i + 1],
                &mut self.batch.vy[i..i + 1],
                &self.batch.q[i..i + 1],
            );
        }
    }

    /// Sweeps since the last rebin. Between rebins a particle in bin `b`
    /// may have drifted up to `stride · age` columns from `b`, so any
    /// bin-indexed drain window must widen by the age.
    pub fn age(&self) -> u32 {
        self.age
    }

    /// Whether the amortized rebin is due (interval elapsed or structural
    /// edits pending). The rank step calls this *after* the exchange so
    /// the counting sort only ever sees homed particles.
    pub fn rebin_due(&self) -> bool {
        self.dirty || self.age >= self.rebin_interval
    }

    /// Number of exchange arrivals not yet folded into bin order.
    pub fn tail_len(&self) -> usize {
        self.batch.len() - self.offsets[self.ncols].min(self.batch.len())
    }

    /// Fill `h` with the per-column particle counts. When the binning is
    /// fresh (just rebinned, no structural edits since) this is the
    /// O(columns) prefix-sum difference; otherwise it falls back to the
    /// O(n) position scan the unbinned stores use.
    pub fn column_histogram_into(&self, grid: &Grid, h: &mut Vec<u64>) {
        h.clear();
        h.resize(grid.ncells(), 0);
        if self.histogram_is_fresh() {
            for (i, w) in self.offsets.windows(2).enumerate() {
                h[self.col_lo + i] = (w[1] - w[0]) as u64;
            }
        } else {
            for &x in &self.batch.x {
                h[grid.cell_of(x)] += 1;
            }
        }
    }

    /// Whether [`BinnedStore::column_histogram_into`] will take the
    /// O(columns) fast path (true whenever the store was rebinned after
    /// the last sweep/edit — always the case in steady state with R = 1).
    pub fn histogram_is_fresh(&self) -> bool {
        self.age == 0 && !self.dirty && self.offsets[self.ncols] == self.batch.len()
    }

    /// Append a particle (goes to the tail, outside bin order → marks the
    /// store dirty; the next sweep rebins first).
    pub fn push(&mut self, p: Particle) {
        self.batch.push(p);
        self.dirty = true;
    }

    pub fn extend(&mut self, particles: Vec<Particle>) {
        for p in particles {
            self.batch.push(p);
        }
        self.dirty = true;
    }

    /// Append an exchange arrival **without** disturbing bin order: the
    /// particle joins the tail region (`offsets[ncols]..len`), is swept
    /// per-particle until the next rebin, and does not force an early
    /// counting sort — this is what keeps the rebin amortized under
    /// steady migration traffic. The particle must be homed (inside this
    /// store's column range) so the eventual rebin stays in range.
    pub fn push_tail(&mut self, p: Particle) {
        self.batch.push(p);
    }

    /// Drain every particle whose *current* cell fails `keep(col, row)`
    /// into `out`, preserving bin order (stable in-place compaction of
    /// all eleven arrays with an offsets fix-up) — the exchange path, run
    /// every step without an AoS round-trip. Returns the drain count.
    pub fn drain_leavers_into(
        &mut self,
        grid: &Grid,
        keep: impl FnMut(usize, usize) -> bool,
        out: impl FnMut(Particle),
    ) -> usize {
        self.drain_leavers_cols_into(grid, |_| true, keep, out)
    }

    /// [`Self::drain_leavers_into`] restricted to the bins of global
    /// columns for which `active(col)` is true, plus the tail region
    /// (arrivals may sit in any column and are always tested). Inactive
    /// bins compact wholesale without the `keep` test — the rank exchange
    /// drains only the bins within drift reach of a subdomain edge this
    /// way. The caller guarantees inactive columns hold no leavers; when
    /// the store is dirty the binning is stale, so every particle is
    /// tested regardless.
    pub fn drain_leavers_cols_into(
        &mut self,
        grid: &Grid,
        mut active: impl FnMut(usize) -> bool,
        mut keep: impl FnMut(usize, usize) -> bool,
        mut out: impl FnMut(Particle),
    ) -> usize {
        let n = self.batch.len();
        let mut w = 0usize;
        let mut r = 0usize;
        if self.dirty {
            // Structural edits queued a rebin: offsets are stale, so the
            // whole batch compacts as one unbinned region and the next
            // sweep's rebin rebuilds the prefix sums.
            while r < n {
                let (c, row) = grid.cell_of_point(self.batch.x[r], self.batch.y[r]);
                if keep(c, row) {
                    if w != r {
                        self.batch.copy_element(r, w);
                    }
                    w += 1;
                } else {
                    out(self.batch.get(r));
                }
                r += 1;
            }
        } else {
            for b in 0..self.ncols {
                // `offsets[b+1]` still holds the *old* end of bin `b`:
                // the fix-up below only rewrites entries already walked.
                let end = self.offsets[b + 1];
                if !active(self.col_lo + b) {
                    // Whole span keeps; shift it left past earlier holes.
                    if w != r {
                        for i in r..end {
                            self.batch.copy_element(i, w + (i - r));
                        }
                    }
                    w += end - r;
                    r = end;
                    self.offsets[b + 1] = w;
                    continue;
                }
                while r < end {
                    let (c, row) = grid.cell_of_point(self.batch.x[r], self.batch.y[r]);
                    if keep(c, row) {
                        if w != r {
                            self.batch.copy_element(r, w);
                        }
                        w += 1;
                    } else {
                        out(self.batch.get(r));
                    }
                    r += 1;
                }
                self.offsets[b + 1] = w;
            }
            // Tail arrivals compact too; they stay outside the offsets.
            while r < n {
                let (c, row) = grid.cell_of_point(self.batch.x[r], self.batch.y[r]);
                if keep(c, row) {
                    if w != r {
                        self.batch.copy_element(r, w);
                    }
                    w += 1;
                } else {
                    out(self.batch.get(r));
                }
                r += 1;
            }
        }
        self.batch.truncate(w);
        let removed = n - w;
        if removed > 0 {
            // Span ends moved: recompute the bin→worker assignment lazily.
            self.owner_slots = 0;
        }
        removed
    }

    /// Apply a removal event: up to `count` particles inside `region`,
    /// lowest ids first — identical selection rule to the other stores.
    pub fn remove_in_region(&mut self, region: &Region, count: u64) -> Vec<Particle> {
        self.dirty = true;
        self.batch.remove_in_region(region, count)
    }

    /// Remove every particle whose id is in `doomed` (the distributed
    /// removal event, where the global lowest-id selection is computed
    /// across ranks first). Order-preserving; marks the store dirty.
    pub fn remove_ids(&mut self, doomed: &HashSet<u64>) -> Vec<Particle> {
        self.dirty = true;
        self.batch.remove_ids(doomed)
    }

    /// Materialize the population in **canonical order** (ascending id —
    /// the order every unbinned store maintains physically). Allocates;
    /// verification/checkpoint path, not the steady state.
    pub fn to_particles(&self) -> Vec<Particle> {
        let mut ps = self.batch.to_particles();
        ps.sort_unstable_by_key(|p| p.id);
        ps
    }

    /// Physical index of the particle at canonical (ascending-id) index
    /// `idx` — failure-injection tests *only* (O(n log n)).
    fn physical_index(&self, idx: usize) -> usize {
        let mut order: Vec<usize> = (0..self.batch.len()).collect();
        order.sort_unstable_by_key(|&i| self.batch.id[i]);
        order[idx]
    }

    /// Read the particle at canonical index `idx` — failure-injection
    /// tests *only*.
    pub fn particle_at(&self, idx: usize) -> Particle {
        self.batch.get(self.physical_index(idx))
    }

    /// Overwrite the particle at canonical index `idx` — failure-injection
    /// tests *only*. Marks the store dirty (the edit may move the particle
    /// out of its bin or off the parity lattice).
    pub fn set(&mut self, idx: usize, p: Particle) {
        let i = self.physical_index(idx);
        self.batch.set(i, p);
        self.dirty = true;
    }

    /// Remove and return the particle with the largest id (the canonical
    /// tail, matching `Vec::pop` on an ascending-id AoS store) —
    /// failure-injection tests *only*.
    pub fn pop(&mut self) -> Option<Particle> {
        if self.batch.is_empty() {
            return None;
        }
        let i = self.physical_index(self.batch.len() - 1);
        self.dirty = true;
        Some(self.batch.swap_remove(i))
    }

    /// Sum of ids (checksum contribution) — order-independent.
    pub fn id_sum(&self) -> u128 {
        self.batch.id_sum()
    }
}

/// How a rebin moves the particles into bin order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gather {
    /// Already in bin order: nothing moves.
    Identity,
    /// A few contiguous runs: one block move per run.
    Blocks,
    /// More runs than the bound: per-element scatter.
    Scatter,
}

/// Gather `src` into `dst` under `perm` (`dst[perm[i]] = src[i]`): by one
/// `copy_from_slice` per run per field when `runs` lists the permutation's
/// contiguous runs (see [`BinnedStore`]'s `runs`), else by per-element
/// scatter. Every slot is written, so `dst` is only padded where it must
/// grow, never zero-filled first.
fn gather(
    src: &ParticleBatch,
    dst: &mut ParticleBatch,
    perm: &[usize],
    runs: Option<&[(usize, usize)]>,
) {
    let n = src.len();
    macro_rules! gather_field {
        ($f:ident, $zero:expr) => {
            dst.$f.truncate(n);
            dst.$f.resize(n, $zero);
            match runs {
                Some(runs) => {
                    for (r, &(s, d)) in runs.iter().enumerate() {
                        let end = runs.get(r + 1).map_or(n, |&(next, _)| next);
                        dst.$f[d..d + (end - s)].copy_from_slice(&src.$f[s..end]);
                    }
                }
                None => {
                    for (i, &d) in perm.iter().enumerate() {
                        dst.$f[d] = src.$f[i];
                    }
                }
            }
        };
    }
    gather_field!(id, 0);
    gather_field!(x, 0.0);
    gather_field!(y, 0.0);
    gather_field!(vx, 0.0);
    gather_field!(vy, 0.0);
    gather_field!(q, 0.0);
    gather_field!(x0, 0.0);
    gather_field!(y0, 0.0);
    gather_field!(k, 0);
    gather_field!(m, 0);
    gather_field!(born_at, 0);
}

/// The force-and-integrate half of the parity-specialized sweep kernel
/// ([`advance_bin_span`]), exposed separately so the SIMD layer can run
/// span tails (`len mod 4`) through exactly this code.
#[inline(always)]
pub(crate) fn force_span(
    consts: &SimConstants,
    q_left: f64,
    x: &mut [f64],
    y: &mut [f64],
    vx: &mut [f64],
    vy: &mut [f64],
    q: &[f64],
) {
    let dt = consts.dt;
    let h = consts.h;
    let q_right = -q_left;
    for i in 0..x.len() {
        let xi = x[i];
        let yi = y[i];
        // `cell_of` minus the defensive clamp: wrapped coordinates lie in
        // [0, L), where the truncation alone yields the identical index.
        let col = xi as usize;
        let row = yi as usize;
        // The parity invariant (module docs): every particle in the span
        // agrees with the hoisted corner charge.
        debug_assert_eq!(mesh_charge(col, consts.q), q_left, "parity drift at x={xi}");
        let rx = xi - col as f64;
        let ry = yi - row as f64;
        let qp = q[i];
        let (fx0, fy0) = coulomb(rx, ry, q_left, qp); // bottom-left
        let (fx1, fy1) = coulomb(rx, ry - h, q_left, qp); // top-left
        let (fx2, fy2) = coulomb(rx - h, ry, q_right, qp); // bottom-right
        let (fx3, fy3) = coulomb(rx - h, ry - h, q_right, qp); // top-right
        let ax = (fx0 + fx1) + (fx2 + fx3);
        let ay = (fy0 + fy1) + (fy2 + fy3);
        x[i] = xi + (vx[i] + 0.5 * ax * dt) * dt;
        y[i] = yi + (vy[i] + 0.5 * ay * dt) * dt;
        vx[i] += ax * dt;
        vy[i] += ay * dt;
    }
}

/// The parity-specialized sweep kernel: eqs. 1–2 over one bin-clipped
/// span whose particles all share mesh-corner charges `q_left` (left
/// column) and `−q_left` (right column). This is the scalar reference
/// the SIMD backends ([`crate::simd`]) are proven bit-identical against,
/// and the kernel the `Scalar` backend runs directly.
///
/// Per particle this is the *same operation sequence* as
/// `total_force` + the unbinned `advance_span`: the same four [`coulomb`]
/// corner evaluations in the same pairing, the same half-acceleration
/// integration, the same wrap. What the binning removes is per-particle
/// work that is invariant across the span: the `mesh_charge` parity
/// branches are gone (hoisted to `q_left`), and the force/integrate loop
/// ([`force_span`]) is split from the (branchy) wrap pass so the hot loop
/// is branch-free — `coulomb`'s zero-distance guard is a value select —
/// and eligible for autovectorization. Splitting is bit-neutral:
/// particles are independent and each particle's own operation order is
/// unchanged.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn advance_bin_span(
    grid: &Grid,
    consts: &SimConstants,
    q_left: f64,
    x: &mut [f64],
    y: &mut [f64],
    vx: &mut [f64],
    vy: &mut [f64],
    q: &[f64],
) {
    #[cfg(debug_assertions)]
    for i in 0..x.len() {
        debug_assert_eq!(
            (x[i] as usize, y[i] as usize),
            grid.cell_of_point(x[i], y[i])
        );
    }
    force_span(consts, q_left, x, y, vx, vy, q);
    for i in 0..x.len() {
        x[i] = grid.wrap_coord(x[i]);
        y[i] = grid.wrap_coord(y[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::init::InitConfig;
    use crate::pool::DEFAULT_CHUNK;
    use crate::verify::{triangular_id_sum, verify_all, DEFAULT_TOLERANCE};

    fn population(n: u64, dist: Distribution) -> (Grid, Vec<Particle>) {
        let grid = Grid::new(32).unwrap();
        let s = InitConfig::new(grid, n, dist)
            .with_k(1)
            .with_m(-1)
            .build()
            .unwrap();
        (grid, s.particles)
    }

    #[test]
    fn binning_orders_by_column_and_is_stable() {
        let (grid, ps) = population(500, Distribution::Geometric { r: 0.9 });
        let store = BinnedStore::new(&ps, &grid, 1);
        let b = store.batch();
        // Non-decreasing column across the batch…
        let cols: Vec<usize> = b.x.iter().map(|&x| grid.cell_of(x)).collect();
        assert!(cols.windows(2).all(|w| w[0] <= w[1]), "not column-sorted");
        // …ascending id within each bin (stability from canonical order).
        for c in 0..grid.ncells() {
            let span = &b.id[store.offsets[c]..store.offsets[c + 1]];
            assert!(span.windows(2).all(|w| w[0] < w[1]), "bin {c} unstable");
        }
    }

    #[test]
    fn rebin_with_shared_buffer_matches_rebin_and_keeps_no_scratch() {
        let (grid, ps) = population(400, Distribution::Geometric { r: 0.9 });
        let consts = SimConstants::CANONICAL;
        let mut own = BinnedStore::new(&ps, &grid, 3);
        let mut a = BinnedStore::new(&ps, &grid, 3);
        let mut b = BinnedStore::new(&ps[..200], &grid, 3);
        let mut spare = ParticleBatch::new();
        for _ in 0..12 {
            own.sweep_local(&grid, &consts, None);
            a.sweep_local(&grid, &consts, None);
            b.sweep_local(&grid, &consts, None);
            if own.rebin_due() {
                own.rebin(&grid);
                a.rebin_with(&grid, &mut spare);
                b.rebin_with(&grid, &mut spare);
                // The stores keep no gather buffer of their own.
                assert_eq!(a.scratch.x.capacity(), 0);
                assert_eq!(b.scratch.x.capacity(), 0);
            }
        }
        assert_eq!(own.to_particles(), a.to_particles());
        assert_eq!(a.batch().x, own.batch().x, "same bin order");
        assert_eq!(a.offsets, own.offsets);
        assert_eq!(b.len(), 200);
    }

    #[test]
    fn to_particles_restores_canonical_order() {
        let (grid, ps) = population(300, Distribution::Sinusoidal);
        let store = BinnedStore::new(&ps, &grid, 4);
        assert_eq!(store.to_particles(), ps);
        assert_eq!(store.id_sum(), triangular_id_sum(300));
    }

    #[test]
    fn binned_sweep_bitwise_matches_unbinned_for_rebin_intervals() {
        let (grid, ps) = population(400, Distribution::Geometric { r: 0.9 });
        let consts = SimConstants::CANONICAL;
        for rebin in [1u32, 3, 16] {
            let mut reference = ParticleBatch::from_particles(&ps);
            let mut binned = BinnedStore::new(&ps, &grid, rebin);
            for _ in 0..40 {
                reference.advance_all(&grid, &consts);
                binned.advance_all(&grid, &consts, DEFAULT_CHUNK);
            }
            let mut want = reference.to_particles();
            want.sort_unstable_by_key(|p| p.id);
            assert_eq!(want, binned.to_particles(), "rebin={rebin} diverged");
        }
    }

    #[test]
    fn binned_run_verifies() {
        let (grid, ps) = population(300, Distribution::PAPER_SKEW);
        let consts = SimConstants::CANONICAL;
        let mut store = BinnedStore::new(&ps, &grid, 3);
        for _ in 0..60 {
            store.advance_all(&grid, &consts, DEFAULT_CHUNK);
        }
        let report = verify_all(
            &grid,
            &store.to_particles(),
            60,
            triangular_id_sum(300),
            DEFAULT_TOLERANCE,
        );
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn histogram_fast_path_matches_scan() {
        let (grid, ps) = population(700, Distribution::Geometric { r: 0.8 });
        let consts = SimConstants::CANONICAL;
        let mut store = BinnedStore::new(&ps, &grid, 1);
        let mut fast = Vec::new();
        let mut scan = vec![0u64; grid.ncells()];
        for _ in 0..5 {
            store.advance_all(&grid, &consts, DEFAULT_CHUNK);
            assert!(store.histogram_is_fresh(), "R=1 must stay fresh");
            store.column_histogram_into(&grid, &mut fast);
            scan.iter_mut().for_each(|c| *c = 0);
            for &x in &store.batch().x {
                scan[grid.cell_of(x)] += 1;
            }
            assert_eq!(fast, scan);
        }
    }

    #[test]
    fn histogram_falls_back_when_stale() {
        let (grid, ps) = population(200, Distribution::Uniform);
        let consts = SimConstants::CANONICAL;
        let mut store = BinnedStore::new(&ps, &grid, 16);
        store.advance_all(&grid, &consts, DEFAULT_CHUNK);
        assert!(!store.histogram_is_fresh(), "age 1 of 16 is stale");
        let mut h = Vec::new();
        store.column_histogram_into(&grid, &mut h);
        assert_eq!(h.iter().sum::<u64>(), 200);
        // Fallback still reflects *current* positions, not the stale bins.
        let mut scan = vec![0u64; grid.ncells()];
        for &x in &store.batch().x {
            scan[grid.cell_of(x)] += 1;
        }
        assert_eq!(h, scan);
    }

    #[test]
    fn edits_mark_dirty_and_next_sweep_recovers() {
        let (grid, ps) = population(100, Distribution::Uniform);
        let consts = SimConstants::CANONICAL;
        let mut store = BinnedStore::new(&ps, &grid, 8);
        let doomed = store.remove_in_region(&Region::whole(32), 10);
        assert_eq!(doomed.len(), 10);
        assert!(!store.histogram_is_fresh());
        // The dirty rebin runs at the start of the next sweep; the sweep
        // itself then matches an unbinned sweep of the same survivors.
        let mut reference = ParticleBatch::from_particles(&store.to_particles());
        store.advance_all(&grid, &consts, DEFAULT_CHUNK);
        reference.advance_all(&grid, &consts);
        assert_eq!(store.len(), 90);
        assert_eq!(store.offsets[grid.ncells()], 90, "rebin saw the removal");
        assert_eq!(reference.to_particles(), store.to_particles());
    }

    #[test]
    fn fast_tier_stays_within_analytic_bound_and_verifies() {
        use crate::verify::analytic_tolerance;
        let (grid, ps) = population(400, Distribution::PAPER_SKEW);
        let consts = SimConstants::CANONICAL;
        let steps = 40u32;
        for backend in SimdBackend::available() {
            let mut exact = BinnedStore::new(&ps, &grid, 3);
            exact.set_simd_backend(backend);
            let mut fast = BinnedStore::new(&ps, &grid, 3);
            fast.set_simd_backend(backend);
            fast.set_kernel_tier(KernelTier::Fast);
            for _ in 0..steps {
                exact.advance_all(&grid, &consts, DEFAULT_CHUNK);
                fast.advance_all(&grid, &consts, DEFAULT_CHUNK);
            }
            // Drift vs the exact tier is bounded by the derived tolerance
            // (k = 1 → stride 3).
            let tol = analytic_tolerance(steps as u64, 3);
            let we = exact.to_particles();
            let wf = fast.to_particles();
            for (e, f) in we.iter().zip(&wf) {
                let d = grid
                    .periodic_delta(e.x, f.x)
                    .abs()
                    .max(grid.periodic_delta(e.y, f.y).abs());
                assert!(
                    d <= tol,
                    "backend {}: fast tier drifted {d:e} > {tol:e} (id {})",
                    backend.name(),
                    e.id
                );
            }
            // And the fast run itself passes the analytic eqs. 5–6 gate.
            let report = verify_all(&grid, &wf, steps, triangular_id_sum(400), tol);
            assert!(report.passed(), "backend {}: {report:?}", backend.name());
        }
    }

    #[test]
    fn fast_tier_scalar_backend_is_bit_identical() {
        // PIC_NO_SIMD semantics: the scalar backend must run the exact
        // kernel even in fast mode.
        let (grid, ps) = population(300, Distribution::Geometric { r: 0.9 });
        let consts = SimConstants::CANONICAL;
        let mut exact = BinnedStore::new(&ps, &grid, 1);
        exact.set_simd_backend(SimdBackend::Scalar);
        let mut fast = BinnedStore::new(&ps, &grid, 1);
        fast.set_simd_backend(SimdBackend::Scalar);
        fast.set_kernel_tier(KernelTier::Fast);
        for _ in 0..30 {
            exact.advance_all(&grid, &consts, DEFAULT_CHUNK);
            fast.advance_all(&grid, &consts, DEFAULT_CHUNK);
        }
        assert_eq!(exact.to_particles(), fast.to_particles());
    }

    #[test]
    fn thread_binding_is_bit_neutral() {
        // Binding changes scheduling only: an exact-tier bound sweep stays
        // bit-identical to the unbound sweep for every rebin interval.
        let (grid, ps) = population(500, Distribution::Geometric { r: 0.8 });
        let consts = SimConstants::CANONICAL;
        for rebin in [1u32, 3, 16] {
            let mut plain = BinnedStore::new(&ps, &grid, rebin);
            let mut bound = BinnedStore::new(&ps, &grid, rebin);
            bound.set_thread_binding(true);
            assert!(bound.thread_binding());
            for _ in 0..25 {
                plain.advance_all(&grid, &consts, DEFAULT_CHUNK);
                bound.advance_all(&grid, &consts, DEFAULT_CHUNK);
            }
            assert_eq!(
                plain.to_particles(),
                bound.to_particles(),
                "rebin={rebin} binding changed results"
            );
        }
    }

    #[test]
    fn owner_spans_cover_bin_aligned_and_balanced() {
        let (grid, ps) = population(1000, Distribution::Geometric { r: 0.85 });
        let mut store = BinnedStore::new(&ps, &grid, 1);
        for slots in [1usize, 2, 3, 7] {
            store.compute_owner_spans(slots);
            let spans = store.owner_spans.clone();
            assert_eq!(spans.len(), slots);
            // Contiguous cover of 0..n…
            assert_eq!(spans[0].0, 0);
            assert_eq!(spans[slots - 1].1, store.len());
            for w in spans.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            // …with every boundary on a bin boundary…
            for &(s, e) in &spans {
                assert!(store.offsets.contains(&s), "start {s} not bin-aligned");
                assert!(store.offsets.contains(&e), "end {e} not bin-aligned");
            }
            // …and no slot overloaded beyond the ideal share plus one bin.
            let max_bin = store
                .offsets
                .windows(2)
                .map(|w| w[1] - w[0])
                .max()
                .unwrap_or(0);
            for &(s, e) in &spans {
                assert!(
                    e - s <= store.len() / slots + max_bin,
                    "slots={slots}: span {s}..{e} overloaded"
                );
            }
        }
    }

    /// Reference rank loop: two subdomain stores exchanging via
    /// drain/push_tail, compared bitwise against the unbinned sweep.
    fn run_split_stores(
        charges: bool,
        rebin: u32,
        steps: u32,
        n: u64,
        dist: Distribution,
    ) -> (Vec<Particle>, Vec<Particle>) {
        let (grid, ps) = population(n, dist);
        let consts = SimConstants::CANONICAL;
        let ncells = grid.ncells();
        let mid = ncells / 2;
        let cg_left = ChargeGrid::build(&grid, &consts, (0, mid), (0, ncells));
        let cg_right = ChargeGrid::build(&grid, &consts, (mid, ncells), (0, ncells));
        let mut reference = ParticleBatch::from_particles(&ps);
        let split = |lo: usize, hi: usize| -> Vec<Particle> {
            ps.iter()
                .copied()
                .filter(|p| (lo..hi).contains(&grid.cell_of(p.x)))
                .collect()
        };
        let mut left = BinnedStore::new_subdomain(&split(0, mid), &grid, rebin, 0, mid);
        let mut right = BinnedStore::new_subdomain(&split(mid, ncells), &grid, rebin, mid, ncells);
        for _ in 0..steps {
            reference.advance_all(&grid, &consts);
            left.sweep_local(&grid, &consts, charges.then_some(&cg_left));
            right.sweep_local(&grid, &consts, charges.then_some(&cg_right));
            let (mut to_right, mut to_left) = (Vec::new(), Vec::new());
            left.drain_leavers_into(&grid, |c, _| c < mid, |p| to_right.push(p));
            right.drain_leavers_into(&grid, |c, _| c >= mid, |p| to_left.push(p));
            to_right.into_iter().for_each(|p| right.push_tail(p));
            to_left.into_iter().for_each(|p| left.push_tail(p));
            if left.rebin_due() {
                left.rebin(&grid);
            }
            if right.rebin_due() {
                right.rebin(&grid);
            }
        }
        let mut got = [left.to_particles(), right.to_particles()].concat();
        got.sort_unstable_by_key(|p| p.id);
        let mut want = reference.to_particles();
        want.sort_unstable_by_key(|p| p.id);
        (want, got)
    }

    #[test]
    fn subdomain_stores_with_drain_match_unbinned_sweep() {
        for rebin in [1u32, 3, 16] {
            let (want, got) =
                run_split_stores(false, rebin, 40, 600, Distribution::Geometric { r: 0.9 });
            assert_eq!(want, got, "rebin={rebin} diverged");
        }
    }

    #[test]
    fn subdomain_charge_grid_source_is_bit_identical() {
        // The ghost-ringed ChargeGrid stores exactly `mesh_charge(col, q)`,
        // so reading per-bin corner charges from it must not change a bit.
        for rebin in [1u32, 3] {
            let (want, got) = run_split_stores(true, rebin, 40, 500, Distribution::PAPER_SKEW);
            assert_eq!(want, got, "rebin={rebin}: charge-grid source diverged");
        }
    }

    #[test]
    fn drain_cols_skips_inactive_bins_and_matches_full_drain() {
        let (grid, ps) = population(700, Distribution::Geometric { r: 0.85 });
        let mid = grid.ncells() / 2;
        let mut full = BinnedStore::new(&ps, &grid, 1);
        let mut restricted = BinnedStore::new(&ps, &grid, 1);
        let mut gone_full = Vec::new();
        // Leavers here are exactly the particles in columns ≥ mid, so the
        // active set {c ≥ mid} covers every leaver.
        let a = full.drain_leavers_into(&grid, |c, _| c < mid, |p| gone_full.push(p));
        let mut gone_restricted = Vec::new();
        let mut tested_inactive = false;
        let b = restricted.drain_leavers_cols_into(
            &grid,
            |c| c >= mid,
            |c, _| {
                tested_inactive |= c < mid;
                c < mid
            },
            |p| gone_restricted.push(p),
        );
        assert_eq!(a, b);
        assert!(!tested_inactive, "inactive bins must skip the keep test");
        assert_eq!(gone_full.len(), gone_restricted.len());
        assert_eq!(full.to_particles(), restricted.to_particles());
        assert!(restricted.histogram_is_fresh(), "offsets fixed up");
        let mut fa = Vec::new();
        let mut fb = Vec::new();
        full.column_histogram_into(&grid, &mut fa);
        restricted.column_histogram_into(&grid, &mut fb);
        assert_eq!(fa, fb);
    }

    #[test]
    fn drain_keeps_bins_consistent_and_histogram_fast_path() {
        let (grid, ps) = population(800, Distribution::Geometric { r: 0.85 });
        let mut store = BinnedStore::new(&ps, &grid, 1);
        // Freshly rebinned: drain everything right of the midline.
        let mid = grid.ncells() / 2;
        let mut gone = Vec::new();
        let removed = store.drain_leavers_into(&grid, |c, _| c < mid, |p| gone.push(p));
        assert_eq!(removed, gone.len());
        assert_eq!(store.len() + removed, 800);
        // Offsets were fixed up in place: still fresh, histogram matches a
        // scan and the survivors stay column-sorted.
        assert!(store.histogram_is_fresh());
        let mut fast = Vec::new();
        store.column_histogram_into(&grid, &mut fast);
        let mut scan = vec![0u64; grid.ncells()];
        for &x in &store.batch().x {
            scan[grid.cell_of(x)] += 1;
        }
        assert_eq!(fast, scan);
        assert!(scan[mid..].iter().all(|&c| c == 0));
        let cols: Vec<usize> = store.batch().x.iter().map(|&x| grid.cell_of(x)).collect();
        assert!(cols.windows(2).all(|w| w[0] <= w[1]), "order broken");
        let gone_sum: u128 = gone.iter().map(|p| p.id as u128).sum();
        assert_eq!(store.id_sum() + gone_sum, triangular_id_sum(800));
    }

    #[test]
    fn push_tail_defers_rebin_and_set_columns_reanchors() {
        let (grid, ps) = population(300, Distribution::Uniform);
        let consts = SimConstants::CANONICAL;
        let ncells = grid.ncells();
        let mid = ncells / 2;
        let left_ps: Vec<Particle> = ps
            .iter()
            .copied()
            .filter(|p| grid.cell_of(p.x) < mid)
            .collect();
        let mut store = BinnedStore::new_subdomain(&left_ps, &grid, 16, 0, mid);
        assert_eq!(store.columns(), (0, mid));
        store.sweep_local(&grid, &consts, None);
        let before = store.rebin_count();
        // A tail arrival must not force an early counting sort…
        let arrival = ps
            .iter()
            .copied()
            .find(|p| grid.cell_of(p.x) < mid)
            .map(|mut p| {
                p.id = 10_000;
                p
            })
            .unwrap();
        store.push_tail(arrival);
        assert_eq!(store.tail_len(), 1);
        store.sweep_local(&grid, &consts, None);
        assert_eq!(store.rebin_count(), before, "tail push forced a rebin");
        // …and a cut move re-anchors the column range (everything is
        // inside [0, mid), so widening the range is always legal).
        store.set_columns(&grid, 0, ncells);
        assert_eq!(store.columns(), (0, ncells));
        assert_eq!(store.tail_len(), 0, "set_columns folds the tail");
        assert!(store.histogram_is_fresh());
    }

    #[test]
    fn pop_removes_largest_id() {
        let (grid, ps) = population(50, Distribution::Sinusoidal);
        let mut store = BinnedStore::new(&ps, &grid, 1);
        let p = store.pop().unwrap();
        assert_eq!(p.id, 50);
        assert_eq!(store.len(), 49);
        assert_eq!(store.particle_at(0).id, 1);
    }

    #[test]
    fn empty_store_is_harmless() {
        let grid = Grid::new(8).unwrap();
        let mut store = BinnedStore::new(&[], &grid, 1);
        store.advance_all(&grid, &SimConstants::CANONICAL, DEFAULT_CHUNK);
        assert!(store.is_empty());
        assert!(store.pop().is_none());
        let mut h = Vec::new();
        store.column_histogram_into(&grid, &mut h);
        assert!(h.iter().all(|&c| c == 0));
    }

    /// Every field of every particle as raw bits, in storage order.
    fn batch_bits(b: &ParticleBatch) -> Vec<[u64; 11]> {
        (0..b.len())
            .map(|i| {
                let p = b.get(i);
                [
                    p.id,
                    p.x.to_bits(),
                    p.y.to_bits(),
                    p.vx.to_bits(),
                    p.vy.to_bits(),
                    p.q.to_bits(),
                    p.x0.to_bits(),
                    p.y0.to_bits(),
                    p.k as u64,
                    p.m as u32 as u64,
                    p.born_at as u64,
                ]
            })
            .collect()
    }

    /// Every contiguous run of `perm`, unbounded.
    fn all_runs(perm: &[usize]) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for (i, &d) in perm.iter().enumerate() {
            if i == 0 || d != perm[i - 1] + 1 {
                runs.push((i, d));
            }
        }
        runs
    }

    /// Destinations a rebin may gather into: empty, shorter than the
    /// store, and longer than it, all holding stale values.
    fn stale_destinations(n: usize) -> Vec<ParticleBatch> {
        let junk = |len: usize| {
            let mut b = ParticleBatch::new();
            for i in 0..len {
                b.push(Particle {
                    id: u64::MAX - i as u64,
                    x: f64::NAN,
                    y: -1.0,
                    vx: 7.0,
                    vy: 7.0,
                    q: 7.0,
                    x0: 7.0,
                    y0: 7.0,
                    k: 7,
                    m: -7,
                    born_at: 7,
                });
            }
            b
        };
        vec![junk(0), junk(n / 2), junk(n + 10)]
    }

    /// Sort `store`'s permutation, then gather it by scatter and by block
    /// moves over every run into each stale destination: both must write
    /// `dst[perm[i]] = src[i]`, bit for bit. Returns the gather the rebin
    /// chose.
    fn gathers_agree(store: &mut BinnedStore, grid: &Grid) -> Gather {
        let path = store.sort_permutation(grid);
        let n = store.len();
        let runs = all_runs(&store.perm);
        if path != Gather::Scatter {
            assert_eq!(store.runs, runs, "recorded runs");
        }
        let src = batch_bits(&store.batch);
        let mut want = vec![[0u64; 11]; n];
        for (i, &d) in store.perm.iter().enumerate() {
            want[d] = src[i];
        }
        for stale in stale_destinations(n) {
            let len = stale.len();
            let mut scattered = stale.clone();
            gather(&store.batch, &mut scattered, &store.perm, None);
            assert_eq!(batch_bits(&scattered), want, "scatter over {len} stale");
            let mut blocked = stale;
            gather(&store.batch, &mut blocked, &store.perm, Some(&runs));
            assert_eq!(batch_bits(&blocked), want, "blocks over {len} stale");
        }
        path
    }

    /// A distinct-valued particle at the center of cell `(col, row)`.
    fn particle_in(grid: &Grid, id: u64, col: usize, row: usize) -> Particle {
        let (x, y) = grid.cell_center(col, row);
        Particle {
            id,
            x,
            y,
            vx: id as f64 * 0.5,
            vy: -(id as f64),
            q: 1.0 + id as f64,
            x0: x,
            y0: y,
            k: id as u32,
            m: -(id as i32),
            born_at: id as u32 % 5,
        }
    }

    #[test]
    fn drifting_store_wraps_into_two_block_moves() {
        let grid = Grid::new(32).unwrap();
        let ps = InitConfig::new(grid, 2_000, Distribution::Uniform)
            .build()
            .unwrap()
            .particles;
        let consts = SimConstants::CANONICAL;
        let mut store = BinnedStore::new(&ps, &grid, 64);
        for _ in 0..5 {
            store.sweep_local(&grid, &consts, None);
        }
        // The five right-most bins wrapped to the front: two runs.
        assert_eq!(gathers_agree(&mut store, &grid), Gather::Blocks);
        assert_eq!(store.runs.len(), 2);
    }

    #[test]
    fn drained_store_with_tail_arrivals_gathers_by_blocks() {
        let grid = Grid::new(32).unwrap();
        let mut id = 0u64;
        let mut next = |col: usize, row: usize| {
            id += 1;
            particle_in(&grid, id, col, row)
        };
        let survivors: Vec<Particle> = (0..400).map(|i| next(12 + i % 8, i % 32)).collect();
        let mut store = BinnedStore::new_subdomain(&survivors, &grid, 64, 8, 24);
        let drained = store.drain_leavers_into(&grid, |c, r| (c + r) % 7 != 0, |_| {});
        assert!(drained > 0);
        // Arrivals from both neighbours, interleaved as their messages
        // land: column-sorted left (columns 8–11) and right (columns
        // 20–23) blocks.
        for cols in [8..10, 20..22, 10..12, 22..24] {
            for i in 0..60 {
                let p = next(cols.start + i * cols.len() / 60, i % 32);
                store.push_tail(p);
            }
        }
        assert_eq!(gathers_agree(&mut store, &grid), Gather::Blocks);
        assert_eq!(store.runs.len(), 5);
    }

    #[test]
    fn scrambled_store_falls_back_to_scatter() {
        let grid = Grid::new(32).unwrap();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let ps: Vec<Particle> = (1..=2_000u64)
            .map(|id| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                particle_in(
                    &grid,
                    id,
                    (state >> 59) as usize,
                    (state >> 40) as usize % 32,
                )
            })
            .collect();
        let mut store = BinnedStore::new(&ps, &grid, 64);
        // Re-scramble the binned order so the next sort is random again.
        let mut shuffled = store.batch.clone();
        for i in 0..shuffled.len() {
            let j = (i * 7919) % shuffled.len();
            let (a, b) = (shuffled.get(i), shuffled.get(j));
            shuffled.set(i, b);
            shuffled.set(j, a);
        }
        store.batch = shuffled;
        assert_eq!(gathers_agree(&mut store, &grid), Gather::Scatter);
        assert!(all_runs(&store.perm).len() > store.len() / MIN_MEAN_RUN);
    }

    #[test]
    fn rebin_of_sorted_store_moves_nothing() {
        let (grid, ps) = population(500, Distribution::Geometric { r: 0.9 });
        let mut store = BinnedStore::new(&ps, &grid, 1);
        let before = batch_bits(store.batch());
        assert_eq!(store.sort_permutation(&grid), Gather::Identity);
        store.rebin(&grid);
        assert_eq!(batch_bits(store.batch()), before);
        assert_eq!(store.scratch.len(), 0, "no gather ran");
    }
}
