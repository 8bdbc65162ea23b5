//! Particle exchange between ranks.
//!
//! After each step (and after every re-decomposition), particles whose
//! containing cell left the local subdomain are routed to their new owner.
//! Destinations are usually the four Cartesian neighbors (particles move
//! `2k+1 ≪ strip width` cells per step), but the implementation handles
//! arbitrary hops — the paper allows "high particle speeds, in which case
//! load imbalances have a more (pseudo-)random nature" — via an
//! owner-directed personalized all-to-all.
//!
//! There is one path (DESIGN.md §14): drain the leavers, stage one typed
//! `Vec<Particle>` bucket per destination, move the buckets through one
//! dense synchronous all-to-all, and file the arrivals into the tail. The
//! per-step drain of a binned store tests only the bins a [`DriftReach`]
//! window says can hold a leaver.

use crate::decomp::Decomp2d;
use pic_comm::collective::alltoallv_take_into;
use pic_comm::comm::Communicator;
use pic_core::bin::BinnedStore;
use pic_core::events::EventKind;
use pic_core::geometry::Grid;
use pic_core::init::SimulationSetup;
use pic_core::particle::Particle;
use std::ops::Range;

/// Upper bound on recycled wire buffers held between steps (bounds the
/// capacity the free-list can pin on wildly asymmetric traffic).
const MAX_SPARE_BUFS: usize = 64;

/// Reusable scratch for the exchange path: per-destination staging
/// buckets, the kept-particle buffer and the arrival buckets. Holding one
/// of these in per-rank state makes the steady-state exchange loop
/// allocation-free on the staging side — buckets are `clear()`ed, not
/// dropped, and wire buffers are *recycled*: every bucket handed to the
/// transport surrenders its ownership (channel transfer, like an MPI send
/// buffer), but the buckets received from other ranks donate their
/// capacity back to the free-list afterwards, so steady symmetric traffic
/// circulates buffers instead of allocating them.
#[derive(Debug, Default)]
pub struct ExchangeBuffers {
    /// Per-destination staging buckets. They go on the wire as-is (slots
    /// are emptied by the take-based all-to-all and refilled from `spare`
    /// next step).
    outgoing: Vec<Vec<Particle>>,
    kept: Vec<Particle>,
    /// Arrival buckets (outer vector reused across steps).
    inbox: Vec<Vec<Particle>>,
    /// Recycled arrival buckets feeding the next staging pass.
    spare: Vec<Vec<Particle>>,
    /// Payload messages put on the wire since the last counter take.
    msgs_sent: u64,
}

impl ExchangeBuffers {
    pub fn new() -> ExchangeBuffers {
        ExchangeBuffers::default()
    }

    /// Drain the wire-message count accumulated since the previous take
    /// (the dense all-to-all sends `P` payloads per call, the
    /// self-delivery included). Feeds the `msgs_sent` trace counter.
    pub fn take_message_counts(&mut self) -> u64 {
        std::mem::take(&mut self.msgs_sent)
    }

    /// Prepare the per-destination staging buckets for a new exchange:
    /// size the outer vector, clear every bucket, and refill
    /// empty-capacity slots (the sends consumed them) from the free-list.
    fn begin_staging(&mut self, nranks: usize) {
        self.outgoing.resize_with(nranks, Vec::new);
        for slot in &mut self.outgoing {
            slot.clear();
            if slot.capacity() == 0 {
                if let Some(recycled) = self.spare.pop() {
                    *slot = recycled;
                }
            }
        }
    }

    /// Move the staged buckets through the all-to-all and deliver every
    /// arrival (in source-rank order, self excluded) to `sink`, recycling
    /// the arrival buckets afterwards. Returns the particle count
    /// delivered.
    fn exchange(&mut self, comm: &Communicator, mut sink: impl FnMut(Particle)) -> usize {
        alltoallv_take_into(comm, &mut self.outgoing, &mut self.inbox);
        self.msgs_sent += comm.size() as u64;
        let me = comm.rank();
        let mut received = 0usize;
        for (src, bucket) in self.inbox.iter_mut().enumerate() {
            if src == me {
                continue;
            }
            received += bucket.len();
            for p in bucket.drain(..) {
                sink(p);
            }
        }
        for mut bucket in self.inbox.drain(..) {
            if bucket.capacity() > 0 && self.spare.len() < MAX_SPARE_BUFS {
                bucket.clear();
                self.spare.push(bucket);
            }
        }
        received
    }
}

/// Per-step drift bounds of a whole run — the initial population and
/// every scheduled injection — from the analytic motion contract: a
/// particle moves exactly `2k + 1` columns per step in its drift direction
/// and `m` rows. They bound which bins of a binned store can hold a
/// particle that left the store's tile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriftReach {
    /// Largest per-step column stride toward −x (0 when nothing drifts
    /// left).
    reach_left: usize,
    /// Largest per-step column stride toward +x (0 when nothing drifts
    /// right).
    reach_right: usize,
    /// Largest per-step row hop `|m|`; 0 means no particle changes row.
    max_abs_m: i64,
}

impl DriftReach {
    /// The bounds over `setup`'s population and every injection event.
    pub fn of_setup(setup: &SimulationSetup) -> DriftReach {
        let mut reach = DriftReach::default();
        for p in &setup.particles {
            reach.include(p.direction(&setup.grid), p.k, p.m);
        }
        for e in &setup.events {
            if let EventKind::Inject { k, m, dir, .. } = e.kind {
                reach.include(dir, k, m);
            }
        }
        reach
    }

    fn include(&mut self, dir: i8, k: u32, m: i32) {
        let stride = 2 * k as usize + 1;
        if dir < 0 {
            self.reach_left = self.reach_left.max(stride);
        } else {
            self.reach_right = self.reach_right.max(stride);
        }
        self.max_abs_m = self.max_abs_m.max((m as i64).abs());
    }

    /// The columns of the slab `[x0, x1)` whose bins cannot hold a
    /// particle that left the slab through an x-edge, `age` sweeps after
    /// the last rebin: a particle binned in column `c` now sits at most
    /// `reach_left · age` columns left or `reach_right · age` columns
    /// right of `c`, so only bins within that distance of an edge can
    /// hold a leaver.
    fn interior(&self, (x0, x1): (usize, usize), age: u32) -> Range<usize> {
        let age = age as usize;
        let lo = x0
            .saturating_add(self.reach_left.saturating_mul(age))
            .min(x1);
        let hi = x1
            .saturating_sub(self.reach_right.saturating_mul(age))
            .max(lo);
        lo..hi
    }

    /// The drain window of a store binned over the tile `cols × rows` of
    /// an `ncells` grid, `age` sweeps after its last rebin: the predicate
    /// on a bin's global column that says whether the bin may hold a
    /// leaver. That is every bin when particles change rows and the tile
    /// has a y-edge (a row leaver can sit in any column), and otherwise
    /// the bins outside `[x0 + reach_left · age, x1 − reach_right · age)`.
    pub fn drain_window(
        &self,
        cols: (usize, usize),
        rows: (usize, usize),
        ncells: usize,
        age: u32,
    ) -> impl Fn(usize) -> bool {
        let rows_crossable = self.max_abs_m > 0 && rows != (0, ncells);
        let interior = self.interior(cols, age);
        move |c| rows_crossable || !interior.contains(&c)
    }
}

/// Route every particle whose `owner(particle)` is not `my_rank` to that
/// owner (a communicator rank). Appends the arrivals to `particles`.
/// Returns `(sent, received)` particle counts.
///
/// This is the general routing primitive: the baseline/diffusion codes
/// derive ownership from the Cartesian decomposition; the AMPI runtime
/// derives it from the VP→core assignment table.
pub fn route_particles<F>(
    comm: &Communicator,
    my_rank: usize,
    owner: F,
    particles: &mut Vec<Particle>,
) -> (usize, usize)
where
    F: Fn(&Particle) -> usize,
{
    let mut bufs = ExchangeBuffers::new();
    route_particles_with(comm, my_rank, owner, particles, &mut bufs)
}

/// [`route_particles`] with caller-owned scratch buffers (see
/// [`ExchangeBuffers`]). The hot path for per-step rehoming.
pub fn route_particles_with<F>(
    comm: &Communicator,
    my_rank: usize,
    owner: F,
    particles: &mut Vec<Particle>,
    bufs: &mut ExchangeBuffers,
) -> (usize, usize)
where
    F: Fn(&Particle) -> usize,
{
    debug_assert_eq!(comm.rank(), my_rank);
    bufs.begin_staging(comm.size());
    bufs.kept.clear();
    bufs.kept.reserve(particles.len());
    let mut sent = 0usize;
    for p in particles.drain(..) {
        let dst = owner(&p);
        debug_assert!(dst < comm.size(), "owner {dst} out of range");
        if dst == my_rank {
            bufs.kept.push(p);
        } else {
            sent += 1;
            bufs.outgoing[dst].push(p);
        }
    }
    std::mem::swap(particles, &mut bufs.kept);
    let received = bufs.exchange(comm, |p| particles.push(p));
    (sent, received)
}

/// The binned-path exchange: drain every mis-homed particle straight out
/// of the rank's [`BinnedStore`] (stable in-place compaction — no AoS
/// round-trip), route it to `owner(col, row)`, and append arrivals to the
/// store's tail region, leaving the amortized rebin schedule untouched.
/// Returns `(sent, received)` particle counts.
pub fn route_binned_with<F>(
    comm: &Communicator,
    my_rank: usize,
    owner: F,
    store: &mut BinnedStore,
    grid: &Grid,
    bufs: &mut ExchangeBuffers,
) -> (usize, usize)
where
    F: Fn(usize, usize) -> usize,
{
    route_binned_cols_with(comm, my_rank, owner, |_| true, store, grid, bufs)
}

/// [`route_binned_with`] draining only the bins whose **global column**
/// satisfies `active` (plus the tail region, which is always tested) —
/// the per-step exchange passes a [`DriftReach::drain_window`] here. The
/// caller guarantees inactive columns hold no leavers.
pub(crate) fn route_binned_cols_with<F>(
    comm: &Communicator,
    my_rank: usize,
    owner: F,
    active: impl FnMut(usize) -> bool,
    store: &mut BinnedStore,
    grid: &Grid,
    bufs: &mut ExchangeBuffers,
) -> (usize, usize)
where
    F: Fn(usize, usize) -> usize,
{
    debug_assert_eq!(comm.rank(), my_rank);
    bufs.begin_staging(comm.size());
    let outgoing = &mut bufs.outgoing;
    let nranks = comm.size();
    let sent = store.drain_leavers_cols_into(
        grid,
        active,
        |c, r| owner(c, r) == my_rank,
        |p| {
            let (c, r) = grid.cell_of_point(p.x, p.y);
            let dst = owner(c, r);
            debug_assert!(dst < nranks && dst != my_rank, "bad destination {dst}");
            outgoing[dst].push(p);
        },
    );
    let received = bufs.exchange(comm, |p| store.push_tail(p));
    (sent, received)
}

/// [`route_binned_with`] under the Cartesian decomposition — the binned
/// analogue of [`rehome_particles_with`].
pub fn rehome_binned_with(
    comm: &Communicator,
    decomp: &Decomp2d,
    grid: &Grid,
    my_rank: usize,
    store: &mut BinnedStore,
    bufs: &mut ExchangeBuffers,
) -> (usize, usize) {
    debug_assert_eq!(comm.size(), decomp.ranks());
    route_binned_with(
        comm,
        my_rank,
        |c, r| decomp.owner_of_cell(c, r),
        store,
        grid,
        bufs,
    )
}

/// Route every particle not owned by `my_rank` under the Cartesian
/// decomposition to its owner. Returns `(sent, received)` counts.
pub fn rehome_particles(
    comm: &Communicator,
    decomp: &Decomp2d,
    grid: &Grid,
    my_rank: usize,
    particles: &mut Vec<Particle>,
) -> (usize, usize) {
    let mut bufs = ExchangeBuffers::new();
    rehome_particles_with(comm, decomp, grid, my_rank, particles, &mut bufs)
}

/// [`rehome_particles`] with caller-owned scratch buffers.
pub fn rehome_particles_with(
    comm: &Communicator,
    decomp: &Decomp2d,
    grid: &Grid,
    my_rank: usize,
    particles: &mut Vec<Particle>,
    bufs: &mut ExchangeBuffers,
) -> (usize, usize) {
    debug_assert_eq!(comm.size(), decomp.ranks());
    route_particles_with(
        comm,
        my_rank,
        |p| {
            let (col, row) = grid.cell_of_point(p.x, p.y);
            decomp.owner_of_cell(col, row)
        },
        particles,
        bufs,
    )
}

/// Partition a full population down to the particles owned by `rank`.
pub fn local_slice(decomp: &Decomp2d, grid: &Grid, rank: usize, all: &[Particle]) -> Vec<Particle> {
    all.iter()
        .filter(|p| {
            let (col, row) = grid.cell_of_point(p.x, p.y);
            decomp.owner_of_cell(col, row) == rank
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_comm::world::run_threads;
    use pic_core::dist::Distribution;
    use pic_core::init::InitConfig;

    fn setup(n: u64) -> (Grid, Vec<Particle>) {
        let grid = Grid::new(16).unwrap();
        let s = InitConfig::new(grid, n, Distribution::Uniform)
            .build()
            .unwrap();
        (grid, s.particles)
    }

    #[test]
    fn local_slices_partition_population() {
        let (grid, all) = setup(333);
        let decomp = Decomp2d::uniform(16, 4);
        let mut seen = 0usize;
        for r in 0..4 {
            seen += local_slice(&decomp, &grid, r, &all).len();
        }
        assert_eq!(seen, 333);
    }

    #[test]
    fn rehome_moves_everything_to_owners() {
        let (grid, all) = setup(200);
        let decomp = Decomp2d::uniform(16, 4);
        let totals = run_threads(4, |comm| {
            let rank = comm.rank();
            // Deliberately mis-assign: every rank starts with a strided
            // subset regardless of ownership.
            let mut mine: Vec<Particle> = all
                .iter()
                .filter(|p| (p.id as usize) % 4 == rank)
                .copied()
                .collect();
            let d = decomp.clone();
            rehome_particles(&comm, &d, &grid, rank, &mut mine);
            // Now everything local must be owned.
            for p in &mine {
                let (c, r) = grid.cell_of_point(p.x, p.y);
                assert_eq!(d.owner_of_cell(c, r), rank);
            }
            (mine.len(), mine.iter().map(|p| p.id as u128).sum::<u128>())
        });
        let total: usize = totals.iter().map(|t| t.0).sum();
        let idsum: u128 = totals.iter().map(|t| t.1).sum();
        assert_eq!(total, 200);
        assert_eq!(idsum, 200u128 * 201 / 2, "no particle lost or duplicated");
    }

    #[test]
    fn reused_buffers_match_fresh_allocation_routing() {
        // Route the same mis-assigned population twice per rank through one
        // ExchangeBuffers — the second pass (warm buffers) must behave
        // exactly like the allocating wrapper.
        let (grid, all) = setup(240);
        let decomp = Decomp2d::uniform(16, 4);
        let totals = run_threads(4, |comm| {
            let rank = comm.rank();
            let mut bufs = ExchangeBuffers::new();
            let mut fresh: Vec<Particle> = all
                .iter()
                .filter(|p| (p.id as usize) % 4 == rank)
                .copied()
                .collect();
            let mut warm = fresh.clone();
            rehome_particles(&comm, &decomp, &grid, rank, &mut fresh);
            // First pass warms the buckets, second pass reuses them.
            rehome_particles_with(&comm, &decomp, &grid, rank, &mut warm, &mut bufs);
            let (sent, received) =
                rehome_particles_with(&comm, &decomp, &grid, rank, &mut warm, &mut bufs);
            assert_eq!(sent, 0, "second pass must already be settled");
            assert_eq!(received, 0);
            let mut a: Vec<u64> = fresh.iter().map(|p| p.id).collect();
            let mut b: Vec<u64> = warm.iter().map(|p| p.id).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "warm-buffer routing must match fresh routing");
            warm.len()
        });
        assert_eq!(totals.iter().sum::<usize>(), 240);
    }

    #[test]
    fn binned_route_rehomes_and_matches_serial_sweep() {
        use pic_core::charge::SimConstants;
        use pic_core::soa::ParticleBatch;
        let (grid, all) = setup(400);
        let decomp = Decomp2d::columns(16, 4);
        let consts = SimConstants::CANONICAL;
        let steps = 12;
        let mut reference = ParticleBatch::from_particles(&all);
        for _ in 0..steps {
            reference.advance_all(&grid, &consts);
        }
        let mut want = reference.to_particles();
        want.sort_unstable_by_key(|p| p.id);
        let per_rank = run_threads(4, |comm| {
            let rank = comm.rank();
            let mine = local_slice(&decomp, &grid, rank, &all);
            let ((x0, x1), _) = decomp.bounds(rank);
            let mut store = BinnedStore::new_subdomain(&mine, &grid, 3, x0, x1);
            let mut bufs = ExchangeBuffers::new();
            for _ in 0..steps {
                store.sweep_local(&grid, &consts, None);
                rehome_binned_with(&comm, &decomp, &grid, rank, &mut store, &mut bufs);
                if store.rebin_due() {
                    store.rebin(&grid);
                }
            }
            let local = store.to_particles();
            for p in &local {
                let (c, r) = grid.cell_of_point(p.x, p.y);
                assert_eq!(decomp.owner_of_cell(c, r), rank, "mis-homed survivor");
            }
            local
        });
        let mut got: Vec<Particle> = per_rank.into_iter().flatten().collect();
        got.sort_unstable_by_key(|p| p.id);
        assert_eq!(want, got, "binned rank loop diverged from serial sweep");
    }

    #[test]
    fn rehome_noop_when_all_owned() {
        let (grid, all) = setup(100);
        let decomp = Decomp2d::uniform(16, 2);
        let counts = run_threads(2, |comm| {
            let rank = comm.rank();
            let mut mine = local_slice(&decomp, &grid, rank, &all);
            let before = mine.len();
            let (sent, received) = rehome_particles(&comm, &decomp, &grid, rank, &mut mine);
            assert_eq!(sent, 0);
            assert_eq!(received, 0);
            assert_eq!(mine.len(), before);
            before
        });
        assert_eq!(counts.iter().sum::<usize>(), 100);
    }

    #[test]
    fn drift_reach_covers_population_and_injections() {
        use pic_core::events::{Event, Region};
        let grid = Grid::new(16).unwrap();
        let setup = InitConfig::new(grid, 50, Distribution::Uniform)
            .with_k(1)
            .build()
            .unwrap()
            .with_event(Event::inject(3, Region::whole(16), 10, 0, -2, -1));
        let reach = DriftReach::of_setup(&setup);
        assert_eq!(
            reach,
            DriftReach {
                reach_left: 1,
                reach_right: 3,
                max_abs_m: 2,
            }
        );
        // Crossable rows drain every bin; a full-height tile only its
        // x-edge bins.
        let all_rows = reach.drain_window((4, 12), (0, 8), 16, 1);
        assert!((4..12).all(&all_rows));
        let edges = reach.drain_window((4, 12), (0, 16), 16, 1);
        let drained: Vec<usize> = (4..12).filter(|&c| edges(c)).collect();
        assert_eq!(drained, vec![4, 9, 10, 11]);
    }

    /// The drain window is exact: after every sweep since the last rebin,
    /// draining only its bins leaves no leaver behind, and shrinking it by
    /// one column on either side does.
    #[test]
    fn drift_reach_window_is_sound_and_tight() {
        use pic_core::charge::SimConstants;
        let grid = Grid::new(64).unwrap();
        let consts = SimConstants::CANONICAL;
        let drifters = |k: u32, dir: i8| {
            InitConfig::new(grid, 8_000, Distribution::Uniform)
                .with_k(k)
                .with_dir(dir)
                .build()
                .unwrap()
                .particles
        };
        let (x0, x1) = (16, 48);
        let mut ps = drifters(1, 1);
        ps.extend(drifters(0, -1));
        ps.retain(|p| (x0..x1).contains(&grid.cell_of(p.x)));
        let reach = DriftReach {
            reach_left: 1,
            reach_right: 3,
            max_abs_m: 0,
        };
        let mut store = BinnedStore::new_subdomain(&ps, &grid, 64, x0, x1);
        let inside = |c: usize, _: usize| (x0..x1).contains(&c);
        // Leavers a drain with `active` misses: a full drain finds them.
        let missed = |store: &BinnedStore, active: &dyn Fn(usize) -> bool| {
            let mut s = store.clone();
            s.drain_leavers_cols_into(&grid, active, inside, |_| {});
            s.drain_leavers_into(&grid, inside, |_| {})
        };
        for age in 1..=4u32 {
            store.sweep_local(&grid, &consts, None);
            assert_eq!(store.age(), age);
            let window = reach.drain_window((x0, x1), (0, 64), 64, age);
            let interior = reach.interior((x0, x1), age);
            let (lo, hi) = (interior.start, interior.end);
            assert_eq!(missed(&store, &window), 0, "age {age}: window unsound");
            let shrunk_left = |c: usize| !(lo - 1..hi).contains(&c);
            let shrunk_right = |c: usize| !(lo..hi + 1).contains(&c);
            assert!(
                missed(&store, &shrunk_left) > 0,
                "age {age}: left edge not tight"
            );
            assert!(
                missed(&store, &shrunk_right) > 0,
                "age {age}: right edge not tight"
            );
            store.drain_leavers_cols_into(&grid, window, inside, |_| {});
        }
    }
}
