//! Functional threaded AMPI execution.
//!
//! Each `pic-comm` rank plays one physical core driving its assigned VPs.
//! The VP→core assignment table is replicated: load-balancing decisions are
//! computed from an allgathered VP-load vector by the *same* deterministic
//! strategy on every core, so no broadcast of the decision is needed —
//! exactly like deterministic replicated decision-making in runtime
//! systems.
//!
//! The VP is both the balancing unit and the storage unit, as with
//! Smilei's patches: a core keeps one store per owned VP, binned over that
//! VP's column slab ([`AmpiRankState`]). The per-step exchange tests only
//! the bins a particle can have left its VP from, hands a crosser bound for
//! another VP of the same core straight to that VP's store, and puts the
//! rest on the wire. VP migration ships a whole store to its new core,
//! which rebuilds it.
//!
//! The run is fully verified (analytic trajectories + id checksum), which
//! is the point of the PRK: a lost particle in any migration or exchange
//! fails the run.

use crate::model::AmpiParams;
use crate::vp::VpGrid;
use pic_cluster::balancer::{AdaptiveLb, BalanceInput, Layout, LoadBalancer, VpLb};
use pic_comm::collective::{
    allgatherv, allreduce_f64, allreduce_u128, allreduce_u64, decode_u64s, decode_u64s_into,
    encode_u64s,
};
use pic_comm::comm::{Communicator, ReduceOp};
use pic_core::charge::SimConstants;
use pic_core::events::{Event, EventKind};
use pic_core::geometry::Grid;
use pic_core::init::{build_injection, SimulationSetup};
use pic_core::motion::advance_all;
use pic_core::particle::Particle;
use pic_core::soa::ParticleBatch;
use pic_core::verify::{VerifyReport, DEFAULT_TOLERANCE};
use pic_par::exchange::{route_particles_with, DriftReach, ExchangeBuffers};
use pic_par::runner::{
    merge_failing_ids, snapshot_loads, trace_interval, ParConfig, ParOutcome, RankKernel, RankStore,
};
use pic_trace::{Counter, Phase, Tracer};

/// Run the AMPI-style implementation on this core. All ranks must call it
/// with identical `cfg` and `params`.
pub fn run_ampi(comm: &Communicator, cfg: &ParConfig, params: &AmpiParams) -> ParOutcome {
    run_ampi_traced(comm, cfg, params, &mut Tracer::disabled())
}

/// [`run_ampi`] with telemetry: per-step phase timing, migration counts,
/// per-rank load snapshots at the agreed sampling interval, and a `"cuts"`
/// record (axis `'v'`) for every VP-reassignment decision — old
/// assignment, the per-VP counts the balancer saw, new assignment.
pub fn run_ampi_traced(
    comm: &Communicator,
    cfg: &ParConfig,
    params: &AmpiParams,
    tracer: &mut Tracer,
) -> ParOutcome {
    assert!(params.interval > 0, "LB interval must be positive");
    let mut lb = VpLb::new(params.interval as u64, params.balancer);
    run_ampi_lb(comm, cfg, params.d, &mut lb, tracer)
}

/// Run the AMPI runtime under the online adaptive balancer: the VP-family
/// escalation ladder (keep → refine → greedy) switched on measured
/// imbalance, every switch recorded as a `"switch"` trace event.
pub fn run_ampi_adaptive(
    comm: &Communicator,
    cfg: &ParConfig,
    d: usize,
    interval: u32,
) -> ParOutcome {
    run_ampi_adaptive_traced(comm, cfg, d, interval, &mut Tracer::disabled())
}

/// [`run_ampi_adaptive`] with telemetry.
pub fn run_ampi_adaptive_traced(
    comm: &Communicator,
    cfg: &ParConfig,
    d: usize,
    interval: u32,
    tracer: &mut Tracer,
) -> ParOutcome {
    assert!(interval > 0, "LB interval must be positive");
    let mut lb = AdaptiveLb::vp_arms(interval as u64);
    run_ampi_lb(comm, cfg, d, &mut lb, tracer)
}

/// The shared AMPI rank loop, generic over the [`LoadBalancer`] driving
/// VP reassignment. The assignment table is replicated, and the balancer
/// decides from the allgathered per-VP load vector — identically on every
/// core — so no decision broadcast is needed.
fn run_ampi_lb(
    comm: &Communicator,
    cfg: &ParConfig,
    d: usize,
    lb: &mut dyn LoadBalancer,
    tracer: &mut Tracer,
) -> ParOutcome {
    let cores = comm.size();
    let mut st = AmpiRankState::new(&cfg.setup, cores, comm.rank(), d, cfg.kernel);

    let every = trace_interval(comm, tracer);
    tracer.emit_run_header(
        "ampi",
        cores,
        cfg.setup.particles.len() as u64,
        cfg.steps as u64,
        st.kernel_desc(),
        lb.name(),
    );
    let mut sent_window = 0u64;
    let mut global_count = cfg.setup.particles.len() as u64;

    for s in 1..=cfg.steps {
        tracer.begin_step(s as u64);
        st.apply_due_events(comm, s - 1);
        tracer.phase_start(Phase::Advance);
        st.sweep();
        tracer.phase_end(Phase::Advance);
        tracer.phase_start(Phase::Exchange);
        sent_window += st.exchange(comm) as u64;
        tracer.phase_end(Phase::Exchange);

        // Runtime load balancing (never on the final step, matching the
        // historical cadence).
        if lb.wants(s as u64) && s < cfg.steps {
            tracer.phase_start(Phase::Balance);
            sent_window += st.rebalance(comm, s as u64, lb, tracer) as u64;
            tracer.phase_end(Phase::Balance);
        }
        tracer.add(Counter::Rebins, st.take_rebins());

        if every > 0 && (s as u64).is_multiple_of(every) {
            let msgs = st.bufs.take_message_counts();
            global_count = snapshot_loads(comm, tracer, st.local_count() as u64, sent_window, msgs);
            sent_window = 0;
        }
        tracer.end_step(global_count);
    }

    // Distributed verification in place over the VP stores, then the one
    // materialization of the outcome's particles.
    tracer.phase_start(Phase::Verify);
    let mut local = VerifyReport::new(0, DEFAULT_TOLERANCE);
    for store in st.stores.iter().flatten() {
        store.check_into(&mut local, &cfg.setup.grid, cfg.steps);
    }
    let checked = allreduce_u64(comm, local.checked, ReduceOp::Sum);
    let failures = allreduce_u64(comm, local.position_failures, ReduceOp::Sum);
    let max_error = allreduce_f64(comm, local.max_error, ReduceOp::Max);
    let id_sum = allreduce_u128(comm, local.id_sum, ReduceOp::Sum);
    let failing_ids = merge_failing_ids(comm, &local.failing_ids);
    let particles = st.to_particles();
    tracer.phase_end(Phase::Verify);
    let local_count = particles.len() as u64;
    let max_count = allreduce_u64(comm, local_count, ReduceOp::Max);
    let total_count = allreduce_u64(comm, local_count, ReduceOp::Sum);
    tracer.set_final_particles(total_count);
    ParOutcome {
        verify: VerifyReport {
            checked,
            position_failures: failures,
            max_error,
            failing_ids,
            id_sum,
            expected_id_sum: st.expected_id_sum,
            tolerance: DEFAULT_TOLERANCE,
        },
        local_count: particles.len(),
        max_count,
        total_count,
        steps: cfg.steps,
        kernel: st.kernel_desc,
        local_particles: particles,
    }
}

/// One core's share of the AMPI runtime: the replicated VP→core table and
/// one [`RankStore`] per owned VP, binned over that VP's column slab.
///
/// Invariants between steps: `stores[vp]` is `Some` exactly when
/// `assignment[vp]` is this core, and every particle of `stores[vp]` lies
/// in VP `vp`'s tile — so per-VP counts are store lengths.
pub struct AmpiRankState {
    grid: Grid,
    consts: SimConstants,
    rank: usize,
    kernel: RankKernel,
    vps: VpGrid,
    assignment: Vec<usize>,
    /// One slot per VP; `Some` for the VPs assigned to this core.
    stores: Vec<Option<RankStore>>,
    /// Kernel descriptor of the VP stores (fixed at construction: a core
    /// may later own no VP at all).
    kernel_desc: String,
    /// Reused exchange staging buffers.
    bufs: ExchangeBuffers,
    /// VP-edge crossers staged between the drains and the wire; after the
    /// wire it holds the arrivals. Reused across steps.
    crossers: Vec<Particle>,
    /// The one gather buffer every VP store of this core rebins through
    /// ([`BinnedStore::rebin_with`]), instead of one per store.
    ///
    /// [`BinnedStore::rebin_with`]: pic_core::bin::BinnedStore::rebin_with
    rebin_spare: ParticleBatch,
    /// Per-step drift bounds over the population and every injection:
    /// they size each VP store's drain window.
    reach: DriftReach,
    /// Lifetime rebins of the VP stores that migrated away.
    rebins_departed: u64,
    /// Lifetime rebins of this core's stores as of the last
    /// [`AmpiRankState::take_rebins`].
    rebins_reported: u64,
    events: Vec<Event>,
    next_event: usize,
    /// Global id ledger — identical on every core because events are
    /// applied deterministically everywhere.
    expected_id_sum: u128,
    next_id: u64,
}

impl AmpiRankState {
    /// Build core `rank`'s state for a `cores`-core run with
    /// over-decomposition `d`: the locality-preserving initial VP
    /// placement ([`VpGrid::initial_assignment`]) and one store per owned
    /// VP holding the setup's particles in that VP's tile. This is the
    /// runtime's own construction; it needs no communicator.
    pub fn new(
        setup: &SimulationSetup,
        cores: usize,
        rank: usize,
        d: usize,
        kernel: RankKernel,
    ) -> AmpiRankState {
        let grid = setup.grid;
        let vps = VpGrid::new(grid.ncells(), cores, d);
        let assignment = vps.initial_assignment();
        let mut buckets: Vec<Vec<Particle>> = vec![Vec::new(); vps.vp_count()];
        for p in &setup.particles {
            let vp = vp_of(&vps, &grid, p);
            if assignment[vp] == rank {
                buckets[vp].push(*p);
            }
        }
        let stores: Vec<Option<RankStore>> = buckets
            .into_iter()
            .enumerate()
            .map(|(vp, ps)| (assignment[vp] == rank).then(|| vp_store(ps, &grid, kernel, &vps, vp)))
            .collect();
        let kernel_desc = stores
            .iter()
            .flatten()
            .next()
            .expect("the initial placement gives every core d VPs")
            .kernel_desc();
        let rebins_reported = stores.iter().flatten().map(RankStore::rebin_count).sum();
        let mut events = setup.events.clone();
        events.sort_by_key(|e| e.at_step);
        AmpiRankState {
            grid,
            consts: setup.consts,
            rank,
            kernel,
            vps,
            assignment,
            stores,
            kernel_desc,
            bufs: ExchangeBuffers::new(),
            crossers: Vec::new(),
            rebin_spare: ParticleBatch::new(),
            reach: DriftReach::of_setup(setup),
            rebins_departed: 0,
            rebins_reported,
            events,
            next_event: 0,
            expected_id_sum: setup.initial_id_sum(),
            next_id: setup.next_id,
        }
    }

    /// Kernel descriptor of the VP stores (see [`RankStore::kernel_desc`]).
    pub fn kernel_desc(&self) -> &str {
        &self.kernel_desc
    }

    /// Particles held by this core, over all its VPs.
    pub fn local_count(&self) -> usize {
        self.stores.iter().flatten().map(RankStore::len).sum()
    }

    /// Per-VP particle counts, zero for VPs owned elsewhere: O(VPs), read
    /// from the store lengths, because every particle sits in its VP's
    /// store between steps.
    fn vp_counts(&self) -> Vec<u64> {
        self.stores
            .iter()
            .map(|s| s.as_ref().map_or(0, |s| s.len() as u64))
            .collect()
    }

    /// Counting sorts run by this core's VP stores since the previous
    /// take — per-step rebins, dirty rebins before a sweep, and the sort
    /// that builds a gained VP's store — for the `rebins` counter.
    fn take_rebins(&mut self) -> u64 {
        let total = self.rebins_departed
            + self
                .stores
                .iter()
                .flatten()
                .map(RankStore::rebin_count)
                .sum::<u64>();
        total - std::mem::replace(&mut self.rebins_reported, total)
    }

    /// This core's particles, VP store by VP store in storage order.
    /// Allocates; outcome path.
    fn to_particles(&self) -> Vec<Particle> {
        let mut out = Vec::with_capacity(self.local_count());
        for store in self.stores.iter().flatten() {
            append_particles(store, &mut out);
        }
        out
    }

    /// Apply the events due at the start of step `step` (0-based).
    /// Injections are materialized identically on every core and filed
    /// into the owning VP's store; removals are resolved collectively so
    /// every core agrees on the doomed id set.
    fn apply_due_events(&mut self, comm: &Communicator, step: u32) {
        while self.next_event < self.events.len() && self.events[self.next_event].at_step == step {
            let e = self.events[self.next_event];
            self.next_event += 1;
            match e.kind {
                EventKind::Inject { count, k, m, dir } => {
                    let newcomers = build_injection(
                        self.grid,
                        self.consts,
                        e.region,
                        count,
                        k,
                        m,
                        dir,
                        step,
                        &mut self.next_id,
                    );
                    for p in newcomers {
                        self.expected_id_sum += p.id as u128;
                        if let Some(store) = &mut self.stores[vp_of(&self.vps, &self.grid, &p)] {
                            store.push(p);
                        }
                    }
                }
                EventKind::Remove { count } => {
                    let mut local_ids: Vec<u64> = self
                        .stores
                        .iter()
                        .flatten()
                        .flat_map(|s| s.ids_in_region(&e.region))
                        .collect();
                    local_ids.sort_unstable();
                    let gathered = allgatherv(comm, encode_u64s(&local_ids));
                    let mut all: Vec<u64> = gathered.iter().flat_map(|b| decode_u64s(b)).collect();
                    all.sort_unstable();
                    all.truncate(count as usize);
                    let doomed: std::collections::HashSet<u64> = all.iter().copied().collect();
                    for &id in &all {
                        self.expected_id_sum -= id as u128;
                    }
                    for store in self.stores.iter_mut().flatten() {
                        store.remove_ids(&doomed);
                    }
                }
            }
        }
    }

    /// Advance every owned VP one step. Mesh charges come from the
    /// analytic formula (`None`) — the whole mesh is replicated knowledge
    /// (eq. 3) — and bin parity uses the global column, so a VP store's
    /// sweep is the same arithmetic as a whole-grid store's.
    fn sweep(&mut self) {
        for store in self.stores.iter_mut().flatten() {
            match store {
                RankStore::Aos(ps) => advance_all(&self.grid, &self.consts, ps),
                RankStore::Binned(b) => b.sweep_local(&self.grid, &self.consts, None),
            }
        }
    }

    /// Rehome every particle that left its VP's tile, then run the
    /// amortized rebins. A binned VP store tests only the bins of its
    /// [`DriftReach::drain_window`]: those within drift reach of its
    /// x-edges, or every bin when the VP has a y-edge and particles move
    /// vertically. A crosser bound for another VP of this core goes
    /// straight to that VP's tail; the rest travel in the step's one
    /// all-to-all, and arrivals are filed into their VP's store by cell.
    /// Returns the number of particles sent to other cores.
    fn exchange(&mut self, comm: &Communicator) -> usize {
        let grid = self.grid;
        let crossers = &mut self.crossers;
        crossers.clear();
        for (vp, slot) in self.stores.iter_mut().enumerate() {
            let Some(store) = slot else { continue };
            let ((x0, x1), (y0, y1)) = self.vps.decomp.bounds(vp);
            let in_tile = |c: usize, r: usize| (x0..x1).contains(&c) && (y0..y1).contains(&r);
            match store {
                RankStore::Aos(ps) => ps.retain(|p| {
                    let (c, r) = grid.cell_of_point(p.x, p.y);
                    in_tile(c, r) || {
                        crossers.push(*p);
                        false
                    }
                }),
                RankStore::Binned(b) => {
                    let window =
                        self.reach
                            .drain_window((x0, x1), (y0, y1), grid.ncells(), b.age());
                    b.drain_leavers_cols_into(&grid, window, in_tile, |p| crossers.push(p));
                }
            }
        }
        let (vps, assignment, stores) = (&self.vps, &self.assignment, &mut self.stores);
        crossers.retain(|p| match &mut stores[vp_of(vps, &grid, p)] {
            Some(store) => {
                store.push(*p);
                false
            }
            None => true,
        });
        let (sent, _received) = route_particles_with(
            comm,
            self.rank,
            |p| assignment[vp_of(vps, &grid, p)],
            crossers,
            &mut self.bufs,
        );
        for p in crossers.drain(..) {
            stores[vp_of(vps, &grid, &p)]
                .as_mut()
                .expect("arrival routed to a VP this core does not own")
                .push(p);
        }
        // The counting sort runs after the exchange, so it only ever sees
        // homed particles.
        for store in stores.iter_mut().flatten() {
            if let RankStore::Binned(b) = store {
                if b.rebin_due() {
                    b.rebin_with(&grid, &mut self.rebin_spare);
                }
            }
        }
        sent
    }

    /// One LB round: allgather the per-VP counts, let the balancer decide
    /// deterministically on every core, then migrate every reassigned VP
    /// whole. Returns the number of particles this core sent.
    fn rebalance(
        &mut self,
        comm: &Communicator,
        step: u64,
        lb: &mut dyn LoadBalancer,
        tracer: &mut Tracer,
    ) -> usize {
        // Per-VP counts are store lengths (O(VPs)); each VP lives on
        // exactly one core, so the vector sum assembles the global view.
        let counts = self.vp_counts();
        let gathered = allgatherv(comm, encode_u64s(&counts));
        tracer.add(pic_trace::Counter::CollectiveBytes, counts.len() as u64 * 8);
        let mut global = vec![0u64; counts.len()];
        let mut scratch = Vec::with_capacity(counts.len());
        for buf in &gathered {
            decode_u64s_into(buf, &mut scratch);
            for (slot, v) in global.iter_mut().zip(&scratch) {
                *slot += v;
            }
        }
        let decision = {
            let layout = Layout {
                ncells: self.grid.ncells(),
                ranks: comm.size(),
                xcuts: &[],
                ycuts: &[],
                vp_assignment: &self.assignment,
            };
            let input = BalanceInput {
                step,
                col_hist: &[],
                row_counts: &[],
                vp_counts: &global,
            };
            lb.decide(&input, &layout)
        };
        if let Some(sw) = &decision.switched {
            tracer.record_switch(sw.from, sw.to, sw.imbalance);
        }
        if let Some(vp) = decision.vps {
            // The VP-assignment analogue of a cut decision: old table, the
            // per-VP counts the balancer saw, new table.
            tracer.record_cuts('v', &self.assignment, &vp.counts, &vp.assignment);
            self.assignment = vp.assignment;
        }
        self.migrate(comm)
    }

    /// Ship the store of every VP now assigned elsewhere to its new core,
    /// in one payload per destination through one all-to-all (entered by
    /// every core even when no VP moved), and rebuild the store of every
    /// VP this core gained from its arrivals. Returns the number of
    /// particles this core sent.
    fn migrate(&mut self, comm: &Communicator) -> usize {
        let mut moving = Vec::new();
        for (vp, slot) in self.stores.iter_mut().enumerate() {
            if self.assignment[vp] != self.rank {
                if let Some(store) = slot.take() {
                    self.rebins_departed += store.rebin_count();
                    append_particles(&store, &mut moving);
                }
            }
        }
        let (vps, assignment, grid) = (&self.vps, &self.assignment, self.grid);
        let (sent, _received) = route_particles_with(
            comm,
            self.rank,
            |p| assignment[vp_of(vps, &grid, p)],
            &mut moving,
            &mut self.bufs,
        );
        // `moving` now holds the arrivals: whole VPs, each from its one
        // previous owner.
        let mut gained: Vec<Vec<Particle>> = vec![Vec::new(); vps.vp_count()];
        for p in moving {
            gained[vp_of(vps, &grid, &p)].push(p);
        }
        for (vp, ps) in gained.into_iter().enumerate() {
            if assignment[vp] == self.rank && self.stores[vp].is_none() {
                self.stores[vp] = Some(vp_store(ps, &grid, self.kernel, vps, vp));
            }
        }
        sent
    }
}

/// The VP owning the cell under `p`.
fn vp_of(vps: &VpGrid, grid: &Grid, p: &Particle) -> usize {
    let (c, r) = grid.cell_of_point(p.x, p.y);
    vps.vp_of_cell(c, r)
}

/// A store for VP `vp`'s particles, binned (on the binned path) over the
/// VP's column slab.
fn vp_store(
    particles: Vec<Particle>,
    grid: &Grid,
    kernel: RankKernel,
    vps: &VpGrid,
    vp: usize,
) -> RankStore {
    let (cols, _rows) = vps.decomp.bounds(vp);
    RankStore::build(particles, grid, kernel, cols)
}

/// Append a store's particles to `out` in storage order.
fn append_particles(store: &RankStore, out: &mut Vec<Particle>) {
    match store {
        RankStore::Aos(ps) => out.extend_from_slice(ps),
        RankStore::Binned(b) => {
            let batch = b.batch();
            out.extend((0..batch.len()).map(|i| batch.get(i)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::Balancer;
    use pic_comm::world::run_threads;
    use pic_core::dist::Distribution;
    use pic_core::events::Region;
    use pic_core::geometry::Grid;
    use pic_core::init::InitConfig;
    use pic_core::verify::triangular_id_sum;

    fn cfg(n: u64, dist: Distribution, steps: u32) -> ParConfig {
        ParConfig::new(
            InitConfig::new(Grid::new(32).unwrap(), n, dist)
                .with_m(1)
                .build()
                .unwrap(),
            steps,
        )
    }

    fn params(d: usize, interval: u32) -> AmpiParams {
        AmpiParams {
            d,
            interval,
            balancer: Balancer::paper_default(),
        }
    }

    /// Check the between-steps invariants of a core's VP stores: a store
    /// exists exactly for each owned VP, binned over that VP's column
    /// slab; every particle sits in its own VP's tile; and the
    /// store-length counts equal a position scan.
    fn assert_vp_stores_homed(st: &AmpiRankState, label: &str) {
        let mut scan = vec![0u64; st.vps.vp_count()];
        for (vp, slot) in st.stores.iter().enumerate() {
            assert_eq!(
                slot.is_some(),
                st.assignment[vp] == st.rank,
                "{label}: VP {vp} store vs ownership"
            );
            let Some(store) = slot else { continue };
            if let RankStore::Binned(b) = store {
                assert_eq!(
                    b.columns(),
                    st.vps.decomp.bounds(vp).0,
                    "{label}: VP {vp} slab"
                );
            }
            let mut ps = Vec::new();
            append_particles(store, &mut ps);
            for p in &ps {
                let home = vp_of(&st.vps, &st.grid, p);
                assert_eq!(home, vp, "{label}: particle {} outside VP {vp}", p.id);
                scan[home] += 1;
            }
        }
        assert_eq!(
            st.vp_counts(),
            scan,
            "{label}: store lengths vs position scan"
        );
    }

    #[test]
    fn every_exchange_and_migration_leaves_particles_in_their_vp_tile() {
        let hot = Region {
            x0: 0,
            x1: 10,
            y0: 0,
            y1: 32,
        };
        let shapes = [(0u32, 0i32, 1i8), (1, 0, -1), (0, 1, 1), (2, -1, 1)];
        for (k, m, dir) in shapes {
            let setup = InitConfig::new(
                Grid::new(32).unwrap(),
                700,
                Distribution::Geometric { r: 0.85 },
            )
            .with_k(k)
            .with_m(m)
            .with_dir(dir)
            .build()
            .unwrap()
            .with_event(Event::inject(5, hot, 60, 1, 1, -1))
            .with_event(Event::remove(9, hot, 40));
            for (cores, d) in [(1usize, 4usize), (2, 4), (3, 2), (4, 8)] {
                for kernel in [
                    RankKernel::aos(),
                    RankKernel::default().with_rebin_interval(3),
                ] {
                    let label = format!("k={k} m={m} dir={dir}, {cores} cores, d={d}, {kernel:?}");
                    let moved = run_threads(cores, |comm| {
                        let mut st = AmpiRankState::new(&setup, cores, comm.rank(), d, kernel);
                        let mut lb = VpLb::new(3, Balancer::paper_default());
                        let mut moved = 0;
                        assert_vp_stores_homed(&st, &label);
                        for s in 1..=18u32 {
                            st.apply_due_events(&comm, s - 1);
                            st.sweep();
                            st.exchange(&comm);
                            assert_vp_stores_homed(&st, &label);
                            if lb.wants(s as u64) {
                                moved +=
                                    st.rebalance(&comm, s as u64, &mut lb, &mut Tracer::disabled());
                                assert_vp_stores_homed(&st, &label);
                            }
                        }
                        moved
                    });
                    if cores > 1 {
                        assert!(moved.iter().sum::<usize>() > 0, "{label}: no VP ever moved");
                    }
                }
            }
        }
    }

    #[test]
    fn verified_run_with_migration() {
        let c = cfg(500, Distribution::Geometric { r: 0.85 }, 60);
        let p = params(4, 5);
        let outcomes = run_threads(4, |comm| run_ampi(&comm, &c, &p));
        for o in &outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
            assert_eq!(o.total_count, 500);
            assert_eq!(o.verify.id_sum, triangular_id_sum(500));
        }
    }

    #[test]
    fn migration_reduces_max_count() {
        let c = cfg(2000, Distribution::Geometric { r: 0.8 }, 30);
        let none = run_threads(4, |comm| {
            run_ampi(
                &comm,
                &c,
                &AmpiParams {
                    d: 4,
                    interval: 5,
                    balancer: Balancer::None,
                },
            )
        });
        let refine = run_threads(4, |comm| run_ampi(&comm, &c, &params(4, 5)));
        assert!(none[0].verify.passed());
        assert!(refine[0].verify.passed());
        assert!(
            refine[0].max_count < none[0].max_count,
            "refine {} must beat none {}",
            refine[0].max_count,
            none[0].max_count
        );
    }

    #[test]
    fn greedy_strategy_also_verifies() {
        let c = cfg(600, Distribution::Sinusoidal, 24);
        let p = AmpiParams {
            d: 8,
            interval: 4,
            balancer: Balancer::Greedy,
        };
        let outcomes = run_threads(2, |comm| run_ampi(&comm, &c, &p));
        for o in outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
        }
    }

    #[test]
    fn events_work_under_virtualization() {
        let region = Region {
            x0: 8,
            x1: 24,
            y0: 8,
            y1: 24,
        };
        let mut c = cfg(300, Distribution::Uniform, 40);
        c.setup = c
            .setup
            .with_event(Event::inject(8, region, 80, 0, 1, 1))
            .with_event(Event::remove(25, Region::whole(32), 50));
        let p = params(4, 6);
        let outcomes = run_threads(4, |comm| run_ampi(&comm, &c, &p));
        for o in &outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
            assert_eq!(o.total_count, 330);
        }
    }

    #[test]
    fn single_core_single_vp_trivial() {
        let c = cfg(100, Distribution::Uniform, 10);
        let p = params(1, 3);
        let outcomes = run_threads(1, |comm| run_ampi(&comm, &c, &p));
        assert!(outcomes[0].verify.passed());
        assert_eq!(outcomes[0].local_count, 100);
    }

    #[test]
    fn fast_particles_under_virtualization() {
        let c = ParConfig::new(
            InitConfig::new(Grid::new(32).unwrap(), 200, Distribution::Uniform)
                .with_k(3)
                .with_m(-2)
                .build()
                .unwrap(),
            30,
        );
        let p = params(4, 4);
        let outcomes = run_threads(4, |comm| run_ampi(&comm, &c, &p));
        for o in outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
        }
    }

    #[test]
    fn traced_run_emits_vp_reassignment_cuts() {
        let c = cfg(900, Distribution::Geometric { r: 0.8 }, 20);
        let p = params(4, 5);
        let results = run_threads(4, |comm| {
            let mut tracer = if comm.rank() == 0 {
                Tracer::in_memory(5)
            } else {
                Tracer::disabled()
            };
            let out = run_ampi_traced(&comm, &c, &p, &mut tracer);
            (out, tracer.finish())
        });
        for (out, _) in &results {
            assert!(out.verify.passed(), "{:?}", out.verify);
            assert_eq!(out.total_count, 900);
        }
        let report = results[0].1.as_ref().expect("rank 0 tracer enabled");
        // LB fires at steps 5, 10, 15 (never on the final step).
        assert_eq!(report.cuts.len(), 3);
        for cut in &report.cuts {
            assert_eq!(cut.axis, 'v');
            assert_eq!(cut.old.len(), 16, "one slot per VP (d * cores)");
            assert_eq!(cut.new.len(), 16);
            assert_eq!(cut.counts.iter().sum::<u64>(), 900);
            assert!(cut.new.iter().all(|&core| core < 4));
        }
        assert_eq!(report.summary.final_particles, 900);
        assert!(report.summary.max_imbalance.is_finite());
        // Skewed start under greedy VP placement must register migrations.
        let rehomed: u64 = report.steps.iter().map(|s| s.counters[0]).sum();
        assert!(rehomed > 0, "migration counter never moved");
    }

    #[test]
    fn adaptive_vp_run_verifies_and_switches() {
        // Geometric skew under the keep-everything arm sustains a high
        // per-core imbalance, so the adaptive ladder must escalate from
        // vp-none to vp-refine once its window fills.
        let c = cfg(1200, Distribution::Geometric { r: 0.85 }, 40);
        let results = run_threads(4, |comm| {
            let mut tracer = if comm.rank() == 0 {
                Tracer::in_memory(2)
            } else {
                Tracer::disabled()
            };
            let out = run_ampi_adaptive_traced(&comm, &c, 4, 4, &mut tracer);
            (out, tracer.finish())
        });
        for (out, _) in &results {
            assert!(out.verify.passed(), "{:?}", out.verify);
            assert_eq!(out.total_count, 1200);
        }
        let report = results[0].1.as_ref().expect("rank 0 traced");
        assert_eq!(report.summary.balancer, "adaptive");
        assert!(
            !report.switches.is_empty(),
            "sustained skew must escalate off the vp-none arm"
        );
        assert_eq!(report.switches[0].from, "vp-none");
        assert_eq!(report.switches[0].to, "vp-refine");
    }

    #[test]
    fn traced_run_matches_untraced() {
        let c = cfg(400, Distribution::PAPER_SKEW, 24);
        let p = params(2, 6);
        let plain = run_threads(4, |comm| run_ampi(&comm, &c, &p));
        let traced = run_threads(4, |comm| {
            let mut tracer = Tracer::in_memory(2);
            run_ampi_traced(&comm, &c, &p, &mut tracer)
        });
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.verify.id_sum, b.verify.id_sum);
            assert_eq!(a.total_count, b.total_count);
            assert_eq!(a.local_count, b.local_count);
            assert!(b.verify.passed(), "{:?}", b.verify);
        }
    }
}
