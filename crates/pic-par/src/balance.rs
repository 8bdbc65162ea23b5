//! The trait-driven rank loop: one runner for every cut-family
//! [`LoadBalancer`].
//!
//! The baseline (`StaticLb`), diffusion (`DiffusionLb`), and adaptive
//! (`AdaptiveLb`) implementations all execute through
//! [`run_balanced_traced`]: the runner owns the collectives (gathering
//! exactly the load arrays the strategy's [`BalanceNeeds`] requests, in a
//! fixed order) and the application of the returned [`BalanceDecision`];
//! the strategy itself is a pure replicated function. Decisions are
//! derived only from allreduced data, so every rank computes the same
//! cuts — and, for the adaptive balancer, the same strategy switches —
//! without any decision broadcast.

use crate::decomp::Decomp2d;
use crate::diffusion::{DiffusionMode, DiffusionParams};
use crate::runner::{snapshot_loads, trace_interval, ParConfig, ParOutcome, RankState};
use pic_cluster::balancer::{AdaptiveLb, Axes, BalanceInput, Layout, LoadBalancer};
use pic_comm::comm::Communicator;
use pic_trace::{Counter, Phase, Tracer};

/// Which balancer a [`ParConfig`] run uses; resolved by [`run_config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BalancerSpec {
    /// Static decomposition, never rebalance (the `mpi-2d` baseline).
    #[default]
    Static,
    /// Cut diffusion with fixed parameters (the `mpi-2d-LB` scheme).
    Diffusion {
        params: DiffusionParams,
        mode: DiffusionMode,
    },
    /// Online adaptive switching over the static → diffusion ladder.
    Adaptive {
        params: DiffusionParams,
        mode: DiffusionMode,
    },
}

impl BalancerSpec {
    /// The strategy name as recorded in trace run headers.
    pub fn name(&self) -> &'static str {
        match self {
            BalancerSpec::Static => "static",
            BalancerSpec::Diffusion { .. } => "diffusion",
            BalancerSpec::Adaptive { .. } => "adaptive",
        }
    }
}

fn axes_of(mode: DiffusionMode) -> Axes {
    match mode {
        DiffusionMode::XOnly => Axes::X,
        DiffusionMode::YOnly => Axes::Y,
        DiffusionMode::TwoPhase => Axes::XY,
    }
}

/// Run this rank's loop under `cfg.balancer`. All ranks must call with an
/// identical `cfg`.
pub fn run_config(comm: &Communicator, cfg: &ParConfig) -> ParOutcome {
    run_config_traced(comm, cfg, &mut Tracer::disabled())
}

/// [`run_config`] with telemetry: dispatches on [`ParConfig::balancer`]
/// to the matching traced runner, keeping the historical `impl` names in
/// the trace header.
pub fn run_config_traced(comm: &Communicator, cfg: &ParConfig, tracer: &mut Tracer) -> ParOutcome {
    match cfg.balancer {
        BalancerSpec::Static => crate::baseline::run_baseline_traced(comm, cfg, tracer),
        BalancerSpec::Diffusion { params, mode } => {
            crate::diffusion::run_diffusion_mode_traced(comm, cfg, params, mode, tracer)
        }
        BalancerSpec::Adaptive { params, mode } => {
            run_adaptive_traced(comm, cfg, params, mode, tracer)
        }
    }
}

/// Run with the online adaptive balancer over the cut-family ladder
/// (static → diffusion → wide diffusion), using `params`/`mode` for the
/// diffusion arms.
pub fn run_adaptive(
    comm: &Communicator,
    cfg: &ParConfig,
    params: DiffusionParams,
    mode: DiffusionMode,
) -> ParOutcome {
    run_adaptive_traced(comm, cfg, params, mode, &mut Tracer::disabled())
}

/// [`run_adaptive`] with telemetry; every strategy switch is emitted as a
/// `"switch"` trace record.
pub fn run_adaptive_traced(
    comm: &Communicator,
    cfg: &ParConfig,
    params: DiffusionParams,
    mode: DiffusionMode,
    tracer: &mut Tracer,
) -> ParOutcome {
    assert!(params.interval > 0, "interval must be positive");
    assert!(params.border_w > 0, "border width must be positive");
    let mut lb = AdaptiveLb::cut_arms(
        params.interval as u64,
        params.tau,
        params.border_w,
        axes_of(mode),
    );
    run_balanced_traced(comm, cfg, "adaptive", &mut lb, tracer)
}

/// The generic trait-driven rank loop: advance + exchange every step,
/// and whenever `balancer.wants(step)` (except the final step, matching
/// the historical cadence) gather the requested load arrays, call
/// `balancer.decide`, and apply the returned decision.
pub fn run_balanced_traced(
    comm: &Communicator,
    cfg: &ParConfig,
    impl_name: &str,
    balancer: &mut dyn LoadBalancer,
    tracer: &mut Tracer,
) -> ParOutcome {
    let st = balanced_loop(comm, cfg, impl_name, balancer, tracer);
    let out = st.finish_traced(comm, tracer);
    tracer.set_final_particles(out.total_count);
    out
}

/// The steps of [`run_balanced_traced`]; returns the rank state before
/// verification.
fn balanced_loop(
    comm: &Communicator,
    cfg: &ParConfig,
    impl_name: &str,
    balancer: &mut dyn LoadBalancer,
    tracer: &mut Tracer,
) -> RankState {
    let decomp = Decomp2d::uniform(cfg.setup.grid.ncells(), comm.size());
    let mut st = RankState::with_kernel(&cfg.setup, decomp, comm.rank(), cfg.kernel);
    let every = trace_interval(comm, tracer);
    tracer.emit_run_header(
        impl_name,
        comm.size(),
        cfg.setup.particles.len() as u64,
        cfg.steps as u64,
        &st.kernel_desc(),
        balancer.name(),
    );
    let mut sent_window = 0u64;
    let mut global_count = cfg.setup.particles.len() as u64;
    for s in 1..=cfg.steps {
        tracer.begin_step(s as u64);
        sent_window += st.step_traced(comm, tracer) as u64;
        if balancer.wants(s as u64) && s < cfg.steps {
            tracer.phase_start(Phase::Balance);
            sent_window += lb_round(comm, &mut st, s as u64, balancer, tracer) as u64;
            tracer.phase_end(Phase::Balance);
        }
        if every > 0 && (s as u64).is_multiple_of(every) {
            let msgs = st.take_message_counts();
            global_count = snapshot_loads(comm, tracer, st.local_count() as u64, sent_window, msgs);
            sent_window = 0;
        }
        tracer.end_step(global_count);
    }
    st
}

/// One balance round: gather what the strategy needs (fixed order —
/// column histogram, then row counts — so collective traffic is
/// identical on every rank), decide, apply cut moves, and rehome border
/// residents. Returns the number of particles this rank sent.
fn lb_round(
    comm: &Communicator,
    st: &mut RankState,
    step: u64,
    balancer: &mut dyn LoadBalancer,
    tracer: &mut Tracer,
) -> usize {
    let needs = balancer.needs();
    let mut hist_scratch = Vec::new();
    let hist: Vec<u64> = if needs.col_hist {
        // One vector allreduce; each rank's contribution comes straight
        // from its own store (O(columns) when the binned store is fresh).
        let h = st.aggregate_column_histogram(comm, &mut hist_scratch);
        tracer.add(Counter::CollectiveBytes, h.len() as u64 * 8);
        h
    } else {
        Vec::new()
    };
    let mut row_counts = Vec::new();
    if needs.row_counts {
        st.aggregate_axis_counts_into(comm, false, &mut row_counts);
        tracer.add(Counter::CollectiveBytes, row_counts.len() as u64 * 8);
    }

    let decision = {
        let layout = Layout {
            ncells: st.decomp.ncells,
            ranks: comm.size(),
            xcuts: &st.decomp.xcuts,
            ycuts: &st.decomp.ycuts,
            vp_assignment: &[],
        };
        let input = BalanceInput {
            step,
            col_hist: &hist,
            row_counts: &row_counts,
            vp_counts: &[],
        };
        balancer.decide(&input, &layout)
    };

    if let Some(sw) = &decision.switched {
        tracer.record_switch(sw.from, sw.to, sw.imbalance);
    }
    let mut changed = false;
    for mv in &decision.cuts {
        let old = match mv.axis {
            'x' => st.decomp.xcuts.clone(),
            _ => st.decomp.ycuts.clone(),
        };
        tracer.record_cuts(mv.axis, &old, &mv.counts, &mv.new_cuts);
        if mv.new_cuts != old {
            tracer.add(
                Counter::BorderCells,
                handed_over_cells(&old, &mv.new_cuts, st.decomp.ncells),
            );
            match mv.axis {
                'x' => st.decomp.set_xcuts(mv.new_cuts.clone()),
                _ => st.decomp.set_ycuts(mv.new_cuts.clone()),
            }
            changed = true;
        }
    }
    if changed {
        debug_assert!(st.decomp.is_partition());
        // The functional analogue of receiving the migrated border
        // subgrid: rebuild this rank's stored mesh for its new bounds.
        st.rebuild_charges();
    }
    // Rehome particles under the new ownership map (border-cell residents
    // migrate to the adjacent ranks), through the rank's reused buffers.
    let (sent, _received) = st.rehome(comm);
    // Every surviving particle is now inside the new bounds, so a binned
    // store can re-anchor its column range to the moved cuts.
    st.rebind_store();
    sent
}

/// Mesh cells handed over by a cut movement: Σ |new − old| per interior
/// cut, times the `ncells` extent of the perpendicular axis. Exact and
/// replicated on every rank, because the decision itself is.
pub(crate) fn handed_over_cells(old: &[usize], new: &[usize], ncells: usize) -> u64 {
    old.iter()
        .zip(new)
        .map(|(&o, &n)| o.abs_diff(n) as u64)
        .sum::<u64>()
        * ncells as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_comm::world::run_threads;
    use pic_core::dist::Distribution;
    use pic_core::geometry::Grid;
    use pic_core::init::InitConfig;

    fn cfg(n: u64, dist: Distribution, steps: u32) -> ParConfig {
        ParConfig::new(
            InitConfig::new(Grid::new(32).unwrap(), n, dist)
                .with_m(1)
                .build()
                .unwrap(),
            steps,
        )
    }

    #[test]
    fn adaptive_run_verifies_and_switches_on_skew() {
        // Geometric r=0.9 concentrates ~59% of the particles in the first
        // processor column (imbalance ≈ 2.36 ≫ hi = 1.4), so once the
        // 3-round window fills the adaptive balancer must escalate off
        // the static arm.
        let c = cfg(2000, Distribution::Geometric { r: 0.9 }, 60);
        let params = DiffusionParams {
            interval: 5,
            tau: 0,
            border_w: 2,
        };
        let outcomes = run_threads(4, |comm| {
            let mut tracer = if comm.rank() == 0 {
                Tracer::in_memory(2)
            } else {
                Tracer::disabled()
            };
            let o = run_adaptive_traced(&comm, &c, params, DiffusionMode::XOnly, &mut tracer);
            (o, tracer.finish())
        });
        for (o, _) in &outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
            assert_eq!(o.total_count, 2000);
        }
        let report = outcomes[0].1.as_ref().expect("rank 0 traced");
        assert!(
            !report.switches.is_empty(),
            "sustained skew must trigger at least one strategy switch"
        );
        assert_eq!(report.switches[0].from, "static");
        assert_eq!(report.switches[0].to, "diffusion");
        assert_eq!(report.summary.balancer, "adaptive");
        assert_eq!(report.summary.switches, report.switches.len() as u64);
        assert!(report.ndjson.contains("\"type\":\"switch\""));
    }

    #[test]
    fn rebins_counter_includes_balance_round_reanchors() {
        // Cuts move every 2 steps, far more often than the 16-step rebin
        // interval, so most sorts are the re-anchors of a balance round.
        // Every one must reach the `rebins` counter: summed over the run,
        // it equals the store's own count minus its construction sort.
        use pic_cluster::balancer::DiffusionLb;
        let c = cfg(1200, Distribution::Geometric { r: 0.85 }, 30);
        let per_rank = run_threads(2, |comm| {
            let mut lb = DiffusionLb::new(2, 0, 1, Axes::X);
            let mut tracer = Tracer::in_memory(1);
            let st = balanced_loop(&comm, &c, "diffusion", &mut lb, &mut tracer);
            let counted = tracer.finish().expect("traced").summary.counters[Counter::Rebins.idx()];
            (counted, st.store.rebin_count() - 1)
        });
        for (rank, &(counted, sorts)) in per_rank.iter().enumerate() {
            assert_eq!(counted, sorts, "rank {rank}");
            assert!(counted > 30 / 16 + 1, "rank {rank}: only {counted} rebins");
        }
    }

    #[test]
    fn run_config_dispatches_all_specs() {
        let c = cfg(600, Distribution::Geometric { r: 0.85 }, 30);
        let params = DiffusionParams {
            interval: 5,
            tau: 0,
            border_w: 2,
        };
        for spec in [
            BalancerSpec::Static,
            BalancerSpec::Diffusion {
                params,
                mode: DiffusionMode::XOnly,
            },
            BalancerSpec::Adaptive {
                params,
                mode: DiffusionMode::XOnly,
            },
        ] {
            let cc = c.clone().with_balancer(spec);
            let outcomes = run_threads(2, |comm| run_config(&comm, &cc));
            for o in &outcomes {
                assert!(o.verify.passed(), "{spec:?}: {:?}", o.verify);
                assert_eq!(o.total_count, 600);
            }
        }
    }

    #[test]
    fn static_spec_matches_baseline_bitwise() {
        let c = cfg(500, Distribution::Geometric { r: 0.85 }, 24);
        let base = run_threads(4, |comm| crate::baseline::run_baseline(&comm, &c));
        let cc = c.clone().with_balancer(BalancerSpec::Static);
        let via_config = run_threads(4, |comm| run_config(&comm, &cc));
        for (a, b) in base.iter().zip(&via_config) {
            assert_eq!(a.local_count, b.local_count);
            assert_eq!(a.verify.id_sum, b.verify.id_sum);
            let mut pa = a.local_particles.clone();
            let mut pb = b.local_particles.clone();
            pa.sort_by_key(|p| p.id);
            pb.sort_by_key(|p| p.id);
            assert_eq!(pa, pb);
        }
    }
}
