//! The `mpi-2d` baseline (paper §IV-A): static 2D block decomposition,
//! no load balancing.
//!
//! "This scheme is easy to implement and is efficient when the particle
//! distribution remains uniform during the simulation. However, if the
//! particle distribution is skewed then load imbalance arises and parallel
//! performance suffers." — it is the baseline the balanced implementations
//! are compared against.

use crate::balance::run_balanced_traced;
use crate::runner::{ParConfig, ParOutcome};
use pic_cluster::balancer::StaticLb;
use pic_comm::comm::Communicator;
use pic_trace::Tracer;

/// Run the baseline implementation on this rank. All ranks of `comm` must
/// call it with an identical `cfg`.
pub fn run_baseline(comm: &Communicator, cfg: &ParConfig) -> ParOutcome {
    run_baseline_traced(comm, cfg, &mut Tracer::disabled())
}

/// [`run_baseline`] with telemetry: per-step phase timing, rehome counts,
/// and per-rank load snapshots at the agreed sampling interval. Every
/// rank passes its own tracer (typically enabled on rank 0 only); the
/// collective telemetry steps are agreed via [`trace_interval`], so all
/// ranks stay in lockstep regardless of which one records.
pub fn run_baseline_traced(
    comm: &Communicator,
    cfg: &ParConfig,
    tracer: &mut Tracer,
) -> ParOutcome {
    // The baseline is the static strategy through the shared trait-driven
    // loop: `StaticLb::wants` is always false, so no balance phase ever
    // opens and the step sequence is exactly the historical baseline's.
    run_balanced_traced(comm, cfg, "baseline", &mut StaticLb, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_comm::world::run_threads;
    use pic_core::dist::Distribution;
    use pic_core::events::{Event, Region};
    use pic_core::geometry::Grid;
    use pic_core::init::InitConfig;
    use pic_core::verify::triangular_id_sum;

    fn cfg(n: u64, dist: Distribution, steps: u32, k: u32, m: i32) -> ParConfig {
        ParConfig::new(
            InitConfig::new(Grid::new(32).unwrap(), n, dist)
                .with_k(k)
                .with_m(m)
                .build()
                .unwrap(),
            steps,
        )
    }

    #[test]
    fn verifies_on_various_world_sizes() {
        for p in [1usize, 2, 4, 6] {
            let c = cfg(400, Distribution::PAPER_SKEW, 64, 0, 1);
            let outcomes = run_threads(p, |comm| run_baseline(&comm, &c));
            for o in &outcomes {
                assert!(o.verify.passed(), "p={p}: {:?}", o.verify);
                assert_eq!(o.total_count, 400);
                assert_eq!(o.verify.id_sum, triangular_id_sum(400));
            }
            let local_total: usize = outcomes.iter().map(|o| o.local_count).sum();
            assert_eq!(local_total, 400);
        }
    }

    #[test]
    fn fast_particles_cross_many_ranks() {
        // Stride 9 on a 32-cell grid with 4 ranks: particles hop over a
        // whole rank column every step — exercises non-neighbor routing.
        let c = cfg(150, Distribution::Uniform, 40, 4, -2);
        let outcomes = run_threads(4, |comm| run_baseline(&comm, &c));
        for o in outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
        }
    }

    #[test]
    fn injection_and_removal_during_parallel_run() {
        let region = Region {
            x0: 8,
            x1: 24,
            y0: 8,
            y1: 24,
        };
        let mut c = cfg(200, Distribution::Uniform, 50, 0, 1);
        c.setup = c
            .setup
            .with_event(Event::inject(10, region, 60, 0, 1, 1))
            .with_event(Event::remove(30, Region::whole(32), 40));
        let outcomes = run_threads(4, |comm| run_baseline(&comm, &c));
        for o in &outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
            assert_eq!(o.total_count, 220);
        }
    }

    #[test]
    fn skewed_distribution_shows_imbalance() {
        // With a strong geometric skew and no balancing, the max-loaded
        // rank holds far more than the ideal share.
        let c = cfg(1000, Distribution::Geometric { r: 0.8 }, 8, 0, 0);
        let outcomes = run_threads(4, |comm| run_baseline(&comm, &c));
        let ideal = 1000 / 4;
        assert!(
            outcomes[0].max_count as usize > 3 * ideal / 2,
            "max {} should far exceed ideal {}",
            outcomes[0].max_count,
            ideal
        );
    }

    #[test]
    fn single_rank_matches_serial_engine() {
        use pic_core::engine::Simulation;
        let c = cfg(250, Distribution::Sinusoidal, 30, 1, 2);
        let serial = {
            let mut sim = Simulation::new(c.setup.clone());
            sim.run(30);
            let mut v: Vec<_> = sim.particles().to_vec();
            v.sort_by_key(|p| p.id);
            v
        };
        let outcomes = run_threads(1, |comm| run_baseline(&comm, &c));
        assert!(outcomes[0].verify.passed());
        assert_eq!(outcomes[0].total_count, 250);
        // Position agreement is implied by both verifying against the same
        // analytic trajectories; spot-check the serial run too.
        assert_eq!(serial.len(), 250);
    }
}
