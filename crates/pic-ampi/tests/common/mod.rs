//! Workload shapes shared by the AMPI equivalence suites: each one
//! stresses a different part of the VP-local store contract (DESIGN.md
//! §13) — which bins can hold a VP-edge crosser, and what happens to
//! particles of a VP while it migrates.

use pic_core::dist::Distribution;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::{InitConfig, SimulationSetup};

/// Grid side of every scenario.
pub const CELLS: usize = 32;

/// Steps of every scenario run.
pub const STEPS: u32 = 24;

/// LB interval of every scenario run: rounds at steps 4, 8, …, 20.
pub const INTERVAL: u32 = 4;

/// `(label, setup)` for each scenario. All start from a strong geometric
/// column skew, so the VP balancers move VPs in the first rounds.
pub fn scenarios() -> Vec<(&'static str, SimulationSetup)> {
    let base = |k: u32, m: i32, dir: i8| {
        InitConfig::new(
            Grid::new(CELLS).unwrap(),
            600,
            Distribution::Geometric { r: 0.85 },
        )
        .with_k(k)
        .with_m(m)
        .with_dir(dir)
        .build()
        .unwrap()
    };
    // The skewed, most-loaded VPs sit on the left: events there land on
    // VPs the first round moves — just before it (at_step INTERVAL − 1,
    // particles waiting in a store's tail when the VP leaves), and just
    // after it (at_step INTERVAL, into the freshly rebuilt stores).
    let hot = Region {
        x0: 0,
        x1: 8,
        y0: 0,
        y1: CELLS,
    };
    let events = base(1, -1, 1)
        .with_event(Event::inject(INTERVAL - 1, hot, 60, 0, 1, 1))
        .with_event(Event::inject(INTERVAL, hot, 50, 2, 0, -1))
        .with_event(Event::remove(INTERVAL, hot, 40))
        .with_event(Event::remove(2 * INTERVAL - 1, Region::whole(CELLS), 30));
    vec![
        // The benchmark's shape: one column per step in +x, no rows.
        ("drift k=0 m=0", base(0, 0, 1)),
        // Leavers sit in the first bins of every VP store.
        ("leftward k=1", base(1, 0, -1)),
        // Row crossers through the VP y-edges (b = 2 at d = 4).
        ("vertical m=1", base(0, 1, 1)),
        // A slow population joined by a fast leftward injection: the
        // drain window's left reach comes from the injection alone.
        (
            "fast injection",
            base(0, 0, 1).with_event(Event::inject(2, hot, 60, 3, 0, -1)),
        ),
        ("events k=1 m=-1", events),
    ]
}
