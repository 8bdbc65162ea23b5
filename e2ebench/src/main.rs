//! One operation of the end-to-end benchmark (see `NOTES.md`).
//!
//! ```text
//! e2ebench --workload serial-1t|drift-lb|ampi-vp --seed S
//!          [--particles N] [--grid G] [--steps T] [--trace 0|1]
//! ```
//!
//! Generates the shared drifting population from the seed, hands it to the
//! program and times the run until the verified outcome returns, then times
//! `SETUP_REPS` fresh set-ups. Before the run, after it and after the
//! set-ups it times a fixed calibration kernel of its own on the workload's
//! thread count; `run.py` scales the times by it to cancel the host's speed.
//! Prints one JSON line on stdout. `run.py` runs every operation in a
//! process of its own under a deadline, so a panic or a hang costs one
//! failed operation, never the benchmark.
//!
//! All timing is done here, around the public calls into each layer; a
//! traced operation hands `Tracer::in_memory` to every rank and reads the
//! phase clocks and counters the program already keeps.

use std::hint::black_box;
use std::process::exit;
use std::time::Instant;

use pic_ampi::model::AmpiParams;
use pic_ampi::runtime::run_ampi_traced;
use pic_ampi::{Balancer, VpGrid};
use pic_comm::comm::Communicator;
use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::engine::{Simulation, SweepMode};
use pic_core::geometry::Grid;
use pic_core::init::{InitConfig, RowSpread, SimulationSetup};
use pic_core::particle::Particle;
use pic_core::pool;
use pic_core::simd::SimdBackend;
use pic_par::decomp::Decomp2d;
use pic_par::diffusion::{run_diffusion_mode_traced, DiffusionMode, DiffusionParams};
use pic_par::runner::{ParConfig, ParOutcome, RankKernel, RankState, RankStore};
use pic_trace::{trace_simulation, Counter, Phase, TraceReport, Tracer};

/// Geometric ratio of the shared population: the paper's r = 0.999 over
/// 2,998 columns scaled to 512 columns (both leave about 5% of the peak
/// density at the far edge).
const GEOMETRIC_R: f64 = 0.994;

/// Rank threads of the two parallel workloads.
const RANKS: usize = 2;

/// Fresh set-ups timed after the run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// mpi-2d-LB settings under which the x-cuts keep up with the 1-cell/step
/// drift (final max/ideal 1.029 after 100 steps, against 1.34 with the
/// defaults).
const DRIFT_LB: DiffusionParams = DiffusionParams {
    interval: 4,
    tau: 0,
    border_w: 4,
};

/// AMPI: d = 4 virtual processors per core, balanced every F = 10 steps
/// by refinement.
fn ampi_params() -> AmpiParams {
    AmpiParams {
        d: 4,
        interval: 10,
        balancer: Balancer::paper_default(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Serial1t,
    DriftLb,
    AmpiVp,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serial-1t" => Some(Workload::Serial1t),
            "drift-lb" => Some(Workload::DriftLb),
            "ampi-vp" => Some(Workload::AmpiVp),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Serial1t => "serial-1t",
            Workload::DriftLb => "drift-lb",
            Workload::AmpiVp => "ampi-vp",
        }
    }

    fn ranks(self) -> usize {
        match self {
            Workload::Serial1t => 1,
            Workload::DriftLb | Workload::AmpiVp => RANKS,
        }
    }
}

struct Params {
    workload: Workload,
    seed: u64,
    n: u64,
    grid: Grid,
    steps: u32,
    trace: bool,
    /// Load-snapshot sampling interval of the traced run. Phase totals
    /// cover every step regardless; it divides `steps`, so the counters
    /// the program sums globally at snapshots cover the whole run.
    every: u32,
}

fn parse_args() -> Result<Params, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.len().is_multiple_of(2) {
        return Err("expected --flag value pairs".into());
    }
    let mut workload = None;
    let mut seed = None;
    let (mut n, mut grid, mut steps) = (1_000_000u64, 512usize, 100u32);
    let mut trace = false;
    for pair in argv.chunks(2) {
        let (flag, val) = (pair[0].as_str(), pair[1].as_str());
        let bad = |what: &str| format!("bad {flag} {val:?}: {what}");
        match flag {
            "--workload" => workload = Some(Workload::parse(val).ok_or_else(|| bad("unknown"))?),
            "--seed" => seed = Some(val.parse().map_err(|_| bad("not a u64"))?),
            "--particles" => n = val.parse().map_err(|_| bad("not a u64"))?,
            "--grid" => grid = val.parse().map_err(|_| bad("not an integer"))?,
            "--steps" => steps = val.parse().map_err(|_| bad("not a u32"))?,
            "--trace" => {
                trace = match val {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if n == 0 || steps == 0 {
        return Err("--particles and --steps must be positive".into());
    }
    Ok(Params {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        n,
        grid: Grid::new(grid).map_err(|e| format!("bad --grid {grid}: {e}"))?,
        steps,
        trace,
        every: if steps.is_multiple_of(10) { 10 } else { steps },
    })
}

/// The shared population every workload runs: geometric columns, rows
/// drawn from the benchmark seed, k = 0 and m = 0 (a 1-cell/step drift).
fn build_setup(p: &Params) -> SimulationSetup {
    InitConfig::new(p.grid, p.n, Distribution::Geometric { r: GEOMETRIC_R })
        .with_k(0)
        .with_m(0)
        .with_spread(RowSpread::Random { seed: p.seed })
        .build()
        .expect("the shared population is a valid configuration")
}

/// Process CPU time (user + system, every thread) in nanoseconds.
fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread in nanoseconds.
fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant every Linux kernel supports; std links libc already.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Order-independent digest of a particle population: the wrapping sum
/// and the xor of a per-particle hash over id and the bits of position
/// and velocity. Equal populations give equal digests however they are
/// split over ranks or ordered in a store.
#[derive(Default)]
struct Digest {
    sum: u64,
    xor: u64,
}

impl Digest {
    fn add(&mut self, p: &Particle) {
        let h = [p.x, p.y, p.vx, p.vy]
            .iter()
            .fold(splitmix64(p.id), |h, v| splitmix64(h ^ v.to_bits()));
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
    }

    fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.sum, self.xor)
    }
}

fn splitmix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one run hands back, plus the benchmark's own measurements.
struct RunOutcome {
    run_s: f64,
    cpu_s: f64,
    passed: bool,
    id_sum: u128,
    expected_id_sum: u128,
    count: u64,
    max_count: u64,
    kernel: String,
    digest: String,
    /// Time spent building the run's own state inside `run_s`, where the
    /// benchmark can see it (the serial engine; the parallel runners build
    /// theirs internally, so it falls into the unattributed residual).
    in_run_build_s: f64,
    /// One trace report per rank (traced operations only).
    traces: Vec<TraceReport>,
}

fn tracer_for(p: &Params) -> Tracer {
    if p.trace {
        Tracer::in_memory(p.every)
    } else {
        Tracer::disabled()
    }
}

/// `serial-1t`: the single-thread reference of the same problem.
fn run_serial(p: &Params, setup: SimulationSetup) -> RunOutcome {
    let mut tracer = tracer_for(p);
    let t0 = Instant::now();
    let c0 = process_cpu_ns();
    let mut sim = Simulation::with_mode(setup, SweepMode::SoaBinned);
    let in_run_build_s = t0.elapsed().as_secs_f64();
    trace_simulation(&mut sim, p.steps, &mut tracer);
    tracer.phase_start(Phase::Verify);
    let report = sim.verify();
    tracer.phase_end(Phase::Verify);
    let run_s = t0.elapsed().as_secs_f64();
    let cpu_s = (process_cpu_ns() - c0) as f64 / 1e9;
    tracer.set_final_particles(sim.particle_count() as u64);
    let mut digest = Digest::default();
    for q in &sim.particles() {
        digest.add(q);
    }
    RunOutcome {
        run_s,
        cpu_s,
        passed: report.passed(),
        id_sum: report.id_sum,
        expected_id_sum: report.expected_id_sum,
        count: sim.particle_count() as u64,
        max_count: sim.particle_count() as u64,
        kernel: sim.kernel_desc(),
        digest: digest.hex(),
        in_run_build_s,
        traces: tracer.finish().into_iter().collect(),
    }
}

/// `drift-lb` and `ampi-vp`: `runner` on every rank thread of
/// `run_threads`, timed from the call until the outcomes return.
fn run_ranks<F>(p: &Params, setup: SimulationSetup, runner: F) -> RunOutcome
where
    F: Fn(&Communicator, &ParConfig, &mut Tracer) -> ParOutcome + Sync,
{
    let cfg = ParConfig::new(setup, p.steps).with_kernel(RankKernel::default());
    let t0 = Instant::now();
    let c0 = process_cpu_ns();
    let ranks = run_threads(p.workload.ranks(), |comm| {
        let mut tracer = tracer_for(p);
        let out = runner(&comm, &cfg, &mut tracer);
        (out, tracer)
    });
    let run_s = t0.elapsed().as_secs_f64();
    let cpu_s = (process_cpu_ns() - c0) as f64 / 1e9;
    let mut digest = Digest::default();
    let mut traces = Vec::new();
    let mut outs = Vec::with_capacity(ranks.len());
    for (out, tracer) in ranks {
        out.local_particles.iter().for_each(|q| digest.add(q));
        traces.extend(tracer.finish());
        outs.push(out);
    }
    let first = &outs[0];
    RunOutcome {
        run_s,
        cpu_s,
        passed: first.verify.passed(),
        id_sum: first.verify.id_sum,
        expected_id_sum: first.verify.expected_id_sum,
        count: first.total_count,
        max_count: first.max_count,
        kernel: first.kernel.clone(),
        digest: digest.hex(),
        in_run_build_s: 0.0,
        traces,
    }
}

fn run_once(p: &Params, setup: SimulationSetup) -> RunOutcome {
    match p.workload {
        Workload::Serial1t => run_serial(p, setup),
        Workload::DriftLb => run_ranks(p, setup, |comm, cfg, tracer| {
            run_diffusion_mode_traced(comm, cfg, DRIFT_LB, DiffusionMode::XOnly, tracer)
        }),
        Workload::AmpiVp => run_ranks(p, setup, |comm, cfg, tracer| {
            run_ampi_traced(comm, cfg, &ampi_params(), tracer)
        }),
    }
}

/// One fresh set-up: `InitConfig::build`, then the state each workload
/// needs before step 1 — the binned engine, or every rank's state built
/// on its own rank thread (the slowest rank counts). Returns
/// `(init_s, build_s)`.
fn setup_once(p: &Params) -> (f64, f64) {
    let t0 = Instant::now();
    let setup = black_box(build_setup(p));
    let init_s = t0.elapsed().as_secs_f64();
    let ncells = p.grid.ncells();
    let build_s = match p.workload {
        Workload::Serial1t => {
            let t = Instant::now();
            let sim = black_box(Simulation::with_mode(setup, SweepMode::SoaBinned));
            let s = t.elapsed().as_secs_f64();
            drop(sim);
            s
        }
        Workload::DriftLb => max_over_ranks(run_threads(RANKS, |comm| {
            let t = Instant::now();
            let decomp = Decomp2d::uniform(ncells, comm.size());
            let st = RankState::with_kernel(&setup, decomp, comm.rank(), RankKernel::default());
            let s = t.elapsed().as_secs_f64();
            black_box(&st);
            s
        })),
        Workload::AmpiVp => max_over_ranks(run_threads(RANKS, |comm| {
            let t = Instant::now();
            let d = ampi_params().d;
            let vps = VpGrid::new(ncells, comm.size(), d);
            let assignment = vps.initial_assignment();
            let mine: Vec<Particle> = setup
                .particles
                .iter()
                .filter(|q| {
                    let (c, r) = p.grid.cell_of_point(q.x, q.y);
                    assignment[vps.vp_of_cell(c, r)] == comm.rank()
                })
                .copied()
                .collect();
            let store = RankStore::build(mine, &p.grid, RankKernel::default(), (0, ncells));
            let s = t.elapsed().as_secs_f64();
            black_box(&store);
            s
        })),
    };
    (init_s, build_s)
}

/// Words of the calibration kernel's buffer on each thread (16 MiB), and
/// its dependent random read-modify-writes.
const CALIBRATION_WORDS: usize = 1 << 21;
const CALIBRATION_HOPS: usize = 1 << 19;

/// An anonymous private mapping of `words` zeroed `u64`s, unmapped on drop.
/// The calibration kernel takes its memory from the kernel directly, so
/// it leaves the allocator state the program runs on untouched.
struct Mapping {
    ptr: *mut u64,
    words: usize,
}

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

impl Mapping {
    fn new(words: usize) -> Mapping {
        const PROT_READ_WRITE: i32 = 0x1 | 0x2;
        const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
        // SAFETY: a fresh anonymous mapping with no address hint and no
        // file; the result is checked against MAP_FAILED (-1).
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                words * 8,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(ptr as isize != -1, "mmap of the calibration buffer failed");
        Mapping {
            ptr: ptr.cast(),
            words,
        }
    }

    fn words(&mut self) -> &mut [u64] {
        // SAFETY: the mapping is `words` u64s long, page-aligned, zeroed,
        // and borrowed mutably through `self` only.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.words) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the region `new` mapped, once.
        unsafe { munmap(self.ptr.cast(), self.words * 8) };
    }
}

/// The benchmark's own fixed work: a streaming fill of fresh pages,
/// dependent random read-modify-writes over a buffer larger than the
/// private caches, and a floating-point pass. Touches no code of the
/// program.
fn calibration_kernel() -> u64 {
    let mut map = Mapping::new(CALIBRATION_WORDS);
    let buf = map.words();
    for (i, w) in buf.iter_mut().enumerate() {
        *w = splitmix64(i as u64);
    }
    let mask = CALIBRATION_WORDS as u64 - 1;
    let mut h = 0u64;
    for _ in 0..CALIBRATION_HOPS {
        h = splitmix64(h ^ buf[(h & mask) as usize]);
        buf[(h & mask) as usize] ^= h;
    }
    let mut acc = 0.0f64;
    for (i, w) in buf.iter().enumerate() {
        acc = acc.mul_add(0.999_999, (*w >> 11) as f64 * (i as f64).sqrt());
    }
    h ^ acc.to_bits()
}

/// Wall and CPU seconds the calibration kernel takes on each of `threads`
/// threads run at once, the load shape of the workload.
fn calibrate(threads: usize) -> Vec<(f64, f64)> {
    let timed = || {
        let (t, c) = (Instant::now(), thread_cpu_ns());
        black_box(calibration_kernel());
        let cpu_s = (thread_cpu_ns() - c) as f64 / 1e9;
        (t.elapsed().as_secs_f64(), cpu_s)
    };
    if threads == 1 {
        return vec![timed()];
    }
    let barrier = std::sync::Barrier::new(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    timed()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    })
}

fn max_over_ranks(v: Vec<f64>) -> f64 {
    v.into_iter().fold(0.0, f64::max)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Per-rank phase totals of one traced run, in seconds.
struct RankPhases {
    wall: [f64; 4],
    cpu: [f64; 4],
}

impl RankPhases {
    fn of(t: &TraceReport) -> RankPhases {
        let s = &t.summary;
        RankPhases {
            wall: s.phase_ns.map(|ns| ns as f64 / 1e9),
            cpu: s.phase_cpu_ns.map(|ns| ns as f64 / 1e9),
        }
    }
}

/// The per-layer ledger of one traced run. Walls and waits are the
/// maximum over ranks, CPU times the sum over ranks; counters the program
/// reduces globally (`rehomed`, `msgs_*`) or decides identically on every
/// rank (`border_cells`, cut decisions) are read once from rank 0, the
/// others are summed.
struct Ledger {
    metrics: Vec<(&'static str, f64)>,
    /// `(layer, seconds)` on the rank whose phases cover the most of the
    /// run; with `unattributed_s` they sum to `run_s`.
    rows: Vec<(&'static str, f64)>,
    unattributed_s: f64,
}

fn ledger(p: &Params, run: &RunOutcome) -> Ledger {
    let ranks: Vec<RankPhases> = run.traces.iter().map(RankPhases::of).collect();
    let r0 = &run.traces[0];
    let counter = |c: Counter| r0.summary.counters[c.idx()] as f64;
    let summed = |c: Counter| -> f64 {
        run.traces
            .iter()
            .map(|t| t.summary.counters[c.idx()] as f64)
            .sum()
    };
    let wall = |ph: Phase| ranks.iter().map(|r| r.wall[ph.idx()]).fold(0.0, f64::max);
    let cpu = |ph: Phase| ranks.iter().map(|r| r.cpu[ph.idx()]).sum::<f64>();
    let wait = |ph: Phase| {
        ranks
            .iter()
            .map(|r| (r.wall[ph.idx()] - r.cpu[ph.idx()]).max(0.0))
            .fold(0.0, f64::max)
    };
    let particle_steps = p.n as f64 * p.steps as f64;
    let adv_mean = ranks.iter().map(|r| r.wall[0]).sum::<f64>() / ranks.len() as f64;
    let rank_skew = if adv_mean > 0.0 {
        wall(Phase::Advance) / adv_mean
    } else {
        1.0
    };
    let migrants = counter(Counter::Rehomed);
    let rounds = r0.cuts.len() as f64;
    // A single process has one rank: its load is balanced by definition
    // (the serial tracer's load vector is the column histogram instead).
    let (mean_imb, max_imb) = if p.workload == Workload::Serial1t {
        (1.0, 1.0)
    } else {
        (r0.summary.mean_imbalance, r0.summary.max_imbalance)
    };

    let layered = [
        ("sweep", Phase::Advance),
        ("exchange", Phase::Exchange),
        ("balance", Phase::Balance),
        ("verify", Phase::Verify),
    ];
    let critical = ranks
        .iter()
        .max_by(|a, b| a.wall.iter().sum::<f64>().total_cmp(&b.wall.iter().sum()))
        .expect("at least one rank");
    let mut rows = vec![("bin", run.in_run_build_s)];
    rows.extend(
        layered
            .iter()
            .map(|&(name, ph)| (name, critical.wall[ph.idx()])),
    );
    let unattributed_s = run.run_s - rows.iter().map(|r| r.1).sum::<f64>();

    let per = |x: f64, base: f64| if base > 0.0 { x / base } else { 0.0 };
    let metrics = vec![
        ("bin.rebins", summed(Counter::Rebins)),
        ("sweep.wall_s", wall(Phase::Advance)),
        ("sweep.cpu_s", cpu(Phase::Advance)),
        (
            "sweep.ns_per_particle_step",
            per(cpu(Phase::Advance) * 1e9, particle_steps),
        ),
        ("sweep.rank_skew", rank_skew),
        ("exchange.wall_s", wall(Phase::Exchange)),
        ("exchange.cpu_s", cpu(Phase::Exchange)),
        ("exchange.wait_s", wait(Phase::Exchange)),
        (
            "exchange.ns_per_particle_step",
            per(cpu(Phase::Exchange) * 1e9, particle_steps),
        ),
        ("exchange.migrants", migrants),
        (
            "exchange.cpu_ns_per_migrant",
            per(cpu(Phase::Exchange) * 1e9, migrants),
        ),
        ("exchange.msgs_sent", counter(Counter::MsgsSent)),
        ("exchange.msgs_skipped", counter(Counter::MsgsSkipped)),
        (
            "exchange.overlap_s",
            run.traces
                .iter()
                .map(|t| t.summary.counters[Counter::OverlapNs.idx()] as f64 / 1e9)
                .fold(0.0, f64::max),
        ),
        ("comm.collective_bytes", summed(Counter::CollectiveBytes)),
        ("balance.wall_s", wall(Phase::Balance)),
        ("balance.cpu_s", cpu(Phase::Balance)),
        ("balance.wait_s", wait(Phase::Balance)),
        ("balance.rounds", rounds),
        (
            "balance.ms_per_round",
            per(wall(Phase::Balance) * 1e3, rounds),
        ),
        ("balance.border_cells", counter(Counter::BorderCells)),
        ("balance.mean_imbalance", mean_imb),
        ("balance.max_imbalance", max_imb),
        ("verify.wall_s", wall(Phase::Verify)),
        ("verify.cpu_s", cpu(Phase::Verify)),
        ("ledger.unattributed_s", unattributed_s),
        ("ledger.unattributed_frac", unattributed_s / run.run_s),
    ];
    Ledger {
        metrics,
        rows,
        unattributed_s,
    }
}

fn main() {
    let p = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    };
    // The rank-parallel workloads parallelize over rank threads; the serial
    // one is the single-thread reference. Neither may fan out over the
    // sweep pool.
    let pool_threads = pool::global().set_active_threads(1);

    let setup = build_setup(&p);
    // The calibration brackets the run and the set-ups. The median of its
    // slowest thread's wall time is the host speed the wall times saw
    // (`cal_s`); the median of its threads' mean CPU time is the speed the
    // CPU time saw (`cal_cpu_s`). Time the host takes the cores away counts
    // in the first only.
    let mut cals = vec![calibrate(p.workload.ranks())];
    let run = run_once(&p, setup);
    let peak_rss_mb = peak_rss_mib();
    cals.push(calibrate(p.workload.ranks()));
    let ledger = p.trace.then(|| ledger(&p, &run));

    let (mut inits, mut builds, mut totals) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (i, b) = setup_once(&p);
        inits.push(i);
        builds.push(b);
        totals.push(i + b);
    }
    cals.push(calibrate(p.workload.ranks()));

    let ideal = run.count as f64 / p.workload.ranks() as f64;
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"n\":{},\"grid\":{},\"steps\":{},\"ranks\":{},\
         \"pool_threads\":{},\"simd\":\"{}\",\"kernel\":\"{}\",\"passed\":{},\"id_sum\":{},\
         \"expected_id_sum\":{},\"count\":{},\"max_count\":{},\"digest\":\"{}\",\
         \"run_s\":{},\"cpu_s\":{},\"peak_rss_mb\":{},\"max_load_ratio\":{},\
         \"setup_s\":{},\"init_s\":{},\"bin_build_s\":{},\"cal_s\":{},\"cal_cpu_s\":{}",
        p.workload.name(),
        p.seed,
        p.n,
        p.grid.ncells(),
        p.steps,
        p.workload.ranks(),
        pool_threads,
        SimdBackend::detect().name(),
        run.kernel,
        run.passed,
        run.id_sum,
        run.expected_id_sum,
        run.count,
        run.max_count,
        run.digest,
        run.run_s,
        run.cpu_s,
        peak_rss_mb,
        if ideal > 0.0 {
            run.max_count as f64 / ideal
        } else {
            1.0
        },
        median(totals),
        median(inits),
        median(builds),
        median(
            cals.iter()
                .map(|c| max_over_ranks(c.iter().map(|t| t.0).collect()))
                .collect()
        ),
        median(
            cals.iter()
                .map(|c| c.iter().map(|t| t.1).sum::<f64>() / c.len() as f64)
                .collect()
        ),
    );
    if let Some(l) = ledger {
        let fields: Vec<String> = l
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let rows: Vec<String> = l
            .rows
            .iter()
            .map(|(k, v)| format!("[\"{k}\",{v}]"))
            .collect();
        out.push_str(&format!(
            ",\"layers\":{{{}}},\"ledger_rows\":[{}],\"unattributed_s\":{}",
            fields.join(","),
            rows.join(","),
            l.unattributed_s
        ));
    }
    out.push('}');
    println!("{out}");
}
