//! Microbenchmarks of the kernel's primitive operations: the force
//! evaluation and particle push (the per-particle cost the cost model's
//! `particle_ns` abstracts), verification, wire codec, the analytic load
//! model, and the balancer decision procedures.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_ampi::balancer::{greedy_assign, refine_assign};
use pic_cluster::loadmodel::ColumnLoadModel;
use pic_core::charge::{total_force, SimConstants};
use pic_core::dist::Distribution;
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_core::motion::advance_all;
use pic_core::particle::Particle;
use pic_core::soa::ParticleBatch;
use pic_core::verify::{verify_all, VerifyReport, DEFAULT_TOLERANCE};
use pic_par::diffusion::diffuse_xcuts;

fn population(n: u64) -> (Grid, Vec<Particle>) {
    let grid = Grid::new(512).unwrap();
    let setup = InitConfig::new(grid, n, Distribution::PAPER_SKEW)
        .with_m(1)
        .build()
        .unwrap();
    (grid, setup.particles)
}

fn bench_force(c: &mut Criterion) {
    let grid = Grid::new(512).unwrap();
    let consts = SimConstants::CANONICAL;
    c.bench_function("force/total_force", |b| {
        b.iter(|| {
            total_force(
                &grid,
                &consts,
                black_box(137.5),
                black_box(88.5),
                black_box(0.3535),
            )
        })
    });
}

fn bench_advance(c: &mut Criterion) {
    let consts = SimConstants::CANONICAL;
    let mut group = c.benchmark_group("advance");
    for &n in &[1_000u64, 10_000, 100_000] {
        let (grid, particles) = population(n);
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("serial", n), &particles, |b, ps| {
            b.iter_batched(
                || ps.clone(),
                |mut ps| advance_all(&grid, &consts, &mut ps),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_verify(c: &mut Criterion) {
    let (grid, particles) = population(50_000);
    let mut group = c.benchmark_group("verify");
    group.throughput(Throughput::Elements(50_000));
    // `check_batch` is the kernel the runners call on their SoA stores;
    // `check_particles` serves AoS stores; `verify_all` is the per-particle
    // reference they are tested against.
    let batch = ParticleBatch::from_particles(&particles);
    group.bench_function("check_batch/50k", |b| {
        b.iter(|| {
            let mut report = VerifyReport::new(0, DEFAULT_TOLERANCE);
            report.check_batch(&grid, black_box(&batch), 0);
            report
        })
    });
    group.bench_function("check_particles/50k", |b| {
        b.iter(|| {
            let mut report = VerifyReport::new(0, DEFAULT_TOLERANCE);
            report.check_particles(&grid, black_box(&particles), 0);
            report
        })
    });
    group.bench_function("verify_all/50k", |b| {
        b.iter(|| verify_all(&grid, black_box(&particles), 0, 0, DEFAULT_TOLERANCE))
    });
    group.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let (_, particles) = population(10_000);
    let encoded = Particle::encode_all(&particles);
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode/10k", |b| {
        b.iter(|| Particle::encode_all(black_box(&particles)))
    });
    group.bench_function("decode/10k", |b| {
        b.iter(|| Particle::decode_all(black_box(&encoded)))
    });
    group.finish();
}

fn bench_loadmodel(c: &mut Criterion) {
    let mut model = ColumnLoadModel::new(Distribution::PAPER_SKEW, 11_998, 25_600_000, 0, 1);
    c.bench_function("loadmodel/advance+query", |b| {
        b.iter(|| {
            model.advance(1);
            black_box(model.count_in_rect((1_000, 1_187), (0, 1_499)))
        })
    });
    c.bench_function("loadmodel/crossing_cut", |b| {
        b.iter(|| black_box(model.crossing_cut(black_box(5_000))))
    });
}

fn bench_balancers(c: &mut Criterion) {
    // 3,072 VPs with skewed loads (Figure 7's largest configuration).
    let loads: Vec<f64> = (0..3_072).map(|i| 1.0 + (i % 97) as f64).collect();
    let current: Vec<usize> = (0..3_072).map(|i| i % 192).collect();
    let mut group = c.benchmark_group("balancer");
    group.bench_function("greedy/3072vp_192cores", |b| {
        b.iter(|| greedy_assign(black_box(&loads), 192))
    });
    group.bench_function("refine/3072vp_192cores", |b| {
        b.iter(|| refine_assign(black_box(&loads), black_box(&current), 192, 256))
    });
    group.finish();
}

fn bench_diffusion_decision(c: &mut Criterion) {
    let ncells = 11_998usize;
    let px = 64usize;
    let xcuts: Vec<usize> = (0..=px).map(|i| i * ncells / px).collect();
    let counts: Vec<u64> = (0..px as u64).map(|i| 1_000 + i * 37 % 500).collect();
    c.bench_function("diffusion/diffuse_xcuts_64cols", |b| {
        b.iter(|| diffuse_xcuts(black_box(&xcuts), black_box(&counts), 10, 50, ncells))
    });
}

fn bench_soa_vs_aos(c: &mut Criterion) {
    use pic_core::soa::ParticleBatch;
    let consts = SimConstants::CANONICAL;
    let (grid, particles) = population(100_000);
    let batch = ParticleBatch::from_particles(&particles);
    let mut group = c.benchmark_group("layout");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("aos_advance/100k", |b| {
        b.iter_batched(
            || particles.clone(),
            |mut ps| advance_all(&grid, &consts, &mut ps),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("soa_advance/100k", |b| {
        b.iter_batched(
            || batch.clone(),
            |mut bt| bt.advance_all(&grid, &consts),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_charge_grid(c: &mut Criterion) {
    use pic_core::charge_grid::ChargeGrid;
    let grid = Grid::new(512).unwrap();
    let consts = SimConstants::CANONICAL;
    let mut group = c.benchmark_group("charge_grid");
    group.bench_function("build/128x128", |b| {
        b.iter(|| ChargeGrid::build(&grid, &consts, (128, 256), (128, 256)))
    });
    let cg = ChargeGrid::build(&grid, &consts, (128, 256), (128, 256));
    group.bench_function("gridded_force", |b| {
        b.iter(|| {
            cg.total_force(
                &grid,
                &consts,
                black_box(200.5),
                black_box(200.5),
                black_box(0.35),
            )
        })
    });
    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    use pic_core::engine::Simulation;
    let grid = Grid::new(128).unwrap();
    let setup = InitConfig::new(grid, 50_000, Distribution::PAPER_SKEW)
        .build()
        .unwrap();
    let sim = Simulation::new(setup);
    let cp = sim.checkpoint();
    let bytes = cp.encode();
    let mut group = c.benchmark_group("checkpoint");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode/50k", |b| b.iter(|| cp.encode()));
    group.bench_function("decode/50k", |b| {
        b.iter(|| pic_core::checkpoint::CheckpointData::decode(black_box(&bytes)).unwrap())
    });
    group.finish();
}

fn bench_balance_stats(c: &mut Criterion) {
    use pic_cluster::stats::BalanceStats;
    let loads: Vec<f64> = (0..3_072).map(|i| ((i * 37) % 997) as f64).collect();
    c.bench_function("stats/balance_3072", |b| {
        b.iter(|| BalanceStats::from_loads(black_box(&loads)))
    });
}

fn bench_init(c: &mut Criterion) {
    let grid = Grid::new(512).unwrap();
    let mut group = c.benchmark_group("init");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("geometric/100k", |b| {
        b.iter(|| {
            InitConfig::new(grid, 100_000, Distribution::PAPER_SKEW)
                .build()
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_force,
        bench_advance,
        bench_verify,
        bench_wire_codec,
        bench_loadmodel,
        bench_balancers,
        bench_diffusion_decision,
        bench_soa_vs_aos,
        bench_charge_grid,
        bench_checkpoint,
        bench_balance_stats,
        bench_init
);
criterion_main!(kernels);
