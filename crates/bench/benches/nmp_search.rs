//! NMP search throughput: candidate evaluations per second, a short
//! end-to-end search, and `search_mixed_32x30_serial`, one search of the
//! shape evbench's `mapping` workload runs (Xavier, the mixed SNN-ANN mix
//! at MVSEC scale, 32 candidates × 30 generations, one worker).

use criterion::{criterion_group, criterion_main, Criterion};
use ev_edge::nmp::candidate::Candidate;
use ev_edge::nmp::evolution::{run_nmp, NmpConfig};
use ev_edge::nmp::fitness::{FitnessConfig, FitnessEvaluator};
use ev_edge::nmp::multitask::MultiTaskProblem;
use ev_edge::nmp::{task_spec_for, TaskMix};
use ev_nn::zoo::{NetworkId, ZooConfig};
use ev_platform::pe::Platform;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn problem() -> MultiTaskProblem {
    let cfg = ZooConfig::mvsec();
    MultiTaskProblem::new(
        Platform::xavier_agx(),
        vec![
            task_spec_for(NetworkId::FusionFlowNet, &cfg, 1.0).expect("buildable"),
            task_spec_for(NetworkId::Dotie, &cfg, 1.0).expect("buildable"),
        ],
    )
    .expect("valid problem")
}

fn bench_nmp(c: &mut Criterion) {
    let p = problem();
    let mut group = c.benchmark_group("nmp");
    group.sample_size(10);

    group.bench_function("fitness_eval_uncached", |b| {
        // Candidates drawn up front, so the loop times evaluation alone.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let candidates: Vec<Candidate> =
            (0..256).map(|_| Candidate::random(&p, &mut rng)).collect();
        let mut next = candidates.iter().cycle();
        b.iter(|| {
            // Fresh evaluator each iteration → no cache reuse.
            let mut eval = FitnessEvaluator::new(&p, FitnessConfig::default());
            let candidate = next.next().expect("cycle never ends");
            eval.evaluate(candidate).expect("valid candidate")
        });
    });

    group.bench_function("search_16x8", |b| {
        b.iter(|| {
            run_nmp(
                &p,
                NmpConfig {
                    population: 16,
                    generations: 8,
                    seed: 3,
                    ..NmpConfig::default()
                },
                FitnessConfig::default(),
            )
            .expect("search succeeds")
        });
    });

    let mixed = TaskMix::MixedSnnAnn
        .build_problem(Platform::xavier_agx(), &ZooConfig::mvsec())
        .expect("valid problem");
    group.bench_function("search_mixed_32x30_serial", |b| {
        b.iter(|| {
            run_nmp(
                &mixed,
                NmpConfig {
                    population: 32,
                    generations: 30,
                    workers: 1,
                    ..NmpConfig::default()
                },
                FitnessConfig::default(),
            )
            .expect("search succeeds")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_nmp);
criterion_main!(benches);
