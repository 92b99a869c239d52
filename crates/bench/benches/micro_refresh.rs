//! Microbenchmarks of the refresh machinery: the polyphase armed-counter
//! scheduler, whole-cache refresh advances per policy, and the contention
//! model.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use esteem_cache::{CacheGeometry, SetAssocCache};
use esteem_edram::scheduler::{DueAction, PolyphaseScheduler};
use esteem_edram::{BankContention, RefreshEngine, RefreshPolicy, RetentionSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn cache_filled(frac: f64) -> SetAssocCache {
    let g = CacheGeometry::from_capacity(4 << 20, 16, 64, 4, 1);
    let mut c = SetAssocCache::new(g, None);
    let lines = (g.total_slots() as f64 * frac) as u64;
    for b in 0..lines {
        c.access(b, b % 3 == 0, 0);
    }
    c
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_refresh");

    // Scheduler touch throughput (hot path: every L2 access under RPV).
    {
        let mut sched = PolyphaseScheduler::new(100_000, 4, 1 << 16, 4);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut cycle = 0u64;
        group.throughput(Throughput::Elements(1));
        group.bench_function("polyphase_touch", |b| {
            b.iter(|| {
                cycle += 13;
                let line = rng.gen_range(0..1u32 << 16);
                sched.touch(line, (line % 4) as u8, cycle);
            })
        });
        // Keep the queue from growing without bound across iterations.
        sched.advance(cycle + 1_000_000, &mut [0; 4], |_| DueAction::Drop);
    }

    // One retention period of refresh work per policy, 75%-valid cache.
    for policy in [
        RefreshPolicy::PeriodicAll,
        RefreshPolicy::PeriodicValid,
        RefreshPolicy::RPV,
        RefreshPolicy::RPD,
    ] {
        group.throughput(Throughput::Elements(1));
        group.bench_function(format!("advance_one_period/{}", policy.name()), |b| {
            b.iter_with_setup(
                || {
                    let mut cache = cache_filled(0.75);
                    let mut eng = RefreshEngine::new(
                        policy,
                        RetentionSpec {
                            period_cycles: 100_000,
                        },
                        &cache,
                    );
                    // Polyphase schedules need touches registered.
                    if policy.is_polyphase() {
                        let g = *cache.geometry();
                        for set in 0..g.sets {
                            for way in 0..g.ways {
                                if cache.line(set, way).valid {
                                    let out = cache.access(
                                        g.block_of(cache.line(set, way).tag, set),
                                        false,
                                        0,
                                    );
                                    eng.on_access(&out, 0);
                                }
                            }
                        }
                    }
                    (cache, eng)
                },
                |(mut cache, mut eng)| black_box(eng.advance(&mut cache, 100_000)),
            )
        });
    }

    // Contention model window roll.
    {
        let mut bc = BankContention::new(4, 100_000);
        let mut now = 0u64;
        group.bench_function("contention_roll_window", |b| {
            b.iter(|| {
                now += 100_000;
                for _ in 0..100 {
                    bc.access(1);
                }
                bc.roll_window(now, &[4096, 4096, 4096, 4096]);
                black_box(bc.mean_wait())
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
