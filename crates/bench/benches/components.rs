//! Criterion micro-benches of the core components: the water-filling
//! allocator, the fluid PFS engine, the region sweep (Eq. 3), strategy
//! updates, and the end-to-end interpreter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pfsim::alloc::{water_fill, Demand};
use pfsim::{Channel, FlowSpec, Pfs, PfsConfig};
use simcore::{EventQueue, SimTime};
use std::hint::black_box;
use tmio::regions::{sweep, Interval};
use tmio::{Strategy, StrategyState};

fn bench_water_fill(c: &mut Criterion) {
    let mut g = c.benchmark_group("water_fill");
    for n in [4usize, 64, 1024] {
        let demands: Vec<Demand> = (0..n)
            .map(|i| Demand {
                count: 1 + i % 3,
                weight: 1.0 + (i % 5) as f64,
                cap: if i % 2 == 0 {
                    Some(10.0 + i as f64)
                } else {
                    None
                },
            })
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &demands, |b, d| {
            b.iter(|| water_fill(black_box(5_000.0), black_box(d)))
        });
    }
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    // Steady-state churn at a fixed pending-set size: schedule, re-arm the
    // alarm on every 4th event, pop — the interpreter's inner-loop mix.
    g.bench_function("churn_64pending_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(128);
            let mut t = 0.0f64;
            for i in 0..10_000u32 {
                t += 0.001;
                let at = SimTime::from_secs(t);
                q.schedule(at, i);
                if i % 4 == 0 {
                    q.set_alarm(at, i);
                }
                if q.len() >= 64 {
                    black_box(q.pop());
                }
            }
            while q.pop().is_some() {}
            black_box(q.now())
        })
    });
    // Pure ordered drain: heap throughput alone.
    g.bench_function("fill_then_drain_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for i in 0..10_000u32 {
                // Shuffled-ish times exercise real sift costs.
                let t = ((i.wrapping_mul(2654435761)) % 10_000) as f64 * 0.01;
                q.schedule(SimTime::from_secs(t), i);
            }
            let mut n = 0u32;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    g.finish();
}

fn bench_pfs_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("pfs_engine");
    for flows in [16usize, 256] {
        g.bench_with_input(BenchmarkId::new("burst", flows), &flows, |b, &n| {
            b.iter(|| {
                let mut p = Pfs::new(PfsConfig {
                    write_capacity: 1e9,
                    read_capacity: 1e9,
                });
                p.set_recording(false);
                for i in 0..n {
                    p.submit(
                        SimTime::ZERO,
                        Channel::Write,
                        FlowSpec::simple(1e6 * (1.0 + (i % 7) as f64)),
                    );
                }
                black_box(p.advance_to(SimTime::from_secs(1e6)).len())
            })
        });
    }
    g.finish();
}

fn bench_region_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("region_sweep");
    for n in [100usize, 10_000] {
        let intervals: Vec<Interval> = (0..n)
            .map(|i| {
                let t = i as f64 * 0.01;
                Interval {
                    ts: t,
                    te: t + 0.5 + (i % 9) as f64 * 0.1,
                    value: 1.0 + (i % 4) as f64,
                }
            })
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &intervals, |b, iv| {
            b.iter(|| sweep(black_box(iv)))
        });
    }
    g.finish();
}

fn bench_strategy(c: &mut Criterion) {
    c.bench_function("strategy_updates_1k", |b| {
        let strategies = [
            Strategy::Direct { tol: 1.1 },
            Strategy::UpOnly { tol: 1.1 },
            Strategy::Adaptive {
                tol: 1.1,
                tol_i: 0.5,
            },
            Strategy::Mfu { tol: 1.1, bins: 32 },
        ];
        b.iter(|| {
            let mut acc = 0.0f64;
            for s in strategies {
                let mut st = StrategyState::default();
                for i in 0..250 {
                    let bw = 1e6 * (1.0 + (i % 13) as f64);
                    acc += st.next_limit(s, black_box(bw)).unwrap_or(0.0);
                }
            }
            black_box(acc)
        })
    });
}

fn bench_interpreter(c: &mut Criterion) {
    use mpisim::{FileId, NoHooks, Op, Program, ReqTag, World, WorldConfig};
    c.bench_function("interpreter_64ranks_10phases", |b| {
        b.iter(|| {
            let mut ops = Vec::new();
            for k in 0..10u32 {
                ops.push(Op::IWrite {
                    file: FileId(0),
                    bytes: 1e6,
                    tag: ReqTag(k),
                });
                ops.push(Op::Compute { seconds: 0.01 });
                ops.push(Op::Wait { tag: ReqTag(k) });
            }
            let mut cfg = WorldConfig::new(64);
            cfg.record_pfs = false;
            let mut w = World::new(cfg, vec![Program::from_ops(ops); 64], NoHooks);
            w.create_file("f");
            black_box(w.run().makespan())
        })
    });
}

fn bench_ftio(c: &mut Criterion) {
    use simcore::StepSeries;
    use tmio::ftio::detect_period;
    c.bench_function("ftio_detect_period_2048", |b| {
        let mut s = StepSeries::new();
        let mut t = 0.0;
        while t < 500.0 {
            s.push(SimTime::from_secs(t), 1e9);
            s.push(SimTime::from_secs(t + 0.4), 0.0);
            t += 5.0;
        }
        b.iter(|| black_box(detect_period(black_box(&s), 0.0, 500.0, 2048)))
    });
}

criterion_group!(
    benches,
    bench_water_fill,
    bench_event_queue,
    bench_pfs_engine,
    bench_region_sweep,
    bench_strategy,
    bench_interpreter,
    bench_ftio
);
criterion_main!(benches);
