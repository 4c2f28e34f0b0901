//! Parallel batch-engine throughput: `InferenceSession::infer_batch`
//! across the zoo models at `Sequential` vs `Threads(2)` / `Threads(4)`
//! / `Auto`, with bit-equality against the sequential path asserted on
//! every configuration before anything is timed.
//!
//! Emits `BENCH_par.json` in the working directory. The file records the
//! host's core count (`host_cores`) next to every measurement: thread
//! scaling is only meaningful relative to the cores that were actually
//! available, and the CI regression gate compares like against like via
//! the per-thread-count `ips` metrics.
//!
//! Run with: `cargo run --release -p man-bench --bin par [-- --full]`
#![forbid(unsafe_code)]

use std::time::Instant;

use man::alphabet::AlphabetSet;
use man::zoo::Benchmark;
use man_datasets::GenOptions;
use man_par::{available_cores, Layout, Parallelism};
use man_repro::Pipeline;
use serde::Serialize;

#[derive(Serialize)]
struct ThreadRow {
    /// Requested configuration: `sequential`, `threads(2)`,
    /// `threads(4)`, `auto` (normalized — `Auto` resolves per host).
    parallelism: String,
    /// The worker count the session *resolved* for this batch (for
    /// `Auto`, what the tuner actually engaged — the honest x-axis the
    /// scaling-shape gate compares across core classes).
    workers: usize,
    /// The resolved sharding plan (`sequential`, `rows(N)`,
    /// `neurons(N)`).
    plan: String,
    /// The resolved MAC kernel (`scalar`/`swar`/`avx2`) — the second
    /// tuner axis; kernel-mismatched rows are incomparable in the gate.
    kernel: String,
    /// The resolved data layout (`row`/`batch`) — the third tuner axis;
    /// like `kernel`, a layout flip makes rows incomparable in the gate.
    layout: String,
    /// Inferences per second through `infer_batch` (best window).
    ips: f64,
    /// `ips / sequential ips` on the same host — the scaling headline.
    speedup_vs_sequential: f64,
}

#[derive(Serialize)]
struct LayoutRow {
    /// Identity-bearing label for the forced layout under measurement
    /// (`row`/`batch`). Unlike `ThreadRow.layout` (an environment
    /// *annotation*), this field names what the row *is*, so the
    /// regression gate pairs row-vs-row and batch-vs-batch across
    /// baselines.
    mode: String,
    /// The resolved sharding plan for this batch.
    plan: String,
    /// The resolved MAC kernel the layout ran under.
    kernel: String,
    /// Inferences per second through a sequential `infer_batch`.
    ips: f64,
    /// `ips / row-major ips` on the same host — the batch-major
    /// headline the ROADMAP's >=1.5x target reads.
    speedup_vs_row_major: f64,
}

#[derive(Serialize)]
struct ParBench {
    benchmark: String,
    bits: u32,
    alphabet: String,
    batch: usize,
    /// MACs per inference — the work each row represents.
    macs: u64,
    rows: Vec<ThreadRow>,
    /// Row-major vs batch-major head-to-head on a sequential session —
    /// same batch, same kernel, layout forced on each side. Bit-equality
    /// against the thread rows' reference is asserted before timing.
    layout_rows: Vec<LayoutRow>,
}

#[derive(Serialize)]
struct ParReport {
    /// Hardware threads available when the numbers were taken. Thread
    /// scaling on an N-core host tops out near N; a 1-core container
    /// measures ~1.0x by physics, not by regression.
    host_cores: usize,
    quick: bool,
    benchmarks: Vec<ParBench>,
}

/// One untimed warmup pass (fills the per-worker caches), returning the
/// scores for the bit-equality check.
fn warmup(session: &man_repro::InferenceSession, images: &[Vec<f32>]) -> Vec<Vec<i64>> {
    session
        .infer_batch_shared(images)
        .expect("dataset images match the input layer")
        .into_iter()
        .map(|p| p.scores)
        .collect()
}

/// One timed pass: inferences per second for a single `infer_batch`.
fn timed_ips(session: &man_repro::InferenceSession, images: &[Vec<f32>]) -> f64 {
    let start = Instant::now();
    let n = session
        .infer_batch_shared(images)
        .expect("dataset images match the input layer")
        .len();
    n as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (batch, reps) = if full { (256, 4) } else { (64, 2) };
    let host_cores = available_cores();
    let configs = [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Auto,
    ];
    println!(
        "[man-kernel] cpu: {}; default kernel: {}",
        man::kernel::cpu_features(),
        man::kernel::default_kernel().label()
    );
    println!("Parallel batch engine — infer_batch over {batch} rows, {host_cores} host core(s)\n");
    println!(
        "{:<30} {:>4} {:<12} {:>14} {:>22} {:>12} {:>9}",
        "Benchmark", "bits", "alphabet", "parallelism", "plan+kernel+layout", "i/s", "speedup"
    );
    let mut benchmarks = Vec::new();
    for b in Benchmark::ALL {
        let bits = b.default_bits();
        let set = AlphabetSet::a1();
        let ds = b.dataset(&GenOptions {
            train: 1,
            test: batch,
            seed: 0x9A12 + bits as u64,
        });
        let compiled = Pipeline::for_benchmark(b)
            .with_bits(bits)
            .with_alphabets(vec![set.clone()])
            .constrain()
            .expect("projection")
            .compile()
            .expect("projected weights compile");
        let macs: u64 = compiled.fixed().macs_per_layer().iter().sum();

        // Warm every configuration first (checking bit-equality against
        // the sequential reference), then interleave the timed reps so
        // host noise hits all configurations alike.
        let sessions: Vec<_> = configs
            .iter()
            .map(|&p| compiled.session_parallel(p))
            .collect();
        let mut reference: Option<Vec<Vec<i64>>> = None;
        for (p, session) in configs.iter().zip(&sessions) {
            let scores = warmup(session, &ds.test_images);
            match &reference {
                None => reference = Some(scores),
                Some(want) => assert_eq!(
                    want,
                    &scores,
                    "{} @ {}: parallel batch must be bit-identical to sequential",
                    b.name(),
                    p.label()
                ),
            }
        }
        let mut best = vec![0.0f64; configs.len()];
        for _ in 0..reps {
            for (i, session) in sessions.iter().enumerate() {
                best[i] = best[i].max(timed_ips(session, &ds.test_images));
            }
        }
        let sequential_ips = best[0];
        let mut rows: Vec<ThreadRow> = Vec::new();
        for ((p, session), ips) in configs.into_iter().zip(&sessions).zip(best) {
            let speedup = if sequential_ips > 0.0 {
                ips / sequential_ips
            } else {
                1.0
            };
            // What the session actually engaged for this batch — under
            // `Auto` the tuner's answer, not the request — on all
            // three axes: sharding plan, MAC kernel, and data layout
            // (the latter read back from the recorded dispatch).
            let plan = session.plan_for_batch(ds.test_images.len());
            let kernel = session.kernel_label();
            let layout = session
                .last_dispatch()
                .map(|plan| plan.layout.label())
                .unwrap_or("unresolved");
            println!(
                "{:<30} {:>4} {:<12} {:>14} {:>22} {:>12.1} {:>8.2}x",
                b.name(),
                bits,
                set.label(),
                p.label(),
                plan.label_with_kernel_layout(kernel, layout),
                ips,
                speedup
            );
            rows.push(ThreadRow {
                // `Auto` resolves to a host-dependent worker count;
                // normalize its label so baselines taken on different
                // machines still pair up in the regression gate.
                parallelism: match p {
                    Parallelism::Auto => "auto".to_owned(),
                    other => other.label(),
                },
                workers: plan.workers(),
                plan: plan.label(),
                kernel: kernel.to_owned(),
                layout: layout.to_owned(),
                ips,
                speedup_vs_sequential: speedup,
            });
        }

        // Layout head-to-head: the same sequential session, layout
        // forced to each side, bit-equality asserted against the thread
        // rows' reference before anything is timed. This is the
        // ROADMAP's batch-major evidence — per-benchmark, not
        // per-thread-count, because layout pays off inside one worker.
        let layout_sessions: Vec<(Layout, _)> = [Layout::RowMajor, Layout::BatchMajor]
            .into_iter()
            .map(|l| {
                (
                    l,
                    compiled
                        .session_parallel(Parallelism::Sequential)
                        .with_layout(l),
                )
            })
            .collect();
        for (l, session) in &layout_sessions {
            let scores = warmup(session, &ds.test_images);
            assert_eq!(
                reference.as_ref().expect("reference scores recorded"),
                &scores,
                "{} @ forced {}: layout must be bit-identical",
                b.name(),
                l.label()
            );
        }
        let mut layout_best = vec![0.0f64; layout_sessions.len()];
        for _ in 0..reps {
            for (i, (_, session)) in layout_sessions.iter().enumerate() {
                layout_best[i] = layout_best[i].max(timed_ips(session, &ds.test_images));
            }
        }
        let row_major_ips = layout_best[0];
        let mut layout_rows: Vec<LayoutRow> = Vec::new();
        for ((l, session), ips) in layout_sessions.iter().zip(layout_best) {
            let speedup = if row_major_ips > 0.0 {
                ips / row_major_ips
            } else {
                1.0
            };
            let plan = session.plan_for_batch(ds.test_images.len());
            let kernel = session.kernel_label();
            println!(
                "{:<30} {:>4} {:<12} {:>14} {:>22} {:>12.1} {:>8.2}x",
                b.name(),
                bits,
                set.label(),
                format!("layout={}", l.label()),
                plan.label_with_kernel_layout(kernel, l.label()),
                ips,
                speedup
            );
            layout_rows.push(LayoutRow {
                mode: l.label().to_owned(),
                plan: plan.label(),
                kernel: kernel.to_owned(),
                ips,
                speedup_vs_row_major: speedup,
            });
        }
        benchmarks.push(ParBench {
            benchmark: b.name().to_owned(),
            bits,
            alphabet: set.label(),
            batch,
            macs,
            rows,
            layout_rows,
        });
    }
    let report = ParReport {
        host_cores,
        quick: !full,
        benchmarks,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => match std::fs::write("BENCH_par.json", json) {
            Ok(()) => println!("\n[saved BENCH_par.json]"),
            Err(e) => eprintln!("warning: could not write BENCH_par.json: {e}"),
        },
        Err(e) => eprintln!("warning: could not serialize par bench: {e}"),
    }
}
