//! Batched-inference throughput of the `Pipeline` serving path: builds
//! each of the five Table-IV benchmark networks at the A1/A2/A4 alphabet
//! sets (projection-only — throughput does not depend on training),
//! opens an `InferenceSession`, and measures inferences/second with and
//! without the session's shared pre-computer bank cache.
//!
//! Emits `BENCH_pipeline.json` in the working directory — the seed of
//! the perf trajectory for the ROADMAP's batching/throughput work.
//!
//! Run with: `cargo run --release -p man-bench --bin pipeline [--full]`
#![forbid(unsafe_code)]

use std::time::Instant;

use man::alphabet::AlphabetSet;
use man::zoo::Benchmark;
use man_datasets::GenOptions;
use man_repro::Pipeline;
use serde::Serialize;

#[derive(Serialize)]
struct ThroughputRow {
    benchmark: String,
    bits: u32,
    alphabet: String,
    batch: usize,
    /// The resolved MAC kernel these rows were measured under
    /// (`scalar`/`swar`/`avx2`). The regression gate treats rows whose
    /// kernel differs from the baseline's as incomparable.
    kernel: String,
    /// The data layout the *batched* path resolved to (`row`/`batch`).
    /// Like `kernel`, a layout flip makes rows incomparable in the
    /// regression gate rather than a regression. The cold path is
    /// batch=1 and therefore always row-major; this field records the
    /// batched run.
    layout: String,
    /// Inferences per second through `infer_batch` (shared bank cache).
    batched_ips: f64,
    /// Inferences per second with a fresh session per input (no sharing).
    cold_ips: f64,
    /// batched_ips / cold_ips.
    speedup: f64,
    /// Multiply-accumulates per inference.
    macs: u64,
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let batch_size = if full { 128 } else { 24 };
    // One-shot timings of a small batch swing ~2x with host noise; the
    // regression gate gets best-of-N with the two paths interleaved so
    // noise hits both alike. Each rep still opens fresh sessions — the
    // row measures bank sharing *within* a batch, not across reps.
    let reps = if full { 5 } else { 3 };
    println!(
        "[man-kernel] cpu: {}; default kernel: {}",
        man::kernel::cpu_features(),
        man::kernel::default_kernel().label()
    );
    println!("Pipeline serving throughput (batch = {batch_size}, best of {reps})\n");
    println!(
        "{:<30} {:>4} {:<14} {:<7} {:>12} {:>12} {:>8}",
        "Benchmark", "bits", "alphabet", "layout", "batched i/s", "cold i/s", "speedup"
    );
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let bits = b.default_bits();
        let ds = b.dataset(&GenOptions {
            train: 1,
            test: batch_size,
            seed: 0xBE9C + bits as u64,
        });
        for set in [AlphabetSet::a1(), AlphabetSet::a2(), AlphabetSet::a4()] {
            let compiled = Pipeline::for_benchmark(b)
                .with_bits(bits)
                .with_alphabets(vec![set.clone()])
                .constrain()
                .expect("projection")
                .compile()
                .expect("projected weights compile");
            let macs: u64 = compiled.fixed().macs_per_layer().iter().sum();

            let (mut batched_s, mut cold_s) = (f64::MAX, f64::MAX);
            let kernel = compiled.session().kernel_label().to_owned();
            let mut layout = String::new();
            for _ in 0..reps {
                // Shared path: one session, banks shared across the batch.
                let mut session = compiled.session();
                let start = Instant::now();
                let predictions = session
                    .infer_batch(&ds.test_images)
                    .expect("dataset images match the input layer");
                batched_s = batched_s.min(start.elapsed().as_secs_f64());
                assert_eq!(predictions.len(), batch_size);
                // What the batched dispatch actually resolved to —
                // identical every rep (same session config, same batch).
                if let Some(plan) = session.last_dispatch() {
                    layout = plan.layout.label().to_owned();
                }

                // Cold path: a fresh session (empty cache) per input.
                let start = Instant::now();
                for image in &ds.test_images {
                    let mut fresh = compiled.session();
                    let p = fresh.infer(image).expect("dataset image matches");
                    assert!(p.class < 64);
                }
                cold_s = cold_s.min(start.elapsed().as_secs_f64());
            }

            let row = ThroughputRow {
                benchmark: b.name().to_owned(),
                bits,
                alphabet: set.label(),
                batch: batch_size,
                kernel,
                layout,
                batched_ips: batch_size as f64 / batched_s,
                cold_ips: batch_size as f64 / cold_s,
                speedup: cold_s / batched_s,
                macs,
            };
            println!(
                "{:<30} {:>4} {:<14} {:<7} {:>12.1} {:>12.1} {:>7.2}x",
                row.benchmark,
                row.bits,
                row.alphabet,
                row.layout,
                row.batched_ips,
                row.cold_ips,
                row.speedup
            );
            rows.push(row);
        }
    }
    match serde_json::to_string_pretty(&rows) {
        Ok(json) => match std::fs::write("BENCH_pipeline.json", json) {
            Ok(()) => println!("\n[saved BENCH_pipeline.json]"),
            Err(e) => eprintln!("warning: could not write BENCH_pipeline.json: {e}"),
        },
        Err(e) => eprintln!("warning: could not serialize throughput rows: {e}"),
    }
}
