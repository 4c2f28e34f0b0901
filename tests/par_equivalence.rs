//! Property tests of the parallel batch engine's one non-negotiable
//! contract: for ANY model, batch and thread count, parallel inference
//! is bit-identical to sequential inference — plus the pool's panic
//! containment, and the persistent pool's reuse story: every parallel
//! call in the process (facade batches, long-lived sessions, training
//! evaluations) drains the SAME long-lived worker pool, interleaved and
//! across session resizes, without changing a bit.

use man_repro::man::alphabet::AlphabetSet;
use man_repro::man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
use man_repro::man_nn::network::Network;
use man_repro::man_par::{run_chunked, Kernel, Layout, Parallelism};
use man_repro::{CompiledModel, Pipeline};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn any_alphabet() -> impl Strategy<Value = AlphabetSet> {
    prop_oneof![
        Just(AlphabetSet::a1()),
        Just(AlphabetSet::a2()),
        Just(AlphabetSet::a4()),
        Just(AlphabetSet::a8()),
    ]
}

/// A random tiny MLP constrained onto `set`'s lattice and compiled.
fn random_model(
    seed: u64,
    bits: u32,
    in_dim: usize,
    hidden: usize,
    classes: usize,
    set: AlphabetSet,
) -> CompiledModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(in_dim, hidden, &mut rng)),
        Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
        Layer::Dense(Dense::new(hidden, classes, &mut rng)),
    ]);
    Pipeline::from_network(net)
        .with_bits(bits)
        .with_alphabets(vec![set])
        .constrain()
        .expect("projection-only pipeline")
        .compile()
        .expect("projected weights compile")
}

fn random_batch(seed: u64, rows: usize, in_dim: usize) -> Vec<Vec<f32>> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA7C);
    (0..rows)
        .map(|_| {
            (0..in_dim)
                .map(|_| rand::Rng::gen_range(&mut rng, 0.0f32..1.0))
                .collect()
        })
        .collect()
}

fn scores_of(predictions: Vec<man_repro::Prediction>) -> Vec<(usize, Vec<i64>)> {
    predictions
        .into_iter()
        .map(|p| (p.class, p.scores))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Parallel `infer_batch` == sequential `infer_batch`, across random
    /// models, batch sizes 0..64 and `Threads(1..8)`.
    #[test]
    fn parallel_infer_batch_is_bit_identical(
        seed in any::<u64>(),
        bits in prop_oneof![Just(6u32), Just(8u32)],
        set in any_alphabet(),
        in_dim in 4usize..20,
        hidden in 4usize..48,
        classes in 2usize..6,
        rows in 0usize..64,
        threads in 1usize..8,
    ) {
        let model = random_model(seed, bits, in_dim, hidden, classes, set);
        let batch = random_batch(seed, rows, in_dim);
        let sequential = scores_of(
            model.session().infer_batch_shared(&batch).expect("shapes match"),
        );
        let session = model.session_parallel(Parallelism::Threads(threads));
        let parallel = scores_of(session.infer_batch_shared(&batch).expect("shapes match"));
        prop_assert_eq!(&parallel, &sequential);
        // A second pass over the same session (banks now filled by the
        // first) must still be identical — cached banks never change bits.
        let again = scores_of(session.infer_batch_shared(&batch).expect("shapes match"));
        prop_assert_eq!(&again, &sequential);
    }

    /// Single-inference neuron sharding agrees with the sequential path.
    #[test]
    fn parallel_single_inference_is_bit_identical(
        seed in any::<u64>(),
        set in any_alphabet(),
        hidden in 16usize..64,
        threads in 2usize..8,
    ) {
        let model = random_model(seed, 8, 12, hidden, 3, set);
        let input = random_batch(seed, 1, 12).remove(0);
        let sequential = model.session().infer_shared(&input).expect("shape ok");
        let parallel = model
            .session_parallel(Parallelism::Threads(threads))
            .infer_shared(&input)
            .expect("shape ok");
        prop_assert_eq!(parallel.scores, sequential.scores);
        prop_assert_eq!(parallel.class, sequential.class);
    }

    /// One persistent pool, many tenants: interleaving two long-lived
    /// parallel sessions' batches, training-style accuracy
    /// evaluations and session resizes over the SAME process-wide pool
    /// (the `man-par` global pool every parallel call drains) never
    /// changes a bit relative to the sequential reference — the pool
    /// carries no job state from one call into the next.
    #[test]
    fn pool_reuse_across_interleaved_tenants_is_bit_identical(
        seed in any::<u64>(),
        set in any_alphabet(),
        hidden in 8usize..48,
        rows in 1usize..24,
        // Each element is one interleaved operation; the value picks
        // the tenant and (for resizes) the new worker count.
        ops in prop::collection::vec(0usize..12, 4..10),
    ) {
        let in_dim = 10;
        let model = random_model(seed, 8, in_dim, hidden, 4, set);
        let batch = random_batch(seed, rows, in_dim);
        let labels: Vec<usize> = (0..rows).map(|i| i % 4).collect();

        // Sequential references, computed once.
        let seq_scores = scores_of(
            model.session().infer_batch_shared(&batch).expect("shapes match"),
        );
        let seq_accuracy = model.fixed().accuracy(&batch, &labels);

        // Long-lived tenants sharing the pool across the op sequence.
        let mut plain = model.session_parallel(Parallelism::Threads(4));
        let steady = model.session_parallel(Parallelism::Threads(3));
        for op in ops {
            match op % 4 {
                0 => {
                    let got = scores_of(
                        plain.infer_batch_shared(&batch).expect("shapes match"),
                    );
                    prop_assert_eq!(&got, &seq_scores, "plain tenant diverged");
                }
                1 => {
                    let got = scores_of(
                        steady.infer_batch_shared(&batch).expect("shapes match"),
                    );
                    prop_assert_eq!(&got, &seq_scores, "steady tenant diverged");
                }
                2 => {
                    // Training-eval tenant: row-sharded accuracy over
                    // the same pool (Auto exercises the tuner).
                    let p = if op < 6 { Parallelism::Threads(1 + op) } else { Parallelism::Auto };
                    let acc = model.fixed().accuracy_par(&batch, &labels, p);
                    prop_assert_eq!(acc, seq_accuracy, "eval tenant diverged");
                }
                _ => {
                    // Resize: a fresh worker-slot allocation on the same
                    // pool; results must survive the resize.
                    plain = model.session_parallel(Parallelism::Threads(1 + op % 7));
                    let got = scores_of(
                        plain.infer_batch_shared(&batch).expect("shapes match"),
                    );
                    prop_assert_eq!(&got, &seq_scores, "resized tenant diverged");
                }
            }
        }
    }

    /// The §10 kernel matrix: the vectorized MAC kernels (portable
    /// SWAR and, where detected, AVX2 via `Vector`) are bit-identical
    /// to the scalar reference across random models × word lengths ×
    /// alphabets × batch 0..64 × `Threads(1..8)` — equivalence is
    /// asserted on the scores of every row, twice per session (the
    /// second pass runs over prefilled arenas).
    #[test]
    fn scalar_and_vector_kernels_are_bit_identical(
        seed in any::<u64>(),
        bits in prop_oneof![Just(6u32), Just(8u32), Just(12u32)],
        set in any_alphabet(),
        in_dim in 4usize..20,
        hidden in 4usize..48,
        classes in 2usize..6,
        rows in 0usize..64,
        threads in 1usize..8,
    ) {
        let model = random_model(seed, bits, in_dim, hidden, classes, set);
        let batch = random_batch(seed, rows, in_dim);
        let scalar_session = model.session().with_kernel(Kernel::Scalar);
        prop_assert_eq!(scalar_session.kernel_label(), "scalar");
        let scalar = scores_of(
            scalar_session.infer_batch_shared(&batch).expect("shapes match"),
        );
        for kernel in [Kernel::Swar, Kernel::Vector] {
            let session = model
                .session_parallel(Parallelism::Threads(threads))
                .with_kernel(kernel);
            prop_assert!(session.kernel_label() != "scalar");
            let vectored = scores_of(
                session.infer_batch_shared(&batch).expect("shapes match"),
            );
            prop_assert_eq!(&vectored, &scalar, "kernel={} first pass", kernel.label());
            let again = scores_of(
                session.infer_batch_shared(&batch).expect("shapes match"),
            );
            prop_assert_eq!(&again, &scalar, "kernel={} second pass", kernel.label());
        }
    }

    /// The §10 layout matrix: the batch-major lane-block path (a
    /// transposed bank walk vectorizing across batch rows) is
    /// bit-identical to the row-major reference across random models ×
    /// word lengths × alphabets × batch 0..64 (straddling the
    /// `LANE_BLOCK` width and its remainders) × `Threads(1..8)` —
    /// asserted twice per session, so the second pass
    /// also covers prefilled arenas and reused transpose scratch.
    #[test]
    fn batch_major_layout_is_bit_identical(
        seed in any::<u64>(),
        bits in prop_oneof![Just(6u32), Just(8u32), Just(12u32)],
        set in any_alphabet(),
        in_dim in 4usize..20,
        hidden in 4usize..48,
        classes in 2usize..6,
        rows in 0usize..64,
        threads in 1usize..8,
    ) {
        let model = random_model(seed, bits, in_dim, hidden, classes, set);
        let batch = random_batch(seed, rows, in_dim);
        let row_major = scores_of(
            model.session()
                .with_layout(Layout::RowMajor)
                .infer_batch_shared(&batch)
                .expect("shapes match"),
        );
        let session = model
            .session_parallel(Parallelism::Threads(threads))
            .with_layout(Layout::BatchMajor);
        let batch_major = scores_of(
            session.infer_batch_shared(&batch).expect("shapes match"),
        );
        prop_assert_eq!(&batch_major, &row_major, "first pass");
        let again = scores_of(
            session.infer_batch_shared(&batch).expect("shapes match"),
        );
        prop_assert_eq!(&again, &row_major, "reused-scratch pass");
    }

    /// `Parallelism::Auto` — whatever plan the tuner resolves (rows,
    /// neurons or sequential) — is bit-identical to the sequential
    /// path.
    #[test]
    fn auto_tuned_sessions_are_bit_identical(
        seed in any::<u64>(),
        set in any_alphabet(),
        hidden in 8usize..64,
        rows in 0usize..32,
    ) {
        let model = random_model(seed, 8, 14, hidden, 3, set);
        let batch = random_batch(seed, rows, 14);
        let sequential = scores_of(
            model.session().infer_batch_shared(&batch).expect("shapes match"),
        );
        let session = model.session_parallel(Parallelism::Auto);
        let auto = scores_of(session.infer_batch_shared(&batch).expect("shapes match"));
        prop_assert_eq!(&auto, &sequential);
        // Load hints only influence the plan, never the bits.
        for streams in [1usize, 2, 16] {
            let hinted = scores_of(
                session.infer_batch_with_load(&batch, streams).expect("shapes match"),
            );
            prop_assert_eq!(&hinted, &sequential, "streams={}", streams);
        }
    }
}

/// A panic inside one worker must surface to the caller — with its
/// payload — after every worker slot has been accounted for, and leave
/// the engine usable: the containment discipline the serving scheduler
/// relies on (its `dispatch` then converts the panic into a typed
/// error). With the persistent pool this is a sharper claim than
/// before: the SAME pool threads that contained the panic keep serving
/// every later job, so the test drives several post-panic tenants
/// (two parallel sessions, training eval) — and panics again — through
/// the reused pool.
#[test]
fn panic_in_worker_is_contained_and_pool_survives_reuse() {
    let poison = |marker: usize| {
        std::panic::catch_unwind(move || {
            let mut contexts = vec![(); 4];
            run_chunked(&mut contexts, 64, 1, move |(), range| {
                if range.start == marker {
                    panic!("poisoned row");
                }
                range.map(|i| i as u64).collect::<Vec<_>>()
            })
        })
    };
    let payload = poison(13).expect_err("worker panic must propagate");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"poisoned row"));

    // The pool is unaffected afterwards: a real model still infers,
    // in parallel, bit-identically, through the same pool threads.
    let model = random_model(7, 8, 10, 24, 3, AlphabetSet::a2());
    let batch = random_batch(7, 16, 10);
    let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();
    let sequential = scores_of(
        model
            .session()
            .infer_batch_shared(&batch)
            .expect("shapes match"),
    );
    let parallel = scores_of(
        model
            .session_parallel(Parallelism::Threads(4))
            .infer_batch_shared(&batch)
            .expect("shapes match"),
    );
    assert_eq!(parallel, sequential);

    // A second panic on the reused pool is contained just the same...
    let payload = poison(31).expect_err("second panic must propagate too");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"poisoned row"));

    // ...and the other tenants keep getting exact answers.
    let other = scores_of(
        model
            .session_parallel(Parallelism::Threads(3))
            .infer_batch_shared(&batch)
            .expect("shapes match"),
    );
    assert_eq!(other, sequential);
    let seq_acc = model.fixed().accuracy(&batch, &labels);
    for p in [Parallelism::Threads(4), Parallelism::Auto] {
        assert_eq!(model.fixed().accuracy_par(&batch, &labels, p), seq_acc);
    }
}

/// The forced-AVX2-off path: `Kernel::Swar` must resolve to the
/// portable SWAR kernel on *every* host (explicit requests beat the
/// `MAN_KERNEL` environment too), and its results must match both the
/// scalar reference and whatever `Vector` resolves to — so the fallback
/// CI exercises on AVX2-less runners is pinned even on hosts that have
/// AVX2.
#[test]
fn forced_swar_fallback_matches_scalar_and_vector() {
    let model = random_model(21, 8, 14, 40, 4, AlphabetSet::a4());
    let batch = random_batch(21, 12, 14);
    let swar = model.session().with_kernel(Kernel::Swar);
    assert_eq!(
        swar.kernel_label(),
        "swar",
        "explicit Swar must never dispatch to AVX2 (or scalar)"
    );
    let scalar = scores_of(
        model
            .session()
            .with_kernel(Kernel::Scalar)
            .infer_batch_shared(&batch)
            .expect("shapes match"),
    );
    let got = scores_of(swar.infer_batch_shared(&batch).expect("shapes match"));
    assert_eq!(got, scalar);
    let vector = model.session().with_kernel(Kernel::Vector);
    assert!(vector.resolved_kernel().is_vectorized());
    let got = scores_of(vector.infer_batch_shared(&batch).expect("shapes match"));
    assert_eq!(got, scalar);
}

/// Batch-major is a batch-path optimization: below two rows there is
/// nothing to vectorize across, so an explicit `Layout::BatchMajor`
/// request degrades to the row-major path — same bits, and the
/// dispatch record says `row`, so operators never see a phantom
/// `batch` label on single-row traffic. From two rows up the explicit
/// request is honoured again.
#[test]
fn batch_major_request_degrades_to_row_major_below_two_rows() {
    let model = random_model(23, 8, 12, 32, 3, AlphabetSet::a2());
    let session = model.session().with_layout(Layout::BatchMajor);
    let single = random_batch(23, 1, 12);
    let reference = scores_of(
        model
            .session()
            .infer_batch_shared(&single)
            .expect("shapes match"),
    );
    let got = scores_of(session.infer_batch_shared(&single).expect("shapes match"));
    assert_eq!(got, reference);
    let plan = session.last_dispatch().expect("a batch resolved");
    assert_eq!(
        plan.layout.label(),
        "row",
        "batch=1 must degrade to row-major"
    );
    assert_eq!(session.stats().layout, "row");
    let pair = random_batch(24, 2, 12);
    session.infer_batch_shared(&pair).expect("shapes match");
    assert_eq!(
        session.stats().layout,
        "batch",
        "two rows honour the explicit batch-major request"
    );
}

/// Session `stats` surface the resolved plan × kernel × layout and the
/// cache memory story (per-layer bank bytes summed across worker
/// slots, transpose scratch) — the observability satellite.
#[test]
fn session_stats_report_plan_kernel_and_memory() {
    let model = random_model(22, 8, 12, 32, 3, AlphabetSet::a2());
    let batch = random_batch(22, 16, 12);
    let session = model.session_parallel(Parallelism::Threads(2));
    let fresh = session.stats();
    assert_eq!(fresh.plan, "unresolved", "no batch has resolved yet");
    assert_eq!(fresh.workers, 2);
    session.infer_batch_shared(&batch).expect("shapes match");
    let stats = session.stats();
    assert!(
        stats.plan.contains(&stats.kernel)
            && stats.plan.contains(&stats.layout)
            && stats.plan.matches('+').count() == 2,
        "plan must carry the plan×kernel×layout label, got {:?}",
        stats.plan
    );
    assert!(
        stats.layout == "row" || stats.layout == "batch",
        "a resolved batch pins one layout, got {:?}",
        stats.layout
    );
    assert_eq!(stats.layer_bank_bytes.len(), 2, "one entry per layer");
    assert!(stats.bank_bytes > 0, "inference filled bank rows");
    assert_eq!(stats.cache_bytes, stats.bank_bytes + stats.transpose_bytes);
    if stats.layout == "batch" {
        assert!(
            stats.transpose_bytes > 0,
            "a batch-major dispatch leaves transpose scratch behind"
        );
    }
    assert!(stats.kernel_plan_bytes > 0);
    assert_eq!(stats.macs_per_row, model.macs_per_inference());
}
