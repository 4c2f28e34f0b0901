//! The models the workloads run, their seeded inputs, and the
//! scalar-reference answers every served answer is checked against.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use man_repro::man::alphabet::AlphabetSet;
use man_repro::man::zoo::Benchmark;
use man_repro::man_datasets::GenOptions;
use man_repro::man_par::Layout;
use man_repro::{CompiledModel, Kernel, Parallelism, Pipeline, Prediction};

use crate::trace::span;

/// One model: a Table IV benchmark network at its paper word length,
/// constrained onto one alphabet set.
#[derive(Clone, Copy, Debug)]
pub struct ModelSpec {
    /// The name metrics and the serving registry use.
    pub key: &'static str,
    /// The benchmark network.
    pub bench: Benchmark,
    /// The alphabet set every layer is constrained to.
    pub alphabets: fn() -> AlphabetSet,
}

/// The five `offline` models.
pub const OFFLINE: [ModelSpec; 5] = [
    ModelSpec {
        key: "digits_mlp",
        bench: Benchmark::DigitsMlp,
        alphabets: AlphabetSet::a1,
    },
    ModelSpec {
        key: "digits_cnn",
        bench: Benchmark::DigitsCnn,
        alphabets: AlphabetSet::a2,
    },
    ModelSpec {
        key: "faces",
        bench: Benchmark::Faces,
        alphabets: AlphabetSet::a4,
    },
    ModelSpec {
        key: "svhn",
        bench: Benchmark::Svhn,
        alphabets: AlphabetSet::a2,
    },
    ModelSpec {
        key: "tich",
        bench: Benchmark::Tich,
        alphabets: AlphabetSet::a4,
    },
];

/// The two models `serve` and `cluster` mix evenly.
pub const SERVED: [ModelSpec; 2] = [
    ModelSpec {
        key: "digits",
        bench: Benchmark::DigitsMlp,
        alphabets: AlphabetSet::a1,
    },
    ModelSpec {
        key: "faces",
        bench: Benchmark::Faces,
        alphabets: AlphabetSet::a2,
    },
];

/// Distinct inputs per model; also the `offline` batch size.
pub const POOL: usize = 64;

/// Counts operations and the ones that failed, across threads.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Records one operation; `what` describes it when it failed.
    pub fn record(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        // ORDERING: plain counters, read after every thread joined.
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            let n = self.failed.fetch_add(1, Ordering::Relaxed);
            if n < 5 {
                eprintln!("perfbench: FAILED {}", what());
            }
        }
        ok
    }

    /// `(attempted, failed)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.attempted.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }
}

/// The answer a model must give: argmax class and raw scores.
pub type Answer = (usize, Vec<i64>);

/// A compiled model with its seeded inputs and reference answers.
pub struct Prepared {
    /// What was compiled.
    pub spec: ModelSpec,
    /// The model as loaded back from its artifact.
    pub model: CompiledModel,
    /// The artifact file it was loaded from.
    pub artifact: PathBuf,
    /// [`POOL`] seeded inputs.
    pub inputs: Vec<Vec<f32>>,
    /// Scalar-reference answers, one per input.
    pub reference: Vec<Answer>,
    /// How long `Pipeline` took to constrain and compile, in seconds.
    pub compile_s: f64,
    /// How long `CompiledModel::load` took, in seconds.
    pub load_s: f64,
}

impl Prepared {
    /// Whether `got` is bit-identical to the reference for `input`.
    pub fn matches(&self, input: usize, got: &Prediction) -> bool {
        let (class, scores) = &self.reference[input];
        got.class == *class && got.scores == *scores
    }
}

/// Compiles `spec`, saves it under `dir` (which must not hold another
/// model with the same key) and loads it back — the artifact round trip
/// a deployment makes. Inputs and reference answers are left empty; see
/// [`with_reference`].
pub fn compile_and_load(spec: ModelSpec, dir: &Path) -> Result<Prepared, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let bits = spec.bench.default_bits();
    let t = Instant::now();
    let compiled = span("pipeline.compile", 0, || {
        Pipeline::for_benchmark(spec.bench)
            .with_bits(bits)
            .with_alphabets(vec![(spec.alphabets)()])
            .constrain()
            .and_then(|trained| trained.compile())
    })
    .map_err(|e| format!("compiling {}: {e}", spec.key))?;
    let compile_s = t.elapsed().as_secs_f64();
    let artifact = dir.join(format!("{}.man.json", spec.key));
    span("artifact.save", 0, || compiled.save(&artifact))
        .map_err(|e| format!("saving {}: {e}", spec.key))?;
    let t = Instant::now();
    let model = span("artifact.load", 0, || CompiledModel::load(&artifact))
        .map_err(|e| format!("loading {}: {e}", spec.key))?;
    let load_s = t.elapsed().as_secs_f64();
    Ok(Prepared {
        spec,
        model,
        artifact,
        inputs: Vec::new(),
        reference: Vec::new(),
        compile_s,
        load_s,
    })
}

/// [`POOL`] inputs for `spec` from the benchmark's seeded dataset
/// generator.
pub fn inputs(spec: ModelSpec, seed: u64) -> Vec<Vec<f32>> {
    let tag = spec
        .key
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b.into()));
    spec.bench
        .dataset(&GenOptions {
            train: 0,
            test: POOL,
            seed: seed ^ tag,
        })
        .test_images
}

/// The reference answers for `prepared`'s inputs, computed with the
/// scalar kernel in row-major layout. The rows are spread over
/// `workers` threads; sharding rows never changes an answer.
pub fn reference(prepared: &Prepared, workers: usize) -> Result<Vec<Answer>, String> {
    let session = prepared
        .model
        .session_parallel(Parallelism::Threads(workers))
        .with_kernel(Kernel::Scalar)
        .with_layout(Layout::RowMajor);
    let answers = span("session.reference", 0, || {
        session.infer_batch_shared(&prepared.inputs)
    })
    .map_err(|e| format!("reference for {}: {e}", prepared.spec.key))?;
    Ok(answers.into_iter().map(|p| (p.class, p.scores)).collect())
}
