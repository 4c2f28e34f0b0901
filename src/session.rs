//! The serving entry point: batched inference sessions.
//!
//! An [`InferenceSession`] owns a compiled [`man::fixed::FixedNet`] plus
//! one persistent [`man::fixed::SessionCache`] of pre-computer banks per
//! worker slot. A bank depends only on the input magnitude and the
//! layer's alphabet set, so across a batch most multiplications find
//! their bank already computed — the software analogue of the paper's
//! CSHM sharing.
//!
//! # Parallel execution
//!
//! [`InferenceSession::with_parallelism`] turns the session into the
//! parallel batch engine: `infer_batch*` shards the rows of a batch
//! across worker slots (one bank cache per slot, threads drawn from the
//! process-wide persistent `man-par` pool), and a lone large inference
//! shards its big layers across output neurons instead. Both shardings
//! are bit-identical to the sequential path **by construction**: every
//! output neuron's shift-add chain is computed whole, on one thread, in
//! fan-in order, and the merge only reassembles finished rows/neurons —
//! accumulation within a neuron is never reordered, and the worker-local
//! caches memoize pure functions of the compiled network. See `man-par`
//! for the pool itself and DESIGN.md §8–§9 for the determinism argument.
//!
//! With [`Parallelism::Auto`] the session resolves the sharding *per
//! batch* through the `man-par` decision table ([`man_par::plan_shards`]):
//! the model's compile-time MACs-per-inference, the batch size and the
//! serve scheduler's queue pressure pick between staying sequential,
//! row sharding and neuron sharding — see
//! [`InferenceSession::plan_for_batch`] for the resolved plan and
//! [`InferenceSession::with_auto_tuning`] to override the table's
//! thresholds. Explicit `Threads(n)` keeps the static behavior. Every
//! batch resolves through the engine's one resolver
//! ([`man::kernel::ExecRequest::resolve`]) into an
//! [`ExecPlan`] (shard × kernel × layout) and runs through the engine's
//! one batch entry point, [`man::fixed::FixedNet::infer_batch`].
//!
//! The mutable state (the bank caches) lives behind internal
//! locks, so the shared-reference entry points
//! [`InferenceSession::infer_shared`] / [`infer_batch_shared`] work
//! through `&self` — which is what lets one session be driven from many
//! scheduler threads via an `Arc`. The original `&mut self` signatures
//! remain as thin wrappers.
//!
//! [`infer_batch_shared`]: InferenceSession::infer_batch_shared

use std::sync::{Arc, Mutex, MutexGuard};

use man::fixed::{argmax_raw, FixedNet, LayerTrace, SessionCache};
use man::kernel::{ExecPlan, ExecRequest, KernelKind};
use man_par::{AutoTuning, Kernel, Layout, Parallelism, ShardPlan};
use serde::Serialize;

use crate::artifact::CompiledModel;
use crate::error::ManError;

/// The outcome of one inference.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Argmax class over the raw scores.
    pub class: usize,
    /// Raw output-layer accumulators ("logits" at the final layer's
    /// accumulator fraction) — bit-identical to
    /// [`man::fixed::FixedNet::infer_raw`].
    pub scores: Vec<i64>,
    /// Per-layer operand traces, captured when the session was opened
    /// with [`InferenceSession::with_trace`].
    pub traces: Option<Vec<LayerTrace>>,
}

/// A batched inference session over a compiled model.
///
/// # Example
///
/// ```no_run
/// # use man_repro::{CompiledModel, Parallelism};
/// # fn demo(model: &CompiledModel, batch: &[Vec<f32>]) {
/// let mut session = model.session().with_parallelism(Parallelism::Auto);
/// for p in session.infer_batch(batch).expect("inputs match the network") {
///     println!("class {} (scores {:?})", p.class, p.scores);
/// }
/// # }
/// ```
pub struct InferenceSession {
    fixed: Arc<FixedNet>,
    /// One cache per worker slot; `caches.len()` is the worker *budget*
    /// (`Parallelism::Auto` allocates one slot per core and the tuner
    /// resolves how many of them a given batch engages).
    caches: Vec<Mutex<SessionCache>>,
    /// The session's requests on every tuner axis (parallelism, kernel,
    /// layout, Auto thresholds, MACs per row, tracing) — what
    /// [`ExecRequest::resolve`] turns into each batch's plan.
    request: ExecRequest,
    /// The plan the most recent batch resolved to — what
    /// [`InferenceSession::stats`] reports so operators can see what the
    /// tuner actually chose.
    resolved_plan: Mutex<Option<ExecPlan>>,
    trace_limit: Option<usize>,
}

/// A point-in-time observability snapshot of one session: the resolved
/// execution configuration (plan × kernel × layout) plus the cache
/// memory story (per-layer bank arenas, transpose scratch, the engine's
/// shared SoA kernel plans).
#[derive(Clone, Debug, Serialize)]
pub struct SessionStats {
    /// The configured parallelism (`"sequential"`, `"threads(4)"`,
    /// `"auto(8)"`).
    pub parallelism: String,
    /// Worker-slot budget (persistent caches held).
    pub workers: u64,
    /// The resolved MAC kernel label (`"scalar"`, `"swar"`, `"avx2"`).
    pub kernel: String,
    /// The layout axis the most recent batch resolved to (`"row"`,
    /// `"batch"`); `"unresolved"` before the first inference.
    pub layout: String,
    /// The sharding plan the most recent batch resolved to, combined
    /// with the kernel and layout (e.g. `"rows(4)+swar+batch"`);
    /// `"unresolved"` before the first inference.
    pub plan: String,
    /// Compile-time MACs per inference (the tuner's work measure).
    pub macs_per_row: u64,
    /// Heap bytes of each layer's bank arenas, summed across worker
    /// slots.
    pub layer_bank_bytes: Vec<u64>,
    /// Total bank-arena bytes across layers and slots.
    pub bank_bytes: u64,
    /// Bytes of the engine's repacked SoA kernel plans (shared by every
    /// session over the same compiled model).
    pub kernel_plan_bytes: u64,
    /// Heap bytes of the batch-major transpose scratch, summed across
    /// worker slots (0 until a batch-major dispatch ran).
    pub transpose_bytes: u64,
    /// `bank_bytes + transpose_bytes` — the session-owned cache total.
    pub cache_bytes: u64,
}

impl InferenceSession {
    /// Opens a session over a compiled model. The compiled engine is
    /// shared, not copied — opening many sessions is cheap.
    pub fn new(model: &CompiledModel) -> Self {
        let fixed = model.fixed_shared();
        let caches = Self::build_caches(&fixed, 1);
        let request = ExecRequest::new(Parallelism::Sequential, fixed.macs_per_inference());
        Self {
            fixed,
            caches,
            request,
            resolved_plan: Mutex::new(None),
            trace_limit: None,
        }
    }

    fn build_caches(fixed: &FixedNet, workers: usize) -> Vec<Mutex<SessionCache>> {
        (0..workers.max(1))
            .map(|_| Mutex::new(fixed.session_cache()))
            .collect()
    }

    /// Sets the worker budget batches may be sharded across. The
    /// session keeps one persistent bank cache per worker slot, so the
    /// cache-warmth story of a long-lived session survives going
    /// parallel; the threads themselves come from the process-wide
    /// persistent `man-par` pool, so resizing a session never spawns or
    /// kills OS threads. [`Parallelism::Sequential`] (the default)
    /// restores the single-threaded reference path;
    /// [`Parallelism::Auto`] lets the tuner resolve sharding mode and
    /// worker count per batch (see [`InferenceSession::plan_for_batch`]).
    /// Every setting returns bit-identical predictions.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.request.parallelism = parallelism;
        self.caches = Self::build_caches(&self.fixed, parallelism.workers());
        self
    }

    /// Overrides the [`Parallelism::Auto`] decision-table thresholds
    /// (a no-op under `Sequential`/`Threads`). The default table is
    /// [`AutoTuning::default`].
    #[must_use]
    pub fn with_auto_tuning(mut self, tuning: AutoTuning) -> Self {
        self.request.tuning = tuning;
        self
    }

    /// Sets the session's MAC-kernel request (see [`Kernel`]):
    /// `Scalar` pins the per-weight reference loop, `Swar` the portable
    /// vector kernel, `Vector` the best vectorized kernel the host
    /// supports (AVX2 when detected), and `Auto` — the default — defers
    /// to [`AutoTuning::kernel`] and the `MAN_KERNEL` environment
    /// override. Every kernel returns bit-identical predictions; see
    /// [`InferenceSession::resolved_kernel`] for what actually runs.
    #[must_use]
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.request.kernel = kernel;
        self
    }

    /// Sets the session's layout request (see [`Layout`]): `RowMajor`
    /// pins the per-image kernels, `BatchMajor` the batch-transposed
    /// lane kernels for every batch of ≥ 2 rows, and `Auto` — the
    /// default — defers to [`AutoTuning::layout`], the `MAN_LAYOUT`
    /// environment override, and the tuner's batch/MACs-per-row
    /// heuristic. Every layout returns bit-identical predictions; see
    /// [`InferenceSession::last_dispatch`] for what actually ran.
    #[must_use]
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.request.layout = layout;
        self
    }

    /// The MAC kernel this session's inferences run after dispatch
    /// (`scalar`/`swar`/`avx2`): the session-level request when
    /// explicit, else the tuning's kernel axis, else the engine's
    /// env-aware auto resolution.
    pub fn resolved_kernel(&self) -> KernelKind {
        self.request.kernel()
    }

    /// The resolved kernel's label (`"scalar"`, `"swar"`, `"avx2"`) for
    /// logs and bench rows.
    pub fn kernel_label(&self) -> &'static str {
        self.resolved_kernel().label()
    }

    /// The plan (shard × kernel × layout) the most recent batch resolved
    /// to, or `None` before the first inference — the cheap (`Copy`)
    /// form of what [`InferenceSession::stats`] renders as the `plan`
    /// label, for callers on a hot path (the serve scheduler records it
    /// per dispatch).
    pub fn last_dispatch(&self) -> Option<ExecPlan> {
        *self
            .resolved_plan
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// An observability snapshot: resolved plan × kernel × layout plus
    /// the cache memory footprint (per-layer bank arenas and transpose
    /// scratch summed across worker slots; the engine's shared SoA plan
    /// bytes alongside).
    pub fn stats(&self) -> SessionStats {
        let dispatch = self.last_dispatch();
        let unresolved = || "unresolved".to_owned();
        let mut layer_bank_bytes: Vec<u64> = Vec::new();
        let mut transpose_bytes = 0u64;
        for slot in 0..self.caches.len() {
            let fp = self.lock_cache(slot).footprint();
            if layer_bank_bytes.is_empty() {
                layer_bank_bytes = vec![0; fp.layer_bank_bytes.len()];
            }
            for (sum, bytes) in layer_bank_bytes.iter_mut().zip(&fp.layer_bank_bytes) {
                *sum += *bytes as u64;
            }
            transpose_bytes += fp.transpose_bytes as u64;
        }
        let bank_bytes: u64 = layer_bank_bytes.iter().sum();
        SessionStats {
            parallelism: self.request.parallelism.label(),
            workers: self.caches.len() as u64,
            kernel: self.kernel_label().to_owned(),
            layout: dispatch.map_or_else(unresolved, |p| p.layout.label().to_owned()),
            plan: dispatch.map_or_else(unresolved, ExecPlan::label),
            macs_per_row: self.request.macs_per_row,
            layer_bank_bytes,
            bank_bytes,
            kernel_plan_bytes: self.fixed.kernel_plan_bytes() as u64,
            transpose_bytes,
            cache_bytes: bank_bytes + transpose_bytes,
        }
    }

    /// The parallelism the session was configured with.
    pub fn parallelism(&self) -> Parallelism {
        self.request.parallelism
    }

    /// The worker budget (one persistent cache slot per worker; under
    /// [`Parallelism::Auto`] the per-batch resolved count can be lower —
    /// see [`InferenceSession::plan_for_batch`]).
    pub fn workers(&self) -> usize {
        self.caches.len()
    }

    /// Compile-time MACs one inference of this model costs — the work
    /// measure the Auto tuner plans with.
    pub fn macs_per_row(&self) -> u64 {
        self.request.macs_per_row
    }

    /// How a batch of `batch` rows would shard on this session, assuming
    /// no competing streams — the honest "what did `Auto` resolve to"
    /// answer the bench reports record. Sessions configured with
    /// explicit [`Parallelism`] values keep their static plan (rows when
    /// the batch has them, neurons for a lone row); [`Parallelism::Auto`]
    /// consults the `man-par` decision table with the model's
    /// compile-time MACs per row.
    pub fn plan_for_batch(&self, batch: usize) -> ShardPlan {
        self.request.resolve(batch, 1).shard
    }

    /// Enables per-layer operand tracing on every prediction (up to
    /// `limit` MACs per layer). Tracing costs time and memory — and
    /// forces the sequential row-major path, since the operand stream is
    /// ordered — so leave it off for throughput serving.
    #[must_use]
    pub fn with_trace(mut self, limit: usize) -> Self {
        self.trace_limit = Some(limit);
        self.request.traced = true;
        self
    }

    /// The compiled engine the session serves.
    pub fn fixed(&self) -> &FixedNet {
        &self.fixed
    }

    fn check_shape(&self, input: &[f32]) -> Result<(), ManError> {
        let expected = self.fixed.input_len();
        if input.len() != expected {
            return Err(ManError::Shape {
                expected,
                got: input.len(),
            });
        }
        Ok(())
    }

    /// Runs one inference through a shared reference — the entry point
    /// scheduler workers drive via `Arc<InferenceSession>`. On a
    /// parallel session, large layers are sharded across the workers
    /// (under [`Parallelism::Auto`], only when the tuner decides the
    /// row is worth it).
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Shape`] if `input` does not hold exactly
    /// `self.fixed().input_len()` values.
    pub fn infer_shared(&self, input: &[f32]) -> Result<Prediction, ManError> {
        let mut one = self.run(std::slice::from_ref(&input), 1)?;
        Ok(one.pop().expect("one input yields one prediction"))
    }

    /// The caches stay internally consistent even if a thread panicked
    /// mid-inference (bank rows are written whole, and a half-run
    /// inference leaves no partial state behind), so a poisoned lock is
    /// recovered rather than propagated — one panicking request must
    /// not brick a long-lived serving session.
    fn lock_cache(&self, slot: usize) -> MutexGuard<'_, SessionCache> {
        self.caches[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs a batch of inferences through a shared reference, sharing
    /// pre-computer banks across the whole batch. Equivalent to — and
    /// bit-identical with — calling [`InferenceSession::infer_shared`]
    /// once per input, for every [`Parallelism`] setting.
    ///
    /// On a parallel session the rows are sharded across the worker
    /// slots (each with its own persistent cache); a lone row is
    /// neuron-sharded instead, so big lone requests still use every
    /// core. Under [`Parallelism::Auto`], the `man-par` decision table
    /// resolves the mode and worker count per batch.
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Shape`] on the first wrong-length input; the
    /// whole batch is validated before any inference runs.
    pub fn infer_batch_shared(&self, inputs: &[Vec<f32>]) -> Result<Vec<Prediction>, ManError> {
        self.run(inputs, 1)
    }

    /// [`InferenceSession::infer_batch_shared`] with a load hint:
    /// `streams` is the number of concurrent batch streams competing for
    /// the same cores (≥ 1). The serve scheduler derives it from its
    /// queue depth so a deep backlog does not let one micro-batch grab
    /// every core; it only influences the [`Parallelism::Auto`] plan and
    /// never the predicted bits.
    ///
    /// # Errors
    ///
    /// As [`InferenceSession::infer_batch_shared`].
    pub fn infer_batch_with_load(
        &self,
        inputs: &[Vec<f32>],
        streams: usize,
    ) -> Result<Vec<Prediction>, ManError> {
        self.run(inputs, streams)
    }

    /// Validates, resolves and runs one batch: the session's single
    /// dispatch path.
    fn run<I: AsRef<[f32]> + Sync>(
        &self,
        inputs: &[I],
        streams: usize,
    ) -> Result<Vec<Prediction>, ManError> {
        for input in inputs {
            self.check_shape(input.as_ref())?;
        }
        // The kernel-execute stage of the obs taxonomy (DESIGN.md §12):
        // one span per batch, labeled with the resolved MAC kernel,
        // arg = batch size. A no-op branch when observability is off.
        let _kernel_span = man_obs::Span::labeled(
            man_obs::Stage::Kernel,
            0,
            self.kernel_label(),
            inputs.len() as u64,
        );
        let plan = self.request.resolve(inputs.len(), streams);
        *self
            .resolved_plan
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(plan);
        let mut guards: Vec<MutexGuard<'_, SessionCache>> = (0..plan.cache_slots())
            .map(|slot| self.lock_cache(slot))
            .collect();
        let predict = |scores: Vec<i64>, traces| Prediction {
            class: argmax_raw(&scores),
            scores,
            traces,
        };
        Ok(match self.trace_limit {
            Some(limit) => inputs
                .iter()
                .map(|x| {
                    let (scores, traces) =
                        self.fixed
                            .infer_raw_traced(x.as_ref(), limit, &mut guards[0]);
                    predict(scores, Some(traces))
                })
                .collect(),
            None => {
                let mut caches: Vec<&mut SessionCache> =
                    guards.iter_mut().map(|g| &mut **g).collect();
                self.fixed
                    .infer_batch(inputs, &mut caches, plan)
                    .into_iter()
                    .map(|scores| predict(scores, None))
                    .collect()
            }
        })
    }

    /// Runs one inference ([`InferenceSession::infer_shared`] behind the
    /// historical `&mut self` receiver).
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Shape`] if `input` does not hold exactly
    /// `self.fixed().input_len()` values.
    pub fn infer(&mut self, input: &[f32]) -> Result<Prediction, ManError> {
        self.infer_shared(input)
    }

    /// Runs a batch of inferences ([`InferenceSession::infer_batch_shared`]
    /// behind the historical `&mut self` receiver).
    ///
    /// # Errors
    ///
    /// Returns [`ManError::Shape`] on the first wrong-length input.
    pub fn infer_batch(&mut self, inputs: &[Vec<f32>]) -> Result<Vec<Prediction>, ManError> {
        self.infer_batch_shared(inputs)
    }
}
