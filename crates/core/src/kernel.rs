//! The MAC kernel layer: runtime-dispatched implementations of the
//! fixed-point engine's inner select/shift/add loop.
//!
//! The paper's datapath multiplies by selecting a pre-computed alphabet
//! product, shifting it into quartet position and adding — per weight,
//! per quartet. The engine's original inner loop executed that one
//! weight at a time through an [`crate::asm::AsmPlan`] walk (a
//! `Vec<Option<(usize, u32)>>` with a branch per quartet) and a
//! per-magnitude `Box<[u64]>` bank lookup. This module repacks both
//! sides into contiguous structure-of-arrays buffers and evaluates the
//! exact same arithmetic four weights per step:
//!
//! * `MacSoa` — every weight's decoded plan, re-encoded as one byte
//!   per (weight, quartet-slot): `padded bank index << 4 | total
//!   shift`. Index 0 is a zero sentinel, so a masked (zero) quartet
//!   adds nothing without a branch. Bytes are laid out plane-major
//!   (slot-0 bytes of all weights, then slot-1, …) so a 4-weight step
//!   reads four adjacent bytes per slot.
//! * `BankArena` — the session cache's bank store, one *padded*
//!   contiguous row per input magnitude (`[0, a₁·x, a₂·x, …]`), filled
//!   lazily and addressed by row offset instead of a per-magnitude heap
//!   box.
//!
//! Three `MacKernel` implementations evaluate a fan-in run over those
//! buffers: the **scalar** reference (the same per-term walk as
//! `AsmMultiplier::apply`, kept as the bit-exact anchor), a portable
//! **SWAR**-style kernel (branch-free, four weights per unrolled step,
//! plain `u64` arithmetic — no `std::arch`), and an **AVX2**
//! specialization (`vpgatherqq` bank selects + `vpsllvq` per-lane
//! shifts), selected at runtime behind `is_x86_feature_detected!`.
//!
//! A second, **batch-major** family (`MacBatchKernel`, same three
//! variants) flips the vectorization axis: instead of packing four
//! weights of one batch row, it evaluates one weight term against a
//! whole 16-row lane block at once over a batch-transposed, 32-bit copy
//! of the block's pre-computer banks (`transpose_bank_block`). The term
//! byte of a weight is identical across rows, so the transpose turns
//! every bank select into a contiguous load under one shared shift —
//! one term decode per fan-in position for the block, no gathers, which
//! is where wide batches win. Which family
//! runs is the **layout** axis ([`LayoutKind`], resolved by
//! [`resolve_layout`] from the `man_par::Layout` request vocabulary,
//! the `MAN_LAYOUT` environment override and the tuner heuristic).
//!
//! # Bit-exactness by construction
//!
//! Every kernel computes, per weight, `Σ_q bank[idx_q] << (shift_q +
//! offset_q)` — the identical terms the scalar `apply` sums, and the
//! identical value (`u64` addition is associative and the terms cannot
//! overflow: magnitudes are below `2^15`, so a product is below
//! `2^30`). The signed product is applied through the very same
//! [`man_fixed::bits::apply_sign`], and the **accumulation across the
//! fan-in runs in exactly the sequential order** — vectorization packs
//! the product computation, never the `i64` accumulator chain (the only
//! order-sensitive loop; DESIGN.md §8). Equivalence is additionally
//! pinned exhaustively in this module's tests and by the
//! `tests/par_equivalence.rs` proptest matrix.

use std::sync::OnceLock;

use man_par::{AutoContext, AutoTuning, Kernel, Layout, Parallelism, ShardPlan};

use crate::asm::{AsmMultiplier, AsmPlan};

/// The kernel that actually runs after dispatch — what bench rows,
/// session stats and the serve scheduler report.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// The per-weight reference loop.
    Scalar,
    /// The portable structure-of-arrays SWAR kernel.
    Swar,
    /// The `std::arch` AVX2 specialization (x86-64 with AVX2 only).
    Avx2,
}

impl KernelKind {
    /// A short label (`"scalar"`, `"swar"`, `"avx2"`) for logs, stats
    /// and bench reports.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Swar => "swar",
            KernelKind::Avx2 => "avx2",
        }
    }

    /// `true` for the vectorized kernels (everything but the scalar
    /// reference).
    pub fn is_vectorized(self) -> bool {
        !matches!(self, KernelKind::Scalar)
    }
}

/// `true` when the host supports the AVX2 specialization.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The best vectorized kernel this host supports: AVX2 when detected,
/// the portable SWAR kernel otherwise.
pub fn detect() -> KernelKind {
    if avx2_available() {
        KernelKind::Avx2
    } else {
        KernelKind::Swar
    }
}

/// A one-line description of the detected CPU features relevant to
/// kernel dispatch (for example `x86_64: avx2 detected`), printed by
/// the examples for CI log forensics.
pub fn cpu_features() -> String {
    let avx2 = if avx2_available() {
        "avx2 detected"
    } else {
        "no avx2 (portable SWAR fallback)"
    };
    format!("{}: {avx2}", std::env::consts::ARCH)
}

/// Resolves a kernel *request* to the kernel that will run:
///
/// | request  | resolves to |
/// |----------|-------------|
/// | `Scalar` | `Scalar` |
/// | `Swar`   | `Swar` (AVX2 explicitly off) |
/// | `Vector` | [`detect`]: `Avx2` when available, else `Swar` |
/// | `Auto`   | the `MAN_KERNEL` env override when set, else `Vector` |
///
/// The environment is consulted once per process (the answer is
/// cached); explicit non-`Auto` requests always win over `MAN_KERNEL`,
/// so an equivalence test that pins both kernels stays meaningful under
/// the CI jobs that set the variable.
pub fn resolve(request: Kernel) -> KernelKind {
    match request {
        Kernel::Scalar => KernelKind::Scalar,
        Kernel::Swar => KernelKind::Swar,
        Kernel::Vector => detect(),
        Kernel::Auto => default_kernel(),
    }
}

/// What [`Kernel::Auto`] resolves to on this host (env override
/// included) — the kernel every engine entry point without an explicit
/// request runs.
pub fn default_kernel() -> KernelKind {
    static AUTO: OnceLock<KernelKind> = OnceLock::new();
    *AUTO.get_or_init(|| match Kernel::from_env() {
        Some(Kernel::Scalar) => KernelKind::Scalar,
        Some(Kernel::Swar) => KernelKind::Swar,
        Some(Kernel::Vector) | Some(Kernel::Auto) | None => detect(),
    })
}

/// The MAC layout that actually runs after dispatch — what bench rows,
/// session stats and the serve scheduler report as the third label in
/// the `plan×kernel×layout` triple.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LayoutKind {
    /// Vectorize across one neuron's fan-in (the PR 5 kernel family).
    RowMajor,
    /// Vectorize across batch rows over a batch-transposed bank view.
    BatchMajor,
}

impl LayoutKind {
    /// A short label (`"row"`, `"batch"`) for logs, stats and bench
    /// reports.
    pub fn label(self) -> &'static str {
        match self {
            LayoutKind::RowMajor => "row",
            LayoutKind::BatchMajor => "batch",
        }
    }

    /// `true` for the batch-major layout.
    pub fn is_batch_major(self) -> bool {
        matches!(self, LayoutKind::BatchMajor)
    }
}

/// The `MAN_LAYOUT` override, consulted once per process (cached, like
/// `MAN_KERNEL` in [`default_kernel`]).
fn env_layout() -> Option<Layout> {
    static ENV: OnceLock<Option<Layout>> = OnceLock::new();
    *ENV.get_or_init(Layout::from_env)
}

/// Resolves a layout *request* for a batch of `batch` rows of a model
/// costing `macs_per_row` MACs per inference:
///
/// | request      | resolves to |
/// |--------------|-------------|
/// | `RowMajor`   | `RowMajor` |
/// | `BatchMajor` | `BatchMajor` — `RowMajor` when `batch < 2` |
/// | `Auto`       | the `MAN_LAYOUT` env override when set, else [`man_par::plan_layout`] |
///
/// Like the kernel axis, explicit non-`Auto` requests always win over
/// `MAN_LAYOUT` (so equivalence tests that pin both layouts stay
/// meaningful under the CI env matrix), and the environment is read
/// once per process. A batch with fewer than two rows *always* resolves
/// to `RowMajor` — there is no batch axis to vectorize, and the
/// row-major path is the bit-identical fast path — so the reported
/// label stays honest even under a forced `BatchMajor` request.
pub fn resolve_layout(
    request: Layout,
    batch: usize,
    macs_per_row: u64,
    tuning: &AutoTuning,
) -> LayoutKind {
    let requested = match request {
        Layout::Auto => match env_layout() {
            Some(Layout::RowMajor) => Layout::RowMajor,
            Some(Layout::BatchMajor) => Layout::BatchMajor,
            Some(Layout::Auto) | None => man_par::plan_layout(batch, macs_per_row, tuning),
        },
        explicit => explicit,
    };
    match requested {
        Layout::BatchMajor if batch >= 2 => LayoutKind::BatchMajor,
        _ => LayoutKind::RowMajor,
    }
}

/// How one batch runs on all three tuner axes — the plan
/// [`crate::fixed::FixedNet::infer_batch`] executes. Every plan returns
/// bit-identical logits; the choice only moves wall-clock time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ExecPlan {
    /// Sequential, row-sharded or neuron-sharded.
    pub shard: ShardPlan,
    /// The MAC kernel every dense/conv layer runs.
    pub kernel: KernelKind,
    /// Row-major (per-image kernels) or batch-major (lane blocks).
    pub layout: LayoutKind,
}

impl ExecPlan {
    /// The sequential row-major plan under `kernel`.
    pub fn sequential(kernel: KernelKind) -> Self {
        Self {
            shard: ShardPlan::Sequential,
            kernel,
            layout: LayoutKind::RowMajor,
        }
    }

    /// Worker caches the plan engages: one per row shard, else one.
    pub fn cache_slots(self) -> usize {
        match self.shard {
            ShardPlan::Rows { workers } => workers,
            ShardPlan::Sequential | ShardPlan::Neurons { .. } => 1,
        }
    }

    /// The plan × kernel × layout label (`"rows(4)+swar+batch"`).
    pub fn label(self) -> String {
        self.shard
            .label_with_kernel_layout(self.kernel.label(), self.layout.label())
    }
}

/// What a caller asks for on every tuner axis — the inputs
/// [`ExecRequest::resolve`] turns into the [`ExecPlan`] of one batch.
/// Sessions and `FixedNet::accuracy_par` resolve through this one
/// function, so every resolution rule lives here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecRequest {
    /// The worker budget and sharding request.
    pub parallelism: Parallelism,
    /// The MAC-kernel request ([`Kernel::Auto`] defers to
    /// [`AutoTuning::kernel`]).
    pub kernel: Kernel,
    /// The layout request ([`Layout::Auto`] defers to
    /// [`AutoTuning::layout`]).
    pub layout: Layout,
    /// The [`Parallelism::Auto`] decision-table thresholds.
    pub tuning: AutoTuning,
    /// Compile-time MACs per inference — the tuner's work measure.
    pub macs_per_row: u64,
    /// Operand tracing is on (the operand stream is ordered per image).
    pub traced: bool,
}

impl ExecRequest {
    /// Every axis on `Auto` under the default tuning, untraced.
    pub fn new(parallelism: Parallelism, macs_per_row: u64) -> Self {
        Self {
            parallelism,
            kernel: Kernel::Auto,
            layout: Layout::Auto,
            tuning: AutoTuning::default(),
            macs_per_row,
            traced: false,
        }
    }

    /// The MAC kernel this request runs: the explicit request, else
    /// the tuning's kernel axis, through [`resolve`] (which folds in
    /// `MAN_KERNEL`).
    pub fn kernel(&self) -> KernelKind {
        resolve(match self.kernel {
            Kernel::Auto => self.tuning.kernel,
            explicit => explicit,
        })
    }

    /// Resolves a batch of `batch` rows with `streams` concurrent batch
    /// streams (≥ 1) competing for the same cores:
    ///
    /// * tracing, or an empty batch, runs sequential row-major;
    /// * `Sequential` stays sequential; `Threads(n)` row-shards over
    ///   `min(n, batch)` workers, or neuron-shards a lone row; `Auto`
    ///   consults [`man_par::plan_shards`];
    /// * the layout resolves through [`resolve_layout`] (explicit
    ///   request, else the tuning's axis, `MAN_LAYOUT` and
    ///   [`man_par::plan_layout`]; fewer than two rows run row-major);
    /// * under batch-major a `Neurons` plan becomes `Rows` over the
    ///   same budget, since lanes consume whole rows.
    pub fn resolve(&self, batch: usize, streams: usize) -> ExecPlan {
        let kernel = self.kernel();
        if self.traced || batch == 0 {
            return ExecPlan::sequential(kernel);
        }
        let slots = self.parallelism.workers();
        let mut shard = match self.parallelism {
            Parallelism::Sequential => ShardPlan::Sequential,
            Parallelism::Threads(_) if slots <= 1 => ShardPlan::Sequential,
            Parallelism::Threads(_) if batch == 1 => ShardPlan::Neurons { workers: slots },
            Parallelism::Threads(_) => ShardPlan::Rows {
                workers: slots.min(batch),
            },
            Parallelism::Auto => man_par::plan_shards(
                &AutoContext {
                    macs_per_row: self.macs_per_row,
                    batch,
                    streams,
                    cores: slots,
                },
                &self.tuning,
            ),
        };
        let request = match self.layout {
            Layout::Auto => self.tuning.layout,
            explicit => explicit,
        };
        let layout = resolve_layout(request, batch, self.macs_per_row, &self.tuning);
        if let (LayoutKind::BatchMajor, ShardPlan::Neurons { workers }) = (layout, shard) {
            shard = ShardPlan::Rows {
                workers: workers.min(batch),
            };
        }
        ExecPlan {
            shard,
            kernel,
            layout,
        }
    }
}

// ---------------------------------------------------------------------------
// Structure-of-arrays buffers
// ---------------------------------------------------------------------------

/// A layer's decoded select/shift plans, repacked for vector kernels:
/// one byte per (weight, quartet slot), plane-major.
///
/// Term byte layout: `(padded bank index) << 4 | total shift`, where
/// the padded index is `alphabet index + 1` (0 selects the arena row's
/// zero sentinel — a masked quartet) and the total shift folds the
/// quartet's bit offset into the control shift (`offset + shift ≤ 15`
/// for every supported word length, so it always fits the low nibble).
#[derive(Clone, Debug)]
pub(crate) struct MacSoa {
    /// Quartet slots per weight.
    q: usize,
    /// Weights in the layer.
    weights: usize,
    /// `q * weights` term bytes; slot `s` of weight `w` is at
    /// `s * weights + w`.
    terms: Vec<u8>,
    /// The narrowest arena row every term fits: the largest padded bank
    /// index plus one (never above the layer's row stride).
    min_stride: usize,
}

impl MacSoa {
    /// Repacks a layer's decoded plans. Pure metadata — the arena rows
    /// supply the actual bank values at run time.
    pub(crate) fn build(asm: &AsmMultiplier, plans: &[AsmPlan]) -> Self {
        let widths = asm.scheme().widths();
        let q = widths.len();
        let weights = plans.len();
        let mut terms = vec![0u8; q * weights];
        for (wi, plan) in plans.iter().enumerate() {
            let mut offset = 0u32;
            for (s, (control, &width)) in plan.controls.iter().zip(widths).enumerate() {
                if let Some((idx, shift)) = control {
                    let total = shift + offset;
                    debug_assert!(*idx < 15, "padded bank index must fit a nibble");
                    debug_assert!(total < 16, "total shift must fit a nibble");
                    terms[s * weights + wi] = (((idx + 1) as u8) << 4) | total as u8;
                }
                offset += width;
            }
        }
        let min_stride = terms
            .iter()
            .map(|&t| (t >> 4) as usize + 1)
            .max()
            .unwrap_or(1);
        Self {
            q,
            weights,
            terms,
            min_stride,
        }
    }

    /// Heap bytes of the repacked plan buffer.
    pub(crate) fn bytes(&self) -> usize {
        self.terms.len()
    }
}

/// The session cache's bank store: one contiguous *padded* row per
/// input magnitude, filled lazily.
///
/// Row layout: `[0, a₁·x, a₂·x, …]` — slot 0 is the zero sentinel
/// vector kernels select for masked quartets; slots `1..` are the
/// classic pre-computer bank. Rows live back-to-back in one `Vec<u64>`
/// and are addressed by row offset, so the vector kernels index one
/// flat slab instead of chasing per-magnitude heap boxes — and the
/// scalar path reads the unpadded tail of the same row, so both paths
/// share one store.
#[derive(Clone, Debug)]
pub(crate) struct BankArena {
    /// Padded row length: alphabet members + 1.
    stride: usize,
    /// Magnitude → row offset into `data`; [`BankArena::EMPTY`] marks a
    /// row not yet computed.
    index: Vec<u32>,
    /// The contiguous padded rows.
    data: Vec<u64>,
}

impl BankArena {
    const EMPTY: u32 = u32::MAX;

    /// An empty arena for magnitudes `0..slots` under an alphabet of
    /// `alphabet_len` members.
    pub(crate) fn new(slots: usize, alphabet_len: usize) -> Self {
        Self {
            stride: alphabet_len + 1,
            index: vec![Self::EMPTY; slots],
            data: Vec::new(),
        }
    }

    /// The row offset for `mag`, computing (and memoizing) the padded
    /// bank on first sight — the write phase.
    #[inline]
    pub(crate) fn row_or_fill(&mut self, asm: &AsmMultiplier, mag: u32) -> u32 {
        let cached = self.index[mag as usize];
        if cached != Self::EMPTY {
            return cached;
        }
        let off = self.data.len() as u32;
        self.data.push(0);
        self.data.extend(
            asm.alphabet()
                .members()
                .iter()
                .map(|&a| a as u64 * mag as u64),
        );
        self.index[mag as usize] = off;
        off
    }

    /// Fills rows for every magnitude in `mags` that is still missing,
    /// growing the slab by *exactly* the missing rows (a counting pass
    /// plus `reserve_exact`) — so batch prefills never introduce
    /// doubling slack, and peak bank memory tracks the rows actually
    /// held instead of the allocator's growth curve (no grow-then-trim
    /// reallocation churn as magnitudes trickle in across batches).
    pub(crate) fn prefill(&mut self, asm: &AsmMultiplier, mags: impl Iterator<Item = u32>) {
        let missing = mags
            .filter(|&m| self.index[m as usize] == Self::EMPTY)
            .collect::<std::collections::BTreeSet<u32>>();
        self.data.reserve_exact(missing.len() * self.stride);
        for mag in missing {
            self.row_or_fill(asm, mag);
        }
    }

    /// The row offset for an already-filled magnitude — the read-only
    /// twin of [`BankArena::row_or_fill`] the sharded loops use.
    #[inline]
    pub(crate) fn row(&self, mag: u32) -> Option<u32> {
        let off = self.index[mag as usize];
        (off != Self::EMPTY).then_some(off)
    }

    /// The classic (unpadded) pre-computer bank slice of a row — what
    /// the scalar `AsmPlan` walk consumes.
    #[inline]
    pub(crate) fn bank(&self, off: u32) -> &[u64] {
        &self.data[off as usize + 1..off as usize + self.stride]
    }

    /// The whole padded slab (vector kernels index it by row offset).
    #[inline]
    pub(crate) fn slab(&self) -> &[u64] {
        &self.data
    }

    /// Heap bytes currently held (rows plus the magnitude index).
    pub(crate) fn bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<u64>()
            + self.index.capacity() * std::mem::size_of::<u32>()
    }

    /// Releases the growth slack of the row slab. A no-op when capacity
    /// already equals length, so calling it after every prefill is
    /// cheap — it only pays (one realloc) when new magnitudes actually
    /// appeared.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
    }
}

// ---------------------------------------------------------------------------
// The kernels
// ---------------------------------------------------------------------------

/// One output neuron's fan-in run over the SoA buffers: weights
/// `w0..w0 + rows.len()` of the layer, against the activations whose
/// arena row offsets (and signs) are `rows` / `x_neg`, starting from
/// accumulator `acc` (the bias).
pub(crate) struct MacRun<'a> {
    /// The layer's repacked plans.
    pub soa: &'a MacSoa,
    /// The arena's padded row slab.
    pub slab: &'a [u64],
    /// The layer's weight signs (all weights, not just this run).
    pub w_neg: &'a [bool],
    /// First weight of the run.
    pub w0: usize,
    /// Arena row offset per fan-in position.
    pub rows: &'a [u32],
    /// Activation sign per fan-in position.
    pub x_neg: &'a [bool],
    /// Initial accumulator value.
    pub acc: i64,
}

/// A MAC kernel: evaluates one fan-in run, bit-identically to the
/// scalar reference (same per-weight terms, same [`apply_sign`], same
/// accumulation order).
///
/// [`apply_sign`]: man_fixed::bits::apply_sign
pub(crate) trait MacKernel: Sync {
    /// Runs one fan-in accumulation.
    fn accumulate(&self, run: MacRun<'_>) -> i64;
}

/// Static dispatch table: the kernel instance for a resolved kind.
/// [`detect`]/[`resolve`] never produce [`KernelKind::Avx2`] on a host
/// without the feature, but `KernelKind` is public — a caller *can*
/// force it into the safe engine entry points — so the AVX2 arm
/// re-checks [`avx2_available`] (a cached `cpuid` lookup) and falls
/// back to the bit-identical portable SWAR kernel rather than letting
/// a forced kind reach `target_feature` code the CPU lacks (which
/// would be undefined behavior). Non-x86-64 hosts always take the
/// SWAR fallback.
pub(crate) fn kernel_for(kind: KernelKind) -> &'static dyn MacKernel {
    match kind {
        KernelKind::Scalar => &ScalarKernel,
        KernelKind::Swar => &SwarKernel,
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => {
            if avx2_available() {
                &Avx2Kernel
            } else {
                &SwarKernel
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        KernelKind::Avx2 => &SwarKernel,
    }
}

/// The scalar reference over the SoA buffers: the same term walk as
/// `AsmMultiplier::apply`, one weight at a time.
struct ScalarKernel;

impl MacKernel for ScalarKernel {
    fn accumulate(&self, run: MacRun<'_>) -> i64 {
        let MacRun {
            soa,
            slab,
            w_neg,
            w0,
            rows,
            x_neg,
            mut acc,
        } = run;
        for (j, (&row, &xn)) in rows.iter().zip(x_neg).enumerate() {
            let mut p = 0u64;
            for s in 0..soa.q {
                let term = soa.terms[s * soa.weights + w0 + j] as usize;
                p += slab[row as usize + (term >> 4)] << (term & 15);
            }
            acc += man_fixed::bits::apply_sign(p, w_neg[w0 + j] ^ xn);
        }
        acc
    }
}

/// The portable vector kernel: branch-free, four weights per unrolled
/// step, monomorphized per quartet count. "SWAR" in spirit — the four
/// product lanes live in independent `u64`s the compiler can schedule
/// in parallel — with no `std::arch` anywhere.
struct SwarKernel;

impl MacKernel for SwarKernel {
    fn accumulate(&self, run: MacRun<'_>) -> i64 {
        match run.soa.q {
            1 => swar_q::<1>(run),
            2 => swar_q::<2>(run),
            3 => swar_q::<3>(run),
            4 => swar_q::<4>(run),
            q => unreachable!("{q} quartet slots; 3..=16-bit words have 1..=4"),
        }
    }
}

#[inline]
fn swar_q<const Q: usize>(run: MacRun<'_>) -> i64 {
    let MacRun {
        soa,
        slab,
        w_neg,
        w0,
        rows,
        x_neg,
        mut acc,
    } = run;
    debug_assert_eq!(soa.q, Q);
    let n = rows.len();
    let w = soa.weights;
    let t = &soa.terms;
    let mut j = 0;
    while j + 4 <= n {
        let mut p = [0u64; 4];
        for s in 0..Q {
            let base = s * w + w0 + j;
            for (l, lane) in p.iter_mut().enumerate() {
                let term = t[base + l] as usize;
                *lane += slab[rows[j + l] as usize + (term >> 4)] << (term & 15);
            }
        }
        // The accumulator chain stays strictly in fan-in order — only
        // the product computation above is packed.
        for (l, &lane) in p.iter().enumerate() {
            acc += man_fixed::bits::apply_sign(lane, w_neg[w0 + j + l] ^ x_neg[j + l]);
        }
        j += 4;
    }
    while j < n {
        let mut p = 0u64;
        for s in 0..Q {
            let term = t[s * w + w0 + j] as usize;
            p += slab[rows[j] as usize + (term >> 4)] << (term & 15);
        }
        acc += man_fixed::bits::apply_sign(p, w_neg[w0 + j] ^ x_neg[j]);
        j += 1;
    }
    acc
}

/// The AVX2 specialization: four weights per step with `vpgatherqq`
/// bank selects and `vpsllvq` per-lane shifts. Reachable only through
/// [`kernel_for`] after [`detect`]/[`resolve`] confirmed AVX2 (or a
/// test forced it on a detected host), so the `target_feature` contract
/// holds at every call site.
#[cfg(target_arch = "x86_64")]
struct Avx2Kernel;

#[cfg(target_arch = "x86_64")]
impl MacKernel for Avx2Kernel {
    fn accumulate(&self, run: MacRun<'_>) -> i64 {
        debug_assert!(avx2_available(), "AVX2 kernel dispatched without AVX2");
        // SAFETY: this kernel is only reachable through `kernel_for`,
        // whose AVX2 arm re-checks `avx2_available()` even for forced
        // kinds, so the `target_feature` contract holds; and the gather
        // indices are in bounds: every row offset addresses a full
        // padded row inside the slab and every term index is below the
        // row stride (both enforced by `BankArena`/`MacSoa`
        // construction).
        #[allow(unsafe_code)]
        unsafe {
            match run.soa.q {
                1 => avx2_q::<1>(run),
                2 => avx2_q::<2>(run),
                3 => avx2_q::<3>(run),
                4 => avx2_q::<4>(run),
                q => unreachable!("{q} quartet slots; 3..=16-bit words have 1..=4"),
            }
        }
    }
}

/// # Safety
///
/// Callers must ensure the host supports AVX2 and that `run`'s row
/// offsets and term indices address the slab in bounds (guaranteed by
/// [`BankArena`] / [`MacSoa`] construction).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn avx2_q<const Q: usize>(run: MacRun<'_>) -> i64 {
    use std::arch::x86_64::*;

    let MacRun {
        soa,
        slab,
        w_neg,
        w0,
        rows,
        x_neg,
        mut acc,
    } = run;
    debug_assert_eq!(soa.q, Q);
    let n = rows.len();
    let w = soa.weights;
    let t = &soa.terms;
    let base_ptr = slab.as_ptr() as *const i64;
    let mut j = 0;
    while j + 4 <= n {
        let rowv = _mm256_set_epi64x(
            rows[j + 3] as i64,
            rows[j + 2] as i64,
            rows[j + 1] as i64,
            rows[j] as i64,
        );
        let mut prod = _mm256_setzero_si256();
        for s in 0..Q {
            let base = s * w + w0 + j;
            let (t0, t1, t2, t3) = (
                t[base] as i64,
                t[base + 1] as i64,
                t[base + 2] as i64,
                t[base + 3] as i64,
            );
            let idx = _mm256_set_epi64x(t3 >> 4, t2 >> 4, t1 >> 4, t0 >> 4);
            let sh = _mm256_set_epi64x(t3 & 15, t2 & 15, t1 & 15, t0 & 15);
            let gathered = _mm256_i64gather_epi64::<8>(base_ptr, _mm256_add_epi64(rowv, idx));
            prod = _mm256_add_epi64(prod, _mm256_sllv_epi64(gathered, sh));
        }
        let mut p = [0u64; 4];
        _mm256_storeu_si256(p.as_mut_ptr() as *mut __m256i, prod);
        // Sign application and accumulation stay scalar, in fan-in
        // order — the order-sensitive chain is never vectorized.
        for (l, &lane) in p.iter().enumerate() {
            acc += man_fixed::bits::apply_sign(lane, w_neg[w0 + j + l] ^ x_neg[j + l]);
        }
        j += 4;
    }
    while j < n {
        let mut p = 0u64;
        for s in 0..Q {
            let term = t[s * w + w0 + j] as usize;
            p += slab[rows[j] as usize + (term >> 4)] << (term & 15);
        }
        acc += man_fixed::bits::apply_sign(p, w_neg[w0 + j] ^ x_neg[j]);
        j += 1;
    }
    acc
}

// ---------------------------------------------------------------------------
// The batch-major kernel family
// ---------------------------------------------------------------------------

/// Lanes per vector of the batch-major block: one 8 × `u32` AVX2
/// register. A transposed block is padded to a multiple of this many
/// lanes with zero banks and zero sign masks, so every lane group the
/// kernels walk is full and no width falls back to a per-lane tail.
const LANE_PAD: usize = 8;

/// Lanes one term decode covers: two [`LANE_PAD`] vectors, which is a
/// whole 16-row `LANE_BLOCK` of the engine.
const LANE_GROUP: usize = 2 * LANE_PAD;

/// The padded lane count of a block of `width` lanes — the lane stride
/// of the transposed bank and sign buffers.
fn padded_width(width: usize) -> usize {
    width.next_multiple_of(LANE_PAD)
}

/// Builds the batch-transposed bank block the [`MacBatchKernel`]s
/// consume — the pre-computer bank of every input of a lane block.
///
/// The term byte of a `(weight, quartet-slot)` pair is identical across
/// batch rows — only the bank *values* differ per lane. Laying the banks
/// out by lane therefore turns every hot-loop bank select into a
/// contiguous load: slot `k` of input `i` for lane `b` lands at
/// `bank_t[(i*stride + k)*pw + b]`, where `stride` is the alphabet size
/// plus one and `pw` the lane count padded to a multiple of 8, so one
/// term byte drives every lane of the block under one shared shift
/// count — no gathers, no per-lane term reload. Slot 0 is the zero
/// sentinel a masked quartet selects; slot `k ≥ 1` holds `a_k·x`, the
/// value a `BankArena` row holds. Activation signs transpose alongside
/// as `0`/`-1` masks (`sign_t[i*pw + b]`), the form the branch-free
/// sign fold consumes directly. Padding lanes hold zero banks and zero
/// masks, so they add nothing.
///
/// Both buffers hold 32-bit words: a bank entry `a·x` is at most
/// `15·(2^15 − 1) < 2^19`.
///
/// `acts` holds the block's input activations lane-transposed (input
/// `i` of lane `b` at `i*width + b`, `width` ≥ 1), and `act` reads one
/// as `(magnitude, negative)`. The block is written in address order,
/// so it needs no zero fill first. The output buffers are reused across
/// layers and blocks — the caller keeps them in its session cache
/// scratch.
pub(crate) fn transpose_bank_block<A>(
    members: &[u8],
    width: usize,
    acts: &[A],
    act: impl Fn(&A) -> (u32, bool),
    bank_t: &mut Vec<u32>,
    sign_t: &mut Vec<i32>,
) {
    let pad = padded_width(width) - width;
    let inputs = acts.len() / width;
    debug_assert_eq!(inputs * width, acts.len(), "every lane covers every input");
    bank_t.clear();
    bank_t.reserve(inputs * (members.len() + 1) * (width + pad));
    sign_t.clear();
    sign_t.reserve(inputs * (width + pad));
    for lanes in acts.chunks_exact(width) {
        sign_t.extend(lanes.iter().map(|x| -(act(x).1 as i32)));
        sign_t.extend(std::iter::repeat_n(0, pad));
        bank_t.extend(std::iter::repeat_n(0, width + pad));
        for &a in members {
            bank_t.extend(lanes.iter().map(|x| {
                debug_assert!(act(x).0 < 1 << 15, "activation magnitude exceeds 15 bits");
                u32::from(a) * act(x).0
            }));
            bank_t.extend(std::iter::repeat_n(0, pad));
        }
    }
}

/// One output neuron's fan-in run across a *block of batch rows*:
/// weights `w0..w0 + fan.len()` of the layer, against every lane of the
/// batch-transposed bank block at once, accumulating each lane's `i64`
/// chain strictly in fan-in order (lanes are independent batch rows, so
/// vectorizing *across* them never reorders any accumulator — the §8
/// argument holds per lane by construction).
///
/// The block is the one [`transpose_bank_block`] built for
/// `accs.len()` lanes: 32-bit banks and sign masks with the lane stride
/// padded to a multiple of 8.
pub(crate) struct MacBatchRun<'a> {
    /// The layer's repacked plans.
    pub soa: &'a MacSoa,
    /// The batch-transposed `u32` bank block.
    pub bank_t: &'a [u32],
    /// Padded row stride (alphabet members + 1), as in the arena.
    pub stride: usize,
    /// The layer's weight signs (all weights, not just this run).
    pub w_neg: &'a [bool],
    /// First weight of the run.
    pub w0: usize,
    /// Input index per fan-in position — the identity for dense layers,
    /// the position's gather slice for conv layers.
    pub fan: &'a [u32],
    /// Transposed `i32` activation sign masks (`0`/`-1`), lane `b` of
    /// input `i` at `i*pw + b`.
    pub sign_t: &'a [i32],
    /// Per-lane accumulators, bias-initialized; updated in place. Its
    /// length is the block's lane count.
    pub accs: &'a mut [i64],
}

/// A batch-major MAC kernel: evaluates one fan-in run over every lane
/// of a block, bit-identically per lane to the row-major scalar
/// reference (same terms, same sign application, same per-lane
/// accumulation order).
pub(crate) trait MacBatchKernel: Sync {
    /// Runs one fan-in accumulation across the block.
    fn accumulate(&self, run: MacBatchRun<'_>);
}

/// Static dispatch table for the batch-major family — the same
/// forced-kind guard as [`kernel_for`]: the AVX2 arm re-checks
/// [`avx2_available`] and falls back to the bit-identical portable SWAR
/// variant, and non-x86-64 hosts always take that fallback.
pub(crate) fn batch_kernel_for(kind: KernelKind) -> &'static dyn MacBatchKernel {
    match kind {
        KernelKind::Scalar => &ScalarBatchKernel,
        KernelKind::Swar => &SwarBatchKernel,
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => {
            if avx2_available() {
                &Avx2BatchKernel
            } else {
                &SwarBatchKernel
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        KernelKind::Avx2 => &SwarBatchKernel,
    }
}

/// The scalar batch-major reference: every lane through the per-term
/// walk, one lane at a time, widening each 32-bit bank entry to the
/// `u64` the row-major scalar kernel sums.
struct ScalarBatchKernel;

impl MacBatchKernel for ScalarBatchKernel {
    fn accumulate(&self, run: MacBatchRun<'_>) {
        let soa = run.soa;
        let pw = padded_width(run.accs.len());
        for (b, acc) in run.accs.iter_mut().enumerate() {
            for (j, &gi) in run.fan.iter().enumerate() {
                let gi = gi as usize;
                let mut p = 0u64;
                for s in 0..soa.q {
                    let term = soa.terms[s * soa.weights + run.w0 + j] as usize;
                    p += (run.bank_t[(gi * run.stride + (term >> 4)) * pw + b] as u64)
                        << (term & 15);
                }
                let neg = run.w_neg[run.w0 + j] ^ (run.sign_t[gi * pw + b] != 0);
                *acc += man_fixed::bits::apply_sign(p, neg);
            }
        }
    }
}

/// Walks a block's padded lanes in groups: `LANE_GROUP` lanes while that
/// many remain, then one `LANE_PAD` group. `group(b0, wide)` runs the
/// lanes from `b0`, sixteen of them when `wide`, else eight.
#[inline]
fn for_each_lane_group(lanes: usize, mut group: impl FnMut(usize, bool)) {
    let pw = padded_width(lanes);
    let mut b0 = 0;
    while b0 < pw {
        let wide = pw - b0 >= LANE_GROUP;
        group(b0, wide);
        b0 += if wide { LANE_GROUP } else { LANE_PAD };
    }
}

/// The portable batch-major vector kernel: per fan-in position, one
/// term decode drives a whole 16- (or 8-) lane group of contiguous
/// 32-bit bank loads under one shared shift — no `std::arch` anywhere.
struct SwarBatchKernel;

impl MacBatchKernel for SwarBatchKernel {
    fn accumulate(&self, mut run: MacBatchRun<'_>) {
        fn q<const Q: usize>(run: &mut MacBatchRun<'_>) {
            for_each_lane_group(run.accs.len(), |b0, wide| {
                if wide {
                    swar_batch_group::<Q, LANE_GROUP>(run, b0)
                } else {
                    swar_batch_group::<Q, LANE_PAD>(run, b0)
                }
            });
        }
        match run.soa.q {
            1 => q::<1>(&mut run),
            2 => q::<2>(&mut run),
            3 => q::<3>(&mut run),
            4 => q::<4>(&mut run),
            q => unreachable!("{q} quartet slots; 3..=16-bit words have 1..=4"),
        }
    }
}

/// Lanes `b0..b0 + N` of a SWAR batch-major run.
#[inline]
fn swar_batch_group<const Q: usize, const N: usize>(run: &mut MacBatchRun<'_>, b0: usize) {
    debug_assert_eq!(run.soa.q, Q);
    let live = N.min(run.accs.len() - b0);
    let pw = padded_width(run.accs.len());
    let block = run.stride * pw;
    let w = run.soa.weights;
    let t = &run.soa.terms;
    let mut acc = [0i64; N];
    acc[..live].copy_from_slice(&run.accs[b0..b0 + live]);
    for (j, &gi) in run.fan.iter().enumerate() {
        let gi = gi as usize;
        let banks = &run.bank_t[gi * block..(gi + 1) * block];
        // Products stay exact in 32 bits: each is at most
        // (2^(bits−1) − 1)² < 2^30 for bits ≤ 16.
        let mut p = [0u32; N];
        for s in 0..Q {
            let term = t[s * w + run.w0 + j] as usize;
            let sh = term & 15;
            let src = &banks[(term >> 4) * pw + b0..][..N];
            for (lane, &v) in p.iter_mut().zip(src) {
                *lane += v << sh;
            }
        }
        // Sign application via the two's-complement identity
        // `(p ^ m) - m` (`m` = 0 keeps `p`, `m` = -1 negates) —
        // exactly `apply_sign`, lane-independent and branch-free. Each
        // lane's accumulator still advances one MAC at a time in
        // fan-in order.
        let wm = -(run.w_neg[run.w0 + j] as i32);
        let signs = &run.sign_t[gi * pw + b0..][..N];
        for ((a, &lane), &sm) in acc.iter_mut().zip(&p).zip(signs) {
            let m = sm ^ wm;
            *a += ((lane as i32 ^ m) - m) as i64;
        }
    }
    run.accs[b0..b0 + live].copy_from_slice(&acc[..live]);
}

/// The AVX2 batch-major specialization. Per fan-in position it loads
/// each term byte, shift count and weight-sign mask once and applies
/// them to two 8 × `i32` vectors — all sixteen lanes of a block: one
/// contiguous `vmovdqu` bank load per vector (no gathers), one shared
/// `vpslld` shift, and the sign fold as a `vpxor`/`vpsubd` pair against
/// the transposed masks. The exact 32-bit products are sign-extended
/// (`vpmovsxdq`) into four 4 × `i64` accumulators. Reachable only
/// through [`batch_kernel_for`] after the availability re-check, so the
/// `target_feature` contract holds at every call site.
#[cfg(target_arch = "x86_64")]
struct Avx2BatchKernel;

#[cfg(target_arch = "x86_64")]
impl MacBatchKernel for Avx2BatchKernel {
    fn accumulate(&self, mut run: MacBatchRun<'_>) {
        debug_assert!(avx2_available(), "AVX2 kernel dispatched without AVX2");
        let lanes = run.accs.len();
        if lanes == 0 {
            return;
        }
        // The bounds `avx2_batch_group` relies on, checked once per run
        // instead of once per load: every padded bank index lies below
        // the row stride, the transposed block covers every fan-in
        // input at the padded width, and the run's weights exist.
        let pw = padded_width(lanes);
        let inputs = run.sign_t.len() / pw;
        let end = run.w0 + run.fan.len();
        assert!(
            run.soa.min_stride <= run.stride,
            "term plan indexes past the bank row"
        );
        assert!(
            run.bank_t.len() >= inputs * run.stride * pw,
            "bank block too short"
        );
        assert!(
            run.fan.iter().fold(0, |m, &g| m.max(g as usize + 1)) <= inputs,
            "fan-in input outside the block"
        );
        assert!(
            end <= run.soa.weights && end <= run.w_neg.len(),
            "run past the layer's weights"
        );
        fn q<const Q: usize>(run: &mut MacBatchRun<'_>) {
            for_each_lane_group(run.accs.len(), |b0, wide| {
                // SAFETY: reachable only via `batch_kernel_for`, whose
                // AVX2 arm re-checks `avx2_available()` even for forced
                // kinds. `accumulate` asserted the index, block and
                // weight bounds above, and `for_each_lane_group` hands
                // out `b0` with `b0 + 8·V <= pw` (the padded width) for
                // the `V` each arm passes — together the safety contract
                // of `avx2_batch_group`.
                #[allow(unsafe_code)]
                unsafe {
                    if wide {
                        avx2_batch_group::<Q, 2>(run, b0)
                    } else {
                        avx2_batch_group::<Q, 1>(run, b0)
                    }
                }
            });
        }
        match run.soa.q {
            1 => q::<1>(&mut run),
            2 => q::<2>(&mut run),
            3 => q::<3>(&mut run),
            4 => q::<4>(&mut run),
            q => unreachable!("{q} quartet slots; 3..=16-bit words have 1..=4"),
        }
    }
}

/// Lanes `b0..b0 + 8·V` of an AVX2 batch-major run (`V` ∈ {1, 2}).
///
/// # Safety
///
/// With `pw = padded_width(run.accs.len())`, callers must ensure that
/// the host supports AVX2, that `b0 + 8·V <= pw`, and that
/// - every padded bank index of `run.soa` is below `run.stride`
///   (`soa.min_stride <= stride`);
/// - every `fan` entry is below `inputs = sign_t.len() / pw`, and
///   `bank_t` holds at least `inputs · stride · pw` entries;
/// - `w0 + fan.len()` is at most `soa.weights` and `w_neg.len()`.
///
/// Then input `gi`'s bank rows span `bank_t[gi·stride·pw..][..stride·pw]`
/// and its sign row `sign_t[gi·pw..][..pw]`, and every load below reads
/// `8·V <= pw − b0` lanes from `b0` of one of those rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn avx2_batch_group<const Q: usize, const V: usize>(run: &mut MacBatchRun<'_>, b0: usize) {
    use std::arch::x86_64::*;

    debug_assert_eq!(run.soa.q, Q);
    let lanes = run.accs.len();
    let pw = padded_width(lanes);
    debug_assert!(b0 + LANE_PAD * V <= pw);
    let live = (LANE_PAD * V).min(lanes - b0);
    let block = run.stride * pw;
    let w = run.soa.weights;
    let terms = run.soa.terms.as_ptr().add(run.w0);
    let w_neg = run.w_neg.as_ptr().add(run.w0);
    let bank_ptr = run.bank_t.as_ptr().add(b0);
    let sign_ptr = run.sign_t.as_ptr().add(b0);
    let mut lane_accs = [0i64; LANE_GROUP];
    lane_accs[..live].copy_from_slice(&run.accs[b0..b0 + live]);
    let mut acc = [_mm256_setzero_si256(); 4];
    for (a, chunk) in acc.iter_mut().zip(lane_accs.chunks_exact(4)).take(2 * V) {
        *a = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
    }
    for (j, &gi) in run.fan.iter().enumerate() {
        let gi = gi as usize;
        let banks = bank_ptr.add(gi * block);
        let signs = sign_ptr.add(gi * pw);
        // Exact 32-bit products: each is at most (2^(bits−1) − 1)² <
        // 2^30 for bits ≤ 16, so the adds never wrap. One term decode
        // drives all `8·V` lanes.
        let mut p = [_mm256_setzero_si256(); V];
        for s in 0..Q {
            let term = *terms.add(s * w + j) as usize;
            let cnt = _mm_cvtsi32_si128((term & 15) as i32);
            let src = banks.add((term >> 4) * pw);
            for (v, pv) in p.iter_mut().enumerate() {
                let x = _mm256_loadu_si256(src.add(LANE_PAD * v) as *const __m256i);
                *pv = _mm256_add_epi32(*pv, _mm256_sll_epi32(x, cnt));
            }
        }
        // `(p ^ m) - m` against the transposed masks and the broadcast
        // weight sign — the SWAR kernel's fold — then each lane's
        // product is sign-extended and added to its i64 accumulator:
        // one MAC per lane, in fan-in order.
        let wm = _mm256_set1_epi32(-(*w_neg.add(j) as i32));
        for (v, &pv) in p.iter().enumerate() {
            let m = _mm256_xor_si256(
                _mm256_loadu_si256(signs.add(LANE_PAD * v) as *const __m256i),
                wm,
            );
            let signed = _mm256_sub_epi32(_mm256_xor_si256(pv, m), m);
            acc[2 * v] = _mm256_add_epi64(
                acc[2 * v],
                _mm256_cvtepi32_epi64(_mm256_castsi256_si128(signed)),
            );
            acc[2 * v + 1] = _mm256_add_epi64(
                acc[2 * v + 1],
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(signed)),
            );
        }
    }
    for (a, chunk) in acc.iter().zip(lane_accs.chunks_exact_mut(4)).take(2 * V) {
        _mm256_storeu_si256(chunk.as_mut_ptr() as *mut __m256i, *a);
    }
    run.accs[b0..b0 + live].copy_from_slice(&lane_accs[..live]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::AlphabetSet;

    fn supported_mags(asm: &AsmMultiplier) -> Vec<u32> {
        (0..=asm.scheme().max_magnitude())
            .filter(|&m| asm.decode(m).is_ok())
            .collect()
    }

    /// Every kernel × every supported weight × a spread of inputs ×
    /// every paper alphabet × several word lengths: the kernels must
    /// reproduce exact multiplication (the ASM's defining property)
    /// bit for bit, including the sign lane and the fan-in
    /// accumulation.
    #[test]
    fn kernels_match_scalar_reference_exhaustively() {
        let mut kinds = vec![KernelKind::Scalar, KernelKind::Swar];
        if avx2_available() {
            kinds.push(KernelKind::Avx2);
        }
        for bits in [3u32, 6, 8, 12, 16] {
            for set in [
                AlphabetSet::a1(),
                AlphabetSet::a2(),
                AlphabetSet::a4(),
                AlphabetSet::a8(),
            ] {
                let asm = AsmMultiplier::new(bits, set);
                let mags = supported_mags(&asm);
                let plans: Vec<AsmPlan> = mags
                    .iter()
                    .map(|&m| asm.decode(m).expect("supported"))
                    .collect();
                let soa = MacSoa::build(&asm, &plans);
                let w_neg: Vec<bool> = (0..mags.len()).map(|i| i % 3 == 1).collect();

                // A fan-in over every supported weight against a
                // rotating set of input magnitudes and signs.
                let max_x = (1u32 << (bits - 1)) - 1;
                let xs: Vec<(u32, bool)> = (0..mags.len())
                    .map(|i| {
                        let mag = [0, 1, max_x / 3 + 1, max_x][i % 4].min(max_x);
                        (mag, i % 5 == 2)
                    })
                    .collect();
                let mut arena = BankArena::new(1usize << (bits - 1), asm.alphabet().len());
                let rows: Vec<u32> = xs
                    .iter()
                    .map(|&(mag, _)| arena.row_or_fill(&asm, mag))
                    .collect();
                let x_neg: Vec<bool> = xs.iter().map(|&(_, neg)| neg).collect();

                // The ground truth: exact multiplication accumulated in
                // fan-in order, exactly as the engine's scalar loop does.
                let mut want = 7i64;
                for (i, (&(x_mag, xn), &m)) in xs.iter().zip(&mags).enumerate() {
                    want += man_fixed::bits::apply_sign(m as u64 * x_mag as u64, w_neg[i] ^ xn);
                }

                for &kind in &kinds {
                    let got = kernel_for(kind).accumulate(MacRun {
                        soa: &soa,
                        slab: arena.slab(),
                        w_neg: &w_neg,
                        w0: 0,
                        rows: &rows,
                        x_neg: &x_neg,
                        acc: 7,
                    });
                    assert_eq!(
                        got,
                        want,
                        "bits={bits} alphabet={} kernel={}",
                        asm.alphabet(),
                        kind.label()
                    );
                }
            }
        }
    }

    /// Partial runs (`w0 > 0`, short tails) hit the same bits — the
    /// shape the dense per-output loop actually uses.
    #[test]
    fn kernels_agree_on_offset_runs_and_tails() {
        let asm = AsmMultiplier::new(8, AlphabetSet::a2());
        let mags = supported_mags(&asm);
        let plans: Vec<AsmPlan> = mags
            .iter()
            .map(|&m| asm.decode(m).expect("supported"))
            .collect();
        let soa = MacSoa::build(&asm, &plans);
        let w_neg: Vec<bool> = (0..mags.len()).map(|i| i % 2 == 0).collect();
        let mut arena = BankArena::new(128, asm.alphabet().len());
        let all_rows: Vec<u32> = (0..mags.len())
            .map(|i| arena.row_or_fill(&asm, (i as u32 * 13) % 128))
            .collect();
        let x_neg: Vec<bool> = (0..mags.len()).map(|i| i % 7 == 3).collect();
        let mut kinds = vec![KernelKind::Swar];
        if avx2_available() {
            kinds.push(KernelKind::Avx2);
        }
        for w0 in [0usize, 1, 5] {
            for len in [0usize, 1, 3, 4, 7, 11] {
                if w0 + len > mags.len() {
                    continue;
                }
                let run = |kind| {
                    kernel_for(kind).accumulate(MacRun {
                        soa: &soa,
                        slab: arena.slab(),
                        w_neg: &w_neg,
                        w0,
                        rows: &all_rows[w0..w0 + len],
                        x_neg: &x_neg[w0..w0 + len],
                        acc: -3,
                    })
                };
                let want = run(KernelKind::Scalar);
                for &kind in &kinds {
                    assert_eq!(run(kind), want, "w0={w0} len={len} {}", kind.label());
                }
            }
        }
    }

    #[test]
    fn resolution_table_holds() {
        assert_eq!(resolve(Kernel::Scalar), KernelKind::Scalar);
        assert_eq!(resolve(Kernel::Swar), KernelKind::Swar);
        let vector = resolve(Kernel::Vector);
        assert!(vector.is_vectorized());
        assert_eq!(vector, detect());
        // Auto is env-dependent but always one of the three.
        let auto = resolve(Kernel::Auto);
        assert!(matches!(
            auto,
            KernelKind::Scalar | KernelKind::Swar | KernelKind::Avx2
        ));
        assert!(!KernelKind::Scalar.is_vectorized());
        assert_eq!(KernelKind::Swar.label(), "swar");
        assert!(!cpu_features().is_empty());
    }

    /// Every batch-major kernel × every paper alphabet × several word
    /// lengths × lane widths below, at and past a full 16-lane group,
    /// padded and unpadded: each lane must reproduce the row-major
    /// scalar reference bit for bit (the layouts share terms, signs and
    /// per-lane accumulation order by construction; this pins the
    /// transpose, the padding and the lane indexing).
    #[test]
    fn batch_kernels_match_row_major_scalar_per_lane() {
        let mut kinds = vec![KernelKind::Scalar, KernelKind::Swar];
        if avx2_available() {
            kinds.push(KernelKind::Avx2);
        }
        for bits in [3u32, 6, 8, 12, 16] {
            for set in [AlphabetSet::a1(), AlphabetSet::a4(), AlphabetSet::a8()] {
                let asm = AsmMultiplier::new(bits, set);
                let mags = supported_mags(&asm);
                let plans: Vec<AsmPlan> = mags
                    .iter()
                    .map(|&m| asm.decode(m).expect("supported"))
                    .collect();
                let soa = MacSoa::build(&asm, &plans);
                let w_neg: Vec<bool> = (0..mags.len()).map(|i| i % 3 == 1).collect();
                let max_x = (1u32 << (bits - 1)) - 1;
                let fan: Vec<u32> = (0..mags.len() as u32).collect();

                for width in [1usize, 2, 4, 5, 8, 11, 16, 17, 24, 31, 32] {
                    // Per-lane activations: distinct magnitude/sign
                    // patterns so a lane swap or off-by-one in the
                    // transpose cannot cancel out.
                    let lanes: Vec<(Vec<u32>, Vec<bool>)> = (0..width)
                        .map(|b| {
                            let xs: Vec<u32> = (0..mags.len())
                                .map(|i| {
                                    [0, 1, max_x / 3 + 1, max_x, max_x / 2][(i + b) % 5].min(max_x)
                                })
                                .collect();
                            let negs: Vec<bool> =
                                (0..mags.len()).map(|i| (i + 2 * b) % 4 == 1).collect();
                            (xs, negs)
                        })
                        .collect();
                    let (bank_t, sign_t) = transposed(&asm, &lanes);

                    // Row-major scalar reference, lane by lane.
                    let mut arena = BankArena::new(1usize << (bits - 1), asm.alphabet().len());
                    let want: Vec<i64> = (0..width)
                        .map(|b| {
                            let (xs, negs) = &lanes[b];
                            let rows: Vec<u32> =
                                xs.iter().map(|&x| arena.row_or_fill(&asm, x)).collect();
                            kernel_for(KernelKind::Scalar).accumulate(MacRun {
                                soa: &soa,
                                slab: arena.slab(),
                                w_neg: &w_neg,
                                w0: 0,
                                rows: &rows,
                                x_neg: negs,
                                acc: 7 + b as i64,
                            })
                        })
                        .collect();

                    for &kind in &kinds {
                        let mut accs: Vec<i64> = (0..width).map(|b| 7 + b as i64).collect();
                        batch_kernel_for(kind).accumulate(MacBatchRun {
                            soa: &soa,
                            bank_t: &bank_t,
                            stride: asm.alphabet().len() + 1,
                            w_neg: &w_neg,
                            w0: 0,
                            fan: &fan,
                            sign_t: &sign_t,
                            accs: &mut accs,
                        });
                        assert_eq!(
                            accs,
                            want,
                            "bits={bits} alphabet={} width={width} kernel={}",
                            asm.alphabet(),
                            kind.label()
                        );
                    }
                }
            }
        }
    }

    /// Offset runs (`w0 > 0`) with a gather-style (non-identity,
    /// repeating) fan — the shape the conv per-position loop uses — hit
    /// the same bits across batch kernels.
    #[test]
    fn batch_kernels_agree_on_offset_runs_and_gathered_fans() {
        let asm = AsmMultiplier::new(8, AlphabetSet::a2());
        let mags = supported_mags(&asm);
        let plans: Vec<AsmPlan> = mags
            .iter()
            .map(|&m| asm.decode(m).expect("supported"))
            .collect();
        let soa = MacSoa::build(&asm, &plans);
        let w_neg: Vec<bool> = (0..mags.len()).map(|i| i % 2 == 0).collect();
        let inputs = 9usize;
        let width = 6usize;
        let lanes: Vec<(Vec<u32>, Vec<bool>)> = (0..width)
            .map(|b| {
                let xs: Vec<u32> = (0..inputs)
                    .map(|i| ((i + 3 * b) as u32 * 13) % 128)
                    .collect();
                let negs: Vec<bool> = (0..inputs).map(|i| (i * (b + 1)) % 3 == 1).collect();
                (xs, negs)
            })
            .collect();
        let (bank_t, sign_t) = transposed(&asm, &lanes);
        // A conv-style fan: repeats and skips over the raw inputs.
        let fan: Vec<u32> = vec![0, 4, 4, 7, 2, 8, 1, 1];
        for w0 in [0usize, 1, 5] {
            let len = fan.len().min(mags.len() - w0);
            let mut arena = BankArena::new(128, asm.alphabet().len());
            let want: Vec<i64> = (0..width)
                .map(|b| {
                    let rows: Vec<u32> = fan[..len]
                        .iter()
                        .map(|&g| arena.row_or_fill(&asm, lanes[b].0[g as usize]))
                        .collect();
                    let x_neg: Vec<bool> =
                        fan[..len].iter().map(|&g| lanes[b].1[g as usize]).collect();
                    kernel_for(KernelKind::Scalar).accumulate(MacRun {
                        soa: &soa,
                        slab: arena.slab(),
                        w_neg: &w_neg,
                        w0,
                        rows: &rows,
                        x_neg: &x_neg,
                        acc: -3,
                    })
                })
                .collect();
            let mut kinds = vec![KernelKind::Scalar, KernelKind::Swar];
            if avx2_available() {
                kinds.push(KernelKind::Avx2);
            }
            for &kind in &kinds {
                let mut accs = vec![-3i64; width];
                batch_kernel_for(kind).accumulate(MacBatchRun {
                    soa: &soa,
                    bank_t: &bank_t,
                    stride: asm.alphabet().len() + 1,
                    w_neg: &w_neg,
                    w0,
                    fan: &fan[..len],
                    sign_t: &sign_t,
                    accs: &mut accs,
                });
                assert_eq!(accs, want, "w0={w0} kernel={}", kind.label());
            }
        }
    }

    /// The batch-transposed block of per-lane `(magnitudes, signs)`
    /// columns, built the way the engine builds it.
    fn transposed(asm: &AsmMultiplier, lanes: &[(Vec<u32>, Vec<bool>)]) -> (Vec<u32>, Vec<i32>) {
        let inputs = lanes[0].0.len();
        let acts: Vec<(u32, bool)> = (0..inputs)
            .flat_map(|i| lanes.iter().map(move |(xs, negs)| (xs[i], negs[i])))
            .collect();
        let (mut bank_t, mut sign_t) = (Vec::new(), Vec::new());
        transpose_bank_block(
            asm.alphabet().members(),
            lanes.len(),
            &acts,
            |&x| x,
            &mut bank_t,
            &mut sign_t,
        );
        (bank_t, sign_t)
    }

    /// The 32-bit product bound at its edge: 16-bit words, every weight
    /// and every activation at the maximum magnitude `2^15 − 1`, every
    /// product negative. Each product `(2^15 − 1)^2` is just below
    /// `2^30`; their sum leaves 32 bits after a few MACs, so a kernel
    /// that summed products in `i32` before widening would fail here.
    #[test]
    fn batch_kernels_hold_the_16_bit_product_bound() {
        let asm = AsmMultiplier::new(16, AlphabetSet::a8());
        let max = (1u32 << 15) - 1;
        let fan_in = 64usize;
        let plans = vec![asm.decode(max).expect("every magnitude is supported"); fan_in];
        let soa = MacSoa::build(&asm, &plans);
        let w_neg = vec![false; fan_in];
        let fan: Vec<u32> = (0..fan_in as u32).collect();
        let stride = asm.alphabet().len() + 1;
        let product = i64::from(max) * i64::from(max);
        assert!(product < 1 << 30);
        let mut kinds = vec![KernelKind::Scalar, KernelKind::Swar];
        if avx2_available() {
            kinds.push(KernelKind::Avx2);
        }
        for width in [1usize, 8, 16, 17, 32] {
            let lanes = vec![(vec![max; fan_in], vec![true; fan_in]); width];
            let (bank_t, sign_t) = transposed(&asm, &lanes);
            let want = vec![-5 - fan_in as i64 * product; width];
            for &kind in &kinds {
                let mut accs = vec![-5i64; width];
                batch_kernel_for(kind).accumulate(MacBatchRun {
                    soa: &soa,
                    bank_t: &bank_t,
                    stride,
                    w_neg: &w_neg,
                    w0: 0,
                    fan: &fan,
                    sign_t: &sign_t,
                    accs: &mut accs,
                });
                assert_eq!(accs, want, "width={width} kernel={}", kind.label());
            }
        }
    }

    #[test]
    fn layout_resolution_table_holds() {
        let t = AutoTuning::default();
        // Explicit requests are literal (modulo the batch<2 degrade).
        assert_eq!(
            resolve_layout(Layout::RowMajor, 64, 1_000_000, &t),
            LayoutKind::RowMajor
        );
        assert_eq!(
            resolve_layout(Layout::BatchMajor, 64, 0, &t),
            LayoutKind::BatchMajor
        );
        // A lone row (or an empty batch) has no batch axis: always
        // row-major, even under a forced BatchMajor request.
        assert_eq!(
            resolve_layout(Layout::BatchMajor, 1, u64::MAX, &t),
            LayoutKind::RowMajor
        );
        assert_eq!(
            resolve_layout(Layout::BatchMajor, 0, u64::MAX, &t),
            LayoutKind::RowMajor
        );
        // Auto defers to the tuner heuristic (or MAN_LAYOUT; under the
        // CI env matrix the explicit expectations above still hold, and
        // here we only pin that Auto resolves to *a* concrete layout).
        let auto = resolve_layout(Layout::Auto, 64, 1_000_000, &t);
        assert!(matches!(
            auto,
            LayoutKind::RowMajor | LayoutKind::BatchMajor
        ));
        assert_eq!(
            resolve_layout(Layout::Auto, 1, u64::MAX, &t),
            LayoutKind::RowMajor
        );
        assert_eq!(LayoutKind::RowMajor.label(), "row");
        assert_eq!(LayoutKind::BatchMajor.label(), "batch");
        assert!(LayoutKind::BatchMajor.is_batch_major());
        assert!(!LayoutKind::RowMajor.is_batch_major());
    }

    #[test]
    fn exec_request_resolution_rules_hold() {
        let rows = |workers| ShardPlan::Rows { workers };
        let request = |parallelism, layout| ExecRequest {
            kernel: Kernel::Swar,
            layout,
            ..ExecRequest::new(parallelism, 1_000_000)
        };
        let threads = request(Parallelism::Threads(4), Layout::RowMajor);
        // The static Threads(n) plan: rows when the batch has them,
        // neurons for a lone row, nothing to do for an empty batch.
        assert_eq!(threads.resolve(64, 1).shard, rows(4));
        assert_eq!(threads.resolve(3, 1).shard, rows(3));
        assert_eq!(
            threads.resolve(1, 1).shard,
            ShardPlan::Neurons { workers: 4 }
        );
        assert_eq!(
            threads.resolve(0, 1),
            ExecPlan::sequential(KernelKind::Swar)
        );
        assert_eq!(
            request(Parallelism::Threads(1), Layout::RowMajor)
                .resolve(64, 1)
                .shard,
            ShardPlan::Sequential
        );
        // Batch-major turns a Neurons plan into Rows over the same
        // budget, and a lone row always runs row-major.
        let batch_major = request(Parallelism::Auto, Layout::BatchMajor);
        let lone = batch_major.resolve(1, 1);
        assert_eq!(lone.layout, LayoutKind::RowMajor);
        let pair = ExecRequest {
            parallelism: Parallelism::Threads(4),
            ..batch_major.clone()
        }
        .resolve(2, 1);
        assert_eq!((pair.shard, pair.layout), (rows(2), LayoutKind::BatchMajor));
        // Auto consults the decision table with the session's budget.
        let auto = request(Parallelism::Auto, Layout::RowMajor);
        let budget = Parallelism::Auto.workers();
        let want = man_par::plan_shards(
            &AutoContext {
                macs_per_row: 1_000_000,
                batch: 64,
                streams: 2,
                cores: budget,
            },
            &AutoTuning::default(),
        );
        assert_eq!(auto.resolve(64, 2).shard, want);
        // Tracing runs sequential row-major whatever was asked.
        let traced = ExecRequest {
            traced: true,
            ..batch_major
        };
        assert_eq!(
            traced.resolve(64, 1),
            ExecPlan::sequential(KernelKind::Swar)
        );
        // The kernel axis: explicit requests win, Auto defers to the
        // tuning's axis.
        let scalar_tuned = ExecRequest {
            kernel: Kernel::Auto,
            tuning: AutoTuning {
                kernel: Kernel::Scalar,
                ..AutoTuning::default()
            },
            ..threads
        };
        assert_eq!(scalar_tuned.kernel(), KernelKind::Scalar);
        assert_eq!(scalar_tuned.resolve(64, 1).label(), "rows(4)+scalar+row");
        assert_eq!(ExecPlan::sequential(KernelKind::Swar).cache_slots(), 1);
        assert_eq!(threads.resolve(64, 1).cache_slots(), 4);
    }

    #[test]
    fn arena_rows_are_padded_and_stable() {
        let asm = AsmMultiplier::new(8, AlphabetSet::a4());
        let mut arena = BankArena::new(128, 4);
        let off = arena.row_or_fill(&asm, 77);
        assert_eq!(arena.row_or_fill(&asm, 77), off, "memoized");
        assert_eq!(arena.row(77), Some(off));
        assert_eq!(arena.row(78), None);
        assert_eq!(arena.slab()[off as usize], 0, "zero sentinel");
        assert_eq!(arena.bank(off), &[77, 3 * 77, 5 * 77, 7 * 77]);
        let before = arena.bytes();
        arena.shrink_to_fit();
        assert!(arena.bytes() <= before);
        // The classic bank equals `precompute` exactly.
        assert_eq!(arena.bank(off), asm.precompute(77).as_slice());
    }
}
