//! The fixed-point inference engine: a bit-accurate software model of the
//! paper's processing engine.
//!
//! A trained float [`Network`] is *compiled* into a [`FixedNet`]: weights
//! quantized into per-layer `QFormat`s (sign-magnitude), biases widened to
//! the accumulator fraction, every multiply decoded into an ASM
//! select/shift plan, and every activation replaced by the PLAN sigmoid
//! unit (the same bit-exact reference the gate-level model uses).
//!
//! Activations and input pixels travel as unsigned `Q0.(bits-1)` words —
//! sigmoid outputs live in `[0, 1)`, so the sign lane of the datapath is
//! only exercised by weights.

use man_fixed::{quantize::fit_format, QFormat};
use man_hw::components::activation::{activation_unit_fixed, PlanParams};
use man_nn::layers::Layer;
use man_nn::network::Network;
use man_par::{default_chunk_size, run_chunked, Parallelism, ShardPlan};
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::alphabet::AlphabetSet;
use crate::asm::AsmMultiplier;
use crate::kernel::{
    self, BankArena, ExecPlan, ExecRequest, KernelKind, LayoutKind, MacRun, MacSoa,
};

/// Per-layer alphabet assignment (uniform or mixed, as in the paper's
/// Section VI-E where early layers use `{1}` and late layers `{1,3}` /
/// `{1,3,5,7}`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerAlphabets {
    sets: Vec<AlphabetSet>,
}

impl LayerAlphabets {
    /// The same alphabet set for every parameterized layer.
    pub fn uniform(set: AlphabetSet, layers: usize) -> Self {
        Self {
            sets: vec![set; layers],
        }
    }

    /// An explicit per-layer assignment.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is empty.
    pub fn mixed(sets: Vec<AlphabetSet>) -> Self {
        assert!(!sets.is_empty(), "need at least one layer");
        Self { sets }
    }

    /// The set for parameterized layer `i`, or `None` past the last
    /// configured layer.
    pub fn get(&self, i: usize) -> Option<&AlphabetSet> {
        self.sets.get(i)
    }

    /// Number of layers configured.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` when no layer is configured. The constructors reject an
    /// empty assignment, but a value deserialized from an artifact can
    /// still be empty — callers validating untrusted input should check.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The per-layer sets.
    pub fn sets(&self) -> &[AlphabetSet] {
        &self.sets
    }

    /// A compact label, e.g. `"1{1}"` or `"mixed[1,1,2,4]"`.
    pub fn label(&self) -> String {
        if self.sets.windows(2).all(|w| w[0] == w[1]) {
            self.sets[0].label()
        } else {
            format!(
                "mixed[{}]",
                self.sets
                    .iter()
                    .map(|s| s.len().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        }
    }
}

/// Quantization plan: word length plus one weight format per parameterized
/// layer, fitted once on the *unconstrained* trained network and then
/// frozen for retraining and compilation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantSpec {
    bits: u32,
    layer_formats: Vec<QFormat>,
}

impl QuantSpec {
    /// Fits per-layer formats to the weight ranges of `net`.
    pub fn fit(net: &Network, bits: u32) -> Self {
        let layer_formats = net
            .layers()
            .iter()
            .filter_map(|l| weights_of(l).map(|w| fit_format(bits, w)))
            .collect();
        Self {
            bits,
            layer_formats,
        }
    }

    /// Word length.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Per-parameterized-layer weight formats.
    pub fn layer_formats(&self) -> &[QFormat] {
        &self.layer_formats
    }

    /// Activation fraction: activations are unsigned `Q0.(bits-1)`.
    pub fn act_frac(&self) -> u32 {
        self.bits - 1
    }
}

/// The flat input index of every (output position, fan-in slot) of a
/// valid convolution, positions row-major and slots in the scalar
/// fan-in order `(c, ky, kx)` — shared by every output channel.
fn conv_gather(in_ch: usize, k: usize, in_h: usize, in_w: usize) -> Vec<u32> {
    let (oh, ow) = (in_h - k + 1, in_w - k + 1);
    let mut gather = Vec::with_capacity(oh * ow * in_ch * k * k);
    for oy in 0..oh {
        for ox in 0..ow {
            for c in 0..in_ch {
                for ky in 0..k {
                    for kx in 0..k {
                        gather.push((c * in_h * in_w + (oy + ky) * in_w + (ox + kx)) as u32);
                    }
                }
            }
        }
    }
    gather
}

fn weights_of(layer: &Layer) -> Option<&[f32]> {
    match layer {
        Layer::Dense(d) => Some(d.weights()),
        Layer::Conv2d(c) => Some(c.weights()),
        Layer::ScaledAvgPool(p) => Some(p.weights()),
        Layer::Activation(_) => None,
    }
}

/// Why a float network failed to compile.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The architecture is not (parameterized layer → sigmoid)* with an
    /// optional trailing logits layer.
    UnsupportedArchitecture(String),
    /// A weight's quartets are not representable under the assigned
    /// alphabet set (the network was not constrained before compiling).
    UnconstrainedWeight {
        /// Parameterized layer index.
        layer: usize,
        /// The weight magnitude that failed to decode.
        magnitude: u32,
    },
    /// The alphabet assignment does not cover every parameterized layer.
    LayerCountMismatch {
        /// Parameterized layers in the network.
        expected: usize,
        /// Sets provided.
        got: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnsupportedArchitecture(msg) => {
                write!(f, "unsupported architecture: {msg}")
            }
            CompileError::UnconstrainedWeight { layer, magnitude } => write!(
                f,
                "layer {layer} holds magnitude {magnitude} not representable under its alphabet set (constrain the network first)"
            ),
            CompileError::LayerCountMismatch { expected, got } => write!(
                f,
                "alphabet assignment covers {got} layers but the network has {expected}"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// What follows a MAC layer.
#[derive(Clone, Debug, PartialEq)]
enum OutputStage {
    /// PLAN sigmoid into the next layer's unsigned activation word.
    Sigmoid,
    /// Saturating requantization to a signed `bits`-wide word — used by
    /// convolution layers feeding a pooling layer directly (the LeNet
    /// structure squashes only after pooling).
    Requant,
    /// Raw accumulator values (the classifier head).
    Logits,
}

/// A signed activation word in sign-magnitude form (as the datapath sees
/// it). Sigmoid outputs and input pixels always have `neg == false`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct SignedAct {
    mag: u32,
    neg: bool,
}

#[derive(Clone, Debug)]
struct MacParams {
    asm: AsmMultiplier,
    w_neg: Vec<bool>,
    w_mag: Vec<u32>,
    /// Pre-decoded select/shift plans, one per weight.
    plans: Vec<crate::asm::AsmPlan>,
    /// The same plans repacked as structure-of-arrays term bytes — what
    /// the vectorized MAC kernels consume (see `crate::kernel`).
    soa: MacSoa,
    /// Biases at the accumulator fraction.
    bias: Vec<i64>,
    /// Weight format (fraction defines the accumulator fraction).
    w_format: QFormat,
    output: OutputStage,
}

#[derive(Clone, Debug)]
enum FixedLayer {
    Dense {
        in_dim: usize,
        out_dim: usize,
        mac: MacParams,
    },
    Conv {
        in_ch: usize,
        out_ch: usize,
        k: usize,
        in_h: usize,
        in_w: usize,
        /// Flat input index per (output position, fan-in slot), in the
        /// scalar fan-in order `(c, ky, kx)` — the static half of the
        /// vectorized path's gather lists, depending only on layer
        /// geometry, so it is built once at compile time instead of
        /// per inference.
        gather: Vec<u32>,
        mac: MacParams,
    },
    /// LeNet trainable pooling: 2×2 average, one multiplicative weight and
    /// bias per channel (the weight goes through the ASM like any other).
    Pool {
        channels: usize,
        in_h: usize,
        in_w: usize,
        mac: MacParams,
    },
}

impl FixedLayer {
    fn mac(&self) -> &MacParams {
        match self {
            FixedLayer::Dense { mac, .. }
            | FixedLayer::Conv { mac, .. }
            | FixedLayer::Pool { mac, .. } => mac,
        }
    }
}

/// A compiled fixed-point network.
#[derive(Clone, Debug)]
pub struct FixedNet {
    bits: u32,
    act_frac: u32,
    layers: Vec<FixedLayer>,
}

/// Lanes per batch-major block (DESIGN.md §10): the batch advances
/// layer-by-layer in blocks of this many images. 16 lanes are two
/// 8 × `i32` AVX2 vectors, so one term decode per fan-in position covers
/// the whole block, while the transposed bank block of a wide layer
/// stays comfortably inside L2.
pub const LANE_BLOCK: usize = 16;

/// Reusable per-layer pre-computer bank caches.
///
/// A bank depends only on the input magnitude and the layer's alphabet
/// set, so it can be shared across every inference of a session — the
/// mechanism behind [`FixedNet::infer_batch`] and the batched
/// `InferenceSession` in the facade crate. Banks live in one contiguous
/// structure-of-arrays slab per layer (a `BankArena`: one padded row
/// per magnitude, addressed by row offset), so the scalar hot path is
/// an array index — and the vectorized MAC kernels stream rows out of
/// the same slab without pointer chasing.
#[derive(Clone, Debug)]
pub struct SessionCache {
    /// Word length plus each layer's alphabet members: a bank's value
    /// depends on exactly these, so two networks sharing this
    /// fingerprint may share a cache and any other pairing is rejected.
    bits: u32,
    layer_alphabets: Vec<Vec<u8>>,
    layers: Vec<BankArena>,
    /// Reusable batch-major transpose scratch (DESIGN.md §10): the
    /// lane-transposed `u32` bank block and `i32` activation sign masks
    /// rebuilt per layer per lane block, lanes padded to a multiple of
    /// 8. Empty until the first batch-major dispatch; capacity then
    /// sticks at the widest layer's block so steady-state serving never
    /// reallocates. Per-clone (each worker slot transposes its own
    /// lanes), counted by [`CacheFootprint::transpose_bytes`].
    bank_t: Vec<u32>,
    sign_t: Vec<i32>,
}

/// A [`SessionCache`]'s memory footprint — what the facade session and
/// serve `stats` report so operators can see where cache bytes went.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheFootprint {
    /// Heap bytes of each layer's bank arena (rows + magnitude index).
    pub layer_bank_bytes: Vec<usize>,
    /// Heap bytes of the batch-major transpose scratch (lane-transposed
    /// 32-bit bank block + 32-bit sign masks, lanes padded to a multiple
    /// of 8; 0 until the first batch-major dispatch). Per worker slot,
    /// like the bank arenas.
    pub transpose_bytes: usize,
}

impl CacheFootprint {
    /// Total bytes: every layer's banks and the batch-major transpose
    /// scratch.
    pub fn total_bytes(&self) -> usize {
        self.layer_bank_bytes.iter().sum::<usize>() + self.transpose_bytes
    }
}

impl SessionCache {
    /// One unsigned product through the layer's bank arena, filling the
    /// bank for `x_mag` on first use.
    #[inline]
    fn product(&mut self, layer: usize, mac: &MacParams, wi: usize, x_mag: u32) -> u64 {
        let arena = &mut self.layers[layer];
        let row = arena.row_or_fill(&mac.asm, x_mag);
        mac.asm.apply(&mac.plans[wi], arena.bank(row))
    }

    /// Ensures a pre-computer bank row exists for every activation in
    /// `xs` — the write phase that lets [`SessionCache::product_ro`] and
    /// the vector kernels run the MAC loop itself through a shared
    /// reference from many worker threads. The arena grows by *exactly*
    /// the missing rows (`BankArena::prefill` counts first, then
    /// `reserve_exact`s), so SoA repacking never silently doubles the
    /// peak bank memory — and never thrashes the allocator with
    /// grow-then-trim cycles as new magnitudes trickle in.
    fn prefill_layer(&mut self, layer: usize, mac: &MacParams, xs: &[SignedAct]) {
        self.layers[layer].prefill(&mac.asm, xs.iter().map(|x| x.mag));
    }

    /// Builds the batch-major scratch (`bank_t`/`sign_t`) for one layer
    /// of a lane block from its lane-transposed input activations — the
    /// set-up every batch-major dense and conv layer runs before its
    /// kernel calls (see `kernel::transpose_bank_block`).
    fn transpose_block(&mut self, mac: &MacParams, acts: &[SignedAct], width: usize) {
        kernel::transpose_bank_block(
            mac.asm.alphabet().members(),
            width,
            acts,
            |x| (x.mag, x.neg),
            &mut self.bank_t,
            &mut self.sign_t,
        );
    }

    /// Read-only twin of [`SessionCache::product`] over a prefilled
    /// bank. Banks are pure functions of `(alphabet, x_mag)`, so this
    /// returns bit-identical products to the mutable path.
    ///
    /// # Panics
    ///
    /// Panics if the bank for `x_mag` was not prefilled (an internal
    /// invariant of the neuron-sharded MAC loop).
    #[inline]
    fn product_ro(&self, layer: usize, mac: &MacParams, wi: usize, x_mag: u32) -> u64 {
        let arena = &self.layers[layer];
        let row = arena
            .row(x_mag)
            .expect("bank prefilled for every input magnitude before sharding");
        mac.asm.apply(&mac.plans[wi], arena.bank(row))
    }

    /// The cache's current memory footprint: per-layer bank-arena bytes
    /// plus the batch-major transpose scratch.
    pub fn footprint(&self) -> CacheFootprint {
        CacheFootprint {
            layer_bank_bytes: self.layers.iter().map(BankArena::bytes).collect(),
            transpose_bytes: self.bank_t.capacity() * std::mem::size_of::<u32>()
                + self.sign_t.capacity() * std::mem::size_of::<i32>(),
        }
    }

    /// Releases growth slack in every layer's bank arena — cheap (a
    /// no-op per layer unless that arena actually over-allocated), and
    /// called automatically after every prefill — and frees the
    /// batch-major transpose scratch entirely (the next batch-major
    /// dispatch rebuilds it at exactly the live layer's size).
    pub fn shrink_to_fit(&mut self) {
        for arena in &mut self.layers {
            arena.shrink_to_fit();
        }
        self.bank_t = Vec::new();
        self.sign_t = Vec::new();
    }
}

impl FixedNet {
    /// Compiles a float network under a quantization spec and per-layer
    /// alphabet assignment.
    ///
    /// Weights must already lie on the constrained lattice (apply
    /// [`crate::constrain::constrain_slice`] or use the full alphabet set
    /// for a conventional baseline).
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] on architecture or representability
    /// violations.
    pub fn compile(
        net: &Network,
        spec: &QuantSpec,
        alphabets: &LayerAlphabets,
    ) -> Result<Self, CompileError> {
        let param_layers = net
            .layers()
            .iter()
            .filter(|l| weights_of(l).is_some())
            .count();
        if alphabets.len() != param_layers {
            return Err(CompileError::LayerCountMismatch {
                expected: param_layers,
                got: alphabets.len(),
            });
        }
        let bits = spec.bits();
        let mut layers = Vec::new();
        let mut pi = 0usize; // parameterized-layer index
        let all = net.layers();
        let mut i = 0usize;
        while i < all.len() {
            let layer = &all[i];
            if weights_of(layer).is_none() {
                return Err(CompileError::UnsupportedArchitecture(format!(
                    "layer {i} is a bare activation; activations must follow a parameterized layer"
                )));
            }
            // Determine the output stage: a following sigmoid, or logits if
            // this is the last layer.
            let output = match all.get(i + 1) {
                Some(Layer::Activation(a))
                    if a.activation == man_nn::layers::Activation::Sigmoid =>
                {
                    i += 1;
                    OutputStage::Sigmoid
                }
                Some(Layer::Activation(_)) => {
                    return Err(CompileError::UnsupportedArchitecture(
                        "the fixed engine implements sigmoid activations only".into(),
                    ))
                }
                Some(Layer::ScaledAvgPool(_)) if matches!(layer, Layer::Conv2d(_)) => {
                    // LeNet structure: the convolution's accumulator is
                    // requantized and pooled before the squash.
                    OutputStage::Requant
                }
                Some(_) => OutputStage::Logits,
                None => OutputStage::Logits,
            };
            if output == OutputStage::Logits && i + 1 != all.len() {
                return Err(CompileError::UnsupportedArchitecture(format!(
                    "layer {i} feeds the next layer without an activation"
                )));
            }
            let set = alphabets
                .get(pi)
                .expect("length verified against param_layers above")
                .clone();
            let format = spec.layer_formats()[pi];
            let (weights, bias_f) = match layer {
                Layer::Dense(d) => (d.weights(), d.bias()),
                Layer::Conv2d(c) => (c.weights(), c.bias()),
                Layer::ScaledAvgPool(p) => (p.weights(), p.bias()),
                Layer::Activation(_) => unreachable!(),
            };
            let mac = Self::compile_mac(weights, bias_f, bits, format, set, spec, pi, output)?;
            layers.push(match layer {
                Layer::Dense(d) => FixedLayer::Dense {
                    in_dim: d.in_dim,
                    out_dim: d.out_dim,
                    mac,
                },
                Layer::Conv2d(c) => FixedLayer::Conv {
                    in_ch: c.in_channels,
                    out_ch: c.out_channels,
                    k: c.kernel,
                    in_h: c.in_h,
                    in_w: c.in_w,
                    gather: conv_gather(c.in_channels, c.kernel, c.in_h, c.in_w),
                    mac,
                },
                Layer::ScaledAvgPool(p) => FixedLayer::Pool {
                    channels: p.channels,
                    in_h: p.in_h,
                    in_w: p.in_w,
                    mac,
                },
                Layer::Activation(_) => unreachable!(),
            });
            pi += 1;
            i += 1;
        }
        Ok(Self {
            bits,
            act_frac: spec.act_frac(),
            layers,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_mac(
        weights: &[f32],
        bias_f: &[f32],
        bits: u32,
        format: QFormat,
        set: AlphabetSet,
        spec: &QuantSpec,
        layer_index: usize,
        output: OutputStage,
    ) -> Result<MacParams, CompileError> {
        let asm = AsmMultiplier::new(bits, set);
        let mut w_neg = Vec::with_capacity(weights.len());
        let mut w_mag = Vec::with_capacity(weights.len());
        let mut plans = Vec::with_capacity(weights.len());
        for &w in weights {
            let q = format.quantize(w as f64);
            let (neg, mag) = man_fixed::bits::sign_magnitude(q.raw(), bits);
            let plan = asm
                .decode(mag)
                .map_err(|e| CompileError::UnconstrainedWeight {
                    layer: layer_index,
                    magnitude: e.magnitude,
                })?;
            w_neg.push(neg);
            w_mag.push(mag);
            plans.push(plan);
        }
        let acc_frac = spec.act_frac() + format.frac();
        let bias = bias_f
            .iter()
            .map(|&b| (b as f64 * (1u64 << acc_frac) as f64).round() as i64)
            .collect();
        let soa = MacSoa::build(&asm, &plans);
        Ok(MacParams {
            asm,
            w_neg,
            w_mag,
            plans,
            soa,
            bias,
            w_format: format,
            output,
        })
    }

    /// Word length.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of parameterized layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Flat input length the network expects (pixels per image).
    pub fn input_len(&self) -> usize {
        match &self.layers[0] {
            FixedLayer::Dense { in_dim, .. } => *in_dim,
            FixedLayer::Conv {
                in_ch, in_h, in_w, ..
            } => in_ch * in_h * in_w,
            FixedLayer::Pool {
                channels,
                in_h,
                in_w,
                ..
            } => channels * in_h * in_w,
        }
    }

    /// Multiply-accumulate operations per inference, per layer — the cycle
    /// model's input (4 MACs per cycle on the 4-lane unit).
    pub fn macs_per_layer(&self) -> Vec<u64> {
        self.layers
            .iter()
            .map(|l| match l {
                FixedLayer::Dense {
                    in_dim, out_dim, ..
                } => (in_dim * out_dim) as u64,
                FixedLayer::Conv {
                    in_ch,
                    out_ch,
                    k,
                    in_h,
                    in_w,
                    ..
                } => {
                    let oh = in_h - k + 1;
                    let ow = in_w - k + 1;
                    (in_ch * out_ch * k * k * oh * ow) as u64
                }
                FixedLayer::Pool {
                    channels,
                    in_h,
                    in_w,
                    ..
                } => ((channels * in_h * in_w) / 4) as u64,
            })
            .collect()
    }

    /// Multiply-accumulate operations one whole inference costs (the
    /// per-layer [`FixedNet::macs_per_layer`] summed) — recorded at
    /// compile time and fed to the `man-par` Auto tuner as the work
    /// measure per batch row.
    pub fn macs_per_inference(&self) -> u64 {
        self.macs_per_layer().iter().sum()
    }

    /// Heap bytes of the per-layer structure-of-arrays kernel plans
    /// (the repacked select/shift term buffers the vectorized MAC
    /// kernels consume). Shared by every session over this engine —
    /// part of the memory story `stats` surfaces next to the per-cache
    /// bank footprint.
    pub fn kernel_plan_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.mac().soa.bytes()).sum()
    }

    /// Neuron outputs per inference, per layer (activation-unit uses).
    pub fn neurons_per_layer(&self) -> Vec<u64> {
        self.layers
            .iter()
            .map(|l| match l {
                FixedLayer::Dense { out_dim, .. } => *out_dim as u64,
                FixedLayer::Conv {
                    out_ch,
                    k,
                    in_h,
                    in_w,
                    ..
                } => (out_ch * (in_h - k + 1) * (in_w - k + 1)) as u64,
                FixedLayer::Pool {
                    channels,
                    in_h,
                    in_w,
                    ..
                } => ((channels * in_h * in_w) / 4) as u64,
            })
            .collect()
    }

    /// One input pixel as an input-layer activation: scaled to the
    /// activation fraction, rounded half-to-even and clamped to the
    /// unsigned word (see [`quantize_pixel`]).
    #[inline]
    fn quantize(&self, p: f32) -> SignedAct {
        let scale = (1u64 << self.act_frac) as f64;
        let max = ((1u64 << self.act_frac) - 1) as f64;
        SignedAct {
            mag: quantize_pixel(p, scale, max),
            neg: false,
        }
    }

    /// A MAC layer's output stage over its accumulators: the next
    /// layer's activations, or `None` at the logits head. Elementwise,
    /// so it serves one image's accumulators and a lane block's
    /// lane-transposed ones alike.
    fn next_activations(&self, mac: &MacParams, accs: &[i64]) -> Option<Vec<SignedAct>> {
        match mac.output {
            OutputStage::Sigmoid => {
                let acc_frac = self.act_frac + mac.w_format.frac();
                let plan = self.plan_params();
                Some(
                    accs.iter()
                        .map(|&a| SignedAct {
                            mag: activation_unit_fixed(a, 64, acc_frac, &plan) as u32,
                            neg: false,
                        })
                        .collect(),
                )
            }
            OutputStage::Requant => {
                // Saturating arithmetic shift back to the activation
                // fraction: the hardware word between conv and pool.
                let shift = mac.w_format.frac();
                let max_mag = (1i64 << (self.bits - 1)) - 1;
                Some(
                    accs.iter()
                        .map(|&a| {
                            let v = (a >> shift).clamp(-max_mag, max_mag);
                            SignedAct {
                                mag: v.unsigned_abs() as u32,
                                neg: v < 0,
                            }
                        })
                        .collect(),
                )
            }
            OutputStage::Logits => None,
        }
    }

    fn plan_params(&self) -> PlanParams {
        PlanParams {
            in_bits: self.bits + 3,
            in_frac: self.bits - 1,
            out_bits: self.bits - 1,
        }
    }

    /// Runs one MAC layer. `fan_ins(o)` yields output `o`'s
    /// `(weight index, activation)` pairs as an iterator — no per-output
    /// allocation, and the whole MAC loop monomorphizes per layer shape.
    ///
    /// With `workers > 1`, no tracing, and a `prefill` slice of the
    /// layer's input activations, the outputs are sharded across the
    /// worker pool: banks are prefilled once (the only writes), then each
    /// worker computes a contiguous range of output neurons through the
    /// read-only cache. Every neuron's shift-add chain runs in exactly
    /// the fan-in order of the sequential loop and the merge only
    /// reassembles whole neurons, so accumulation within a neuron is
    /// never reordered — the results are bit-identical by construction.
    #[allow(clippy::too_many_arguments)]
    fn run_mac_layer<I: Iterator<Item = (usize, SignedAct)>>(
        &self,
        li: usize,
        mac: &MacParams,
        acc_init: impl Fn(usize) -> i64 + Sync,
        fan_ins: impl Fn(usize) -> I + Sync,
        outputs: usize,
        cache: &mut SessionCache,
        trace: &mut Option<&mut LayerTrace>,
        workers: usize,
        prefill: Option<&[SignedAct]>,
    ) -> Vec<i64> {
        // Sharding pays only when each worker gets a few neurons; tiny
        // layers (and traced runs, whose operand stream is ordered) stay
        // on the sequential reference path.
        let shardable = workers > 1 && outputs >= workers * 4 && trace.is_none();
        if let (true, Some(xs)) = (shardable, prefill) {
            cache.prefill_layer(li, mac, xs);
            let shared: &SessionCache = cache;
            let mut slots = vec![(); workers];
            return run_chunked(
                &mut slots,
                outputs,
                default_chunk_size(outputs, workers),
                |(), range| {
                    range
                        .map(|o| {
                            let mut acc = acc_init(o);
                            for (wi, x) in fan_ins(o) {
                                let mag = shared.product_ro(li, mac, wi, x.mag);
                                let neg = mac.w_neg[wi] ^ x.neg;
                                acc += man_fixed::bits::apply_sign(mag, neg);
                            }
                            acc
                        })
                        .collect()
                },
            );
        }
        let mut accs = Vec::with_capacity(outputs);
        for o in 0..outputs {
            let mut acc = acc_init(o);
            for (wi, x) in fan_ins(o) {
                let mag = cache.product(li, mac, wi, x.mag);
                let neg = mac.w_neg[wi] ^ x.neg;
                let p = man_fixed::bits::apply_sign(mag, neg);
                if let Some(t) = trace.as_deref_mut() {
                    t.record(mac.w_mag[wi], mac.w_neg[wi], x.mag, x.neg, p, acc);
                }
                acc += p;
            }
            accs.push(acc);
        }
        accs
    }

    /// Runs one MAC layer through a vectorized kernel (see
    /// `crate::kernel`): banks are prefilled into the layer's contiguous
    /// arena (the only writes), per-output fan-in runs are described by
    /// arena row offsets, and the kernel evaluates 4 weights per step —
    /// with the `i64` accumulation still in exact sequential fan-in
    /// order, so the results are bit-identical to [`Self::run_mac_layer`]
    /// by construction. `fan_of(o)` yields output `o`'s
    /// `(first weight, fan-in gather range)`; the gather lists live in
    /// `rows`/`x_neg` (for dense layers one shared list, for
    /// convolutions one list per output position).
    #[allow(clippy::too_many_arguments)]
    fn run_mac_layer_soa(
        &self,
        mac: &MacParams,
        outputs: usize,
        rows: &[u32],
        x_neg: &[bool],
        acc_init: impl Fn(usize) -> i64 + Sync,
        fan_of: impl Fn(usize) -> (usize, std::ops::Range<usize>) + Sync,
        slab: &[u64],
        workers: usize,
        kind: KernelKind,
    ) -> Vec<i64> {
        let k = kernel::kernel_for(kind);
        let run_output = |o: usize| {
            let (w0, gather) = fan_of(o);
            k.accumulate(MacRun {
                soa: &mac.soa,
                slab,
                w_neg: &mac.w_neg,
                w0,
                rows: &rows[gather.clone()],
                x_neg: &x_neg[gather],
                acc: acc_init(o),
            })
        };
        // Same shard threshold as the scalar path.
        if workers > 1 && outputs >= workers * 4 {
            let mut slots = vec![(); workers];
            return run_chunked(
                &mut slots,
                outputs,
                default_chunk_size(outputs, workers),
                |(), range| range.map(run_output).collect(),
            );
        }
        (0..outputs).map(run_output).collect()
    }

    /// One image's row-major forward pass, with the MAC loops of large
    /// layers sharded over `workers` threads (neuron-level parallelism)
    /// and the per-layer kernel dispatched per `kind` (DESIGN.md §10).
    /// Pool layers multiply *derived* 2×2-average activations whose
    /// magnitudes are not in the layer input, so they keep the
    /// sequential scalar path — they are a vanishing fraction of the
    /// MACs anyway; traced runs force the scalar path too (the operand
    /// stream is ordered).
    fn forward_layers(
        &self,
        image: &[f32],
        mut traces: Option<&mut Vec<LayerTrace>>,
        cache: &mut SessionCache,
        workers: usize,
        kind: KernelKind,
    ) -> Vec<i64> {
        assert_eq!(
            image.len(),
            self.input_len(),
            "input has {} values but the network expects {}",
            image.len(),
            self.input_len()
        );
        let mut x: Vec<SignedAct> = image.iter().map(|&p| self.quantize(p)).collect();
        let mut logits = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            let mac = layer.mac();
            let mut layer_trace = traces
                .as_deref_mut()
                .map(|ts| &mut ts[li])
                .map(|t| t as &mut LayerTrace);
            // The §10 dispatch rule: vectorized kernels run every
            // untraced dense/conv layer over the prefilled SoA arena;
            // traced runs, pool layers and the scalar kernel keep the
            // per-weight reference loop.
            let vectorize = kind.is_vectorized() && layer_trace.is_none();
            let accs: Vec<i64> = match layer {
                FixedLayer::Dense {
                    in_dim, out_dim, ..
                } if vectorize => {
                    let xs: &[SignedAct] = &x;
                    let (in_dim, out_dim) = (*in_dim, *out_dim);
                    cache.prefill_layer(li, mac, xs);
                    let arena = &cache.layers[li];
                    let rows: Vec<u32> = xs
                        .iter()
                        .map(|x| arena.row(x.mag).expect("prefilled above"))
                        .collect();
                    let x_neg: Vec<bool> = xs.iter().map(|x| x.neg).collect();
                    // Every output shares one gather list; its weights
                    // are the contiguous run starting at `o * in_dim`.
                    self.run_mac_layer_soa(
                        mac,
                        out_dim,
                        &rows,
                        &x_neg,
                        |o| mac.bias[o],
                        |o| (o * in_dim, 0..in_dim),
                        arena.slab(),
                        workers,
                        kind,
                    )
                }
                FixedLayer::Conv {
                    in_ch,
                    out_ch,
                    k,
                    in_h,
                    in_w,
                    gather,
                    ..
                } if vectorize => {
                    let xs: &[SignedAct] = &x;
                    let (in_h, in_w, in_ch, k, out_ch) = (*in_h, *in_w, *in_ch, *k, *out_ch);
                    let (oh, ow) = (in_h - k + 1, in_w - k + 1);
                    let fan = in_ch * k * k;
                    cache.prefill_layer(li, mac, xs);
                    let arena = &cache.layers[li];
                    // One gather list per output *position* (shared by
                    // all output channels), in exactly the scalar
                    // fan-in order (c, ky, kx) — which is also weight
                    // order within an output channel's contiguous run.
                    // The input-index pattern is static per layer
                    // geometry (`gather`, built at compile time); only
                    // the per-activation row offsets and signs are
                    // resolved per inference.
                    let row_of: Vec<u32> = xs
                        .iter()
                        .map(|x| arena.row(x.mag).expect("prefilled above"))
                        .collect();
                    let rows: Vec<u32> = gather.iter().map(|&xi| row_of[xi as usize]).collect();
                    let x_neg: Vec<bool> = gather.iter().map(|&xi| xs[xi as usize].neg).collect();
                    self.run_mac_layer_soa(
                        mac,
                        out_ch * oh * ow,
                        &rows,
                        &x_neg,
                        |o| mac.bias[o / (oh * ow)],
                        |o| {
                            let pos = o % (oh * ow);
                            (o / (oh * ow) * fan, pos * fan..(pos + 1) * fan)
                        },
                        arena.slab(),
                        workers,
                        kind,
                    )
                }
                FixedLayer::Dense {
                    in_dim, out_dim, ..
                } => {
                    let xs: &[SignedAct] = &x;
                    let in_dim = *in_dim;
                    self.run_mac_layer(
                        li,
                        mac,
                        |o| mac.bias[o],
                        move |o| (0..in_dim).map(move |i| (o * in_dim + i, xs[i])),
                        *out_dim,
                        cache,
                        &mut layer_trace,
                        workers,
                        Some(xs),
                    )
                }
                FixedLayer::Conv {
                    in_ch,
                    out_ch,
                    k,
                    in_h,
                    in_w,
                    ..
                } => {
                    let (oh, ow) = (in_h - k + 1, in_w - k + 1);
                    let xs: &[SignedAct] = &x;
                    let (in_h, in_w, in_ch, k) = (*in_h, *in_w, *in_ch, *k);
                    self.run_mac_layer(
                        li,
                        mac,
                        |o| mac.bias[o / (oh * ow)],
                        move |o| {
                            let oc = o / (oh * ow);
                            let oy = (o % (oh * ow)) / ow;
                            let ox = o % ow;
                            (0..in_ch).flat_map(move |c| {
                                (0..k).flat_map(move |ky| {
                                    (0..k).map(move |kx| {
                                        let wi = ((oc * in_ch + c) * k + ky) * k + kx;
                                        let xi = c * in_h * in_w + (oy + ky) * in_w + (ox + kx);
                                        (wi, xs[xi])
                                    })
                                })
                            })
                        },
                        out_ch * oh * ow,
                        cache,
                        &mut layer_trace,
                        workers,
                        Some(xs),
                    )
                }
                FixedLayer::Pool {
                    channels,
                    in_h,
                    in_w,
                    ..
                } => {
                    let (oh, ow) = (in_h / 2, in_w / 2);
                    let xs: &[SignedAct] = &x;
                    let (in_h, in_w) = (*in_h, *in_w);
                    let bits = self.bits;
                    self.run_mac_layer(
                        li,
                        mac,
                        |o| mac.bias[o / (oh * ow)],
                        move |o| std::iter::once(pool_operand(o, in_h, in_w, bits, |i| xs[i])),
                        channels * oh * ow,
                        cache,
                        &mut layer_trace,
                        // Pool magnitudes are derived, not prefillable:
                        // stay sequential (see forward_layers).
                        1,
                        None,
                    )
                }
            };
            match self.next_activations(mac, &accs) {
                Some(next) => x = next,
                None => logits = accs,
            }
        }
        logits
    }

    /// A fresh, empty bank cache shaped for this network. Reuse one cache
    /// across the inferences of a batch or session: every bank computed
    /// for one image is then shared by all later images.
    pub fn session_cache(&self) -> SessionCache {
        let slots = 1usize << (self.bits - 1);
        SessionCache {
            bits: self.bits,
            layer_alphabets: self.layer_alphabet_members(),
            layers: self
                .layers
                .iter()
                .map(|l| BankArena::new(slots, l.mac().asm.alphabet().len()))
                .collect(),
            bank_t: Vec::new(),
            sign_t: Vec::new(),
        }
    }

    fn layer_alphabet_members(&self) -> Vec<Vec<u8>> {
        self.layers
            .iter()
            .map(|l| l.mac().asm.alphabet().members().to_vec())
            .collect()
    }

    /// `true` if `cache` was created by a network with this word length
    /// and alphabet assignment (the inputs a bank's value depends on).
    fn cache_matches(&self, cache: &SessionCache) -> bool {
        cache.bits == self.bits
            && cache.layer_alphabets.len() == self.layers.len()
            && cache
                .layer_alphabets
                .iter()
                .zip(&self.layers)
                .all(|(members, l)| members == l.mac().asm.alphabet().members())
    }

    /// Runs one inference, returning the raw output-layer accumulators
    /// ("logits" at the final layer's accumulator fraction) — the
    /// one-shot reference every [`FixedNet::infer_batch`] plan matches.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not hold [`FixedNet::input_len`] values.
    pub fn infer_raw(&self, image: &[f32]) -> Vec<i64> {
        self.forward_layers(
            image,
            None,
            &mut self.session_cache(),
            1,
            kernel::default_kernel(),
        )
    }

    /// Runs a batch under a resolved [`ExecPlan`], reusing caller-held
    /// [`SessionCache`]s — the one batch entry point every session,
    /// scheduler and evaluator dispatches through. Row `i` of the result
    /// is bit-identical to `infer_raw(&images[i])` for every plan:
    ///
    /// * `Sequential` runs the batch on `caches[0]`;
    /// * `Rows { workers }` shards the rows over the first `workers`
    ///   caches, one row's whole forward pass per thread (row-major
    ///   deals fine-grained chunks for load balance; batch-major hands
    ///   every worker one contiguous chunk, so its lane blocks stay as
    ///   wide as the rows allow);
    /// * `Neurons { workers }` runs the rows in order on `caches[0]`,
    ///   sharding each large layer's output neurons over `workers`
    ///   threads (row-major only; batch-major ignores it).
    ///
    /// Row-major runs each image through the per-image kernels;
    /// batch-major advances images layer by layer in lane blocks of
    /// [`LANE_BLOCK`] (DESIGN.md §10). Every output neuron's
    /// accumulator chain runs whole, on one thread, in fan-in order,
    /// and caches only memoize pure functions of the compiled network,
    /// so the plan moves work, never bits.
    ///
    /// # Panics
    ///
    /// Panics if `caches` is empty, if any cache was created by a
    /// network with a different word length or alphabet assignment (its
    /// banks would silently corrupt this network's products), or if an
    /// image does not hold [`FixedNet::input_len`] values.
    pub fn infer_batch<I: AsRef<[f32]> + Sync>(
        &self,
        images: &[I],
        caches: &mut [&mut SessionCache],
        plan: ExecPlan,
    ) -> Vec<Vec<i64>> {
        assert!(!caches.is_empty(), "need at least one worker cache");
        for cache in caches.iter() {
            assert!(
                self.cache_matches(cache),
                "session cache belongs to a network with a different word \
                 length or alphabet assignment"
            );
        }
        let ExecPlan {
            shard,
            kernel,
            layout,
        } = plan;
        match shard {
            ShardPlan::Rows { workers } => {
                let engaged = workers.clamp(1, caches.len());
                let caches = &mut caches[..engaged];
                let chunk = match layout {
                    LayoutKind::RowMajor => default_chunk_size(images.len(), caches.len()),
                    LayoutKind::BatchMajor => images.len().div_ceil(caches.len()).max(1),
                };
                run_chunked(caches, images.len(), chunk, |cache, range| {
                    self.forward_rows(&images[range], cache, 1, kernel, layout)
                })
            }
            ShardPlan::Sequential | ShardPlan::Neurons { .. } => {
                self.forward_rows(images, caches[0], shard.workers(), kernel, layout)
            }
        }
    }

    /// Runs `images` in order on one cache: per image (row-major, with
    /// `workers`-way neuron sharding) or per lane block (batch-major).
    fn forward_rows<I: AsRef<[f32]>>(
        &self,
        images: &[I],
        cache: &mut SessionCache,
        workers: usize,
        kind: KernelKind,
        layout: LayoutKind,
    ) -> Vec<Vec<i64>> {
        match layout {
            LayoutKind::RowMajor => images
                .iter()
                .map(|image| self.forward_layers(image.as_ref(), None, cache, workers, kind))
                .collect(),
            LayoutKind::BatchMajor => images
                .chunks(LANE_BLOCK)
                .flat_map(|block| self.forward_lane_block(block, cache, kind))
                .collect(),
        }
    }

    /// One lane block's forward pass — the batch-major engine loop. All
    /// lanes advance through each layer together, their activations
    /// lane-transposed (input `i` of lane `b` at `x[i * width + b]`).
    /// Dense and conv layers build the block's bank and sign scratch
    /// from them ([`crate::kernel`]'s `transpose_bank_block`) and run the
    /// batch-major kernel per output neuron; pool layers loop the lanes
    /// through the scalar path. Accumulators come out in the same
    /// layout (`accs[o * width + b]`), so each kernel call writes one
    /// contiguous lane group and the output stage maps them elementwise
    /// into the next layer's activations.
    fn forward_lane_block<I: AsRef<[f32]>>(
        &self,
        images: &[I],
        cache: &mut SessionCache,
        kind: KernelKind,
    ) -> Vec<Vec<i64>> {
        let width = images.len();
        if width == 0 {
            return Vec::new();
        }
        let bk = kernel::batch_kernel_for(kind);
        let zero = SignedAct { mag: 0, neg: false };
        let mut x = vec![zero; self.input_len() * width];
        for (b, image) in images.iter().enumerate() {
            let image = image.as_ref();
            assert_eq!(
                image.len(),
                self.input_len(),
                "input has {} values but the network expects {}",
                image.len(),
                self.input_len()
            );
            for (slot, &p) in x[b..].iter_mut().step_by(width).zip(image) {
                *slot = self.quantize(p);
            }
        }
        let mut logits = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            let mac = layer.mac();
            let stride = mac.asm.alphabet().len() + 1;
            let accs: Vec<i64> = match layer {
                FixedLayer::Dense {
                    in_dim, out_dim, ..
                } => {
                    let (in_dim, out_dim) = (*in_dim, *out_dim);
                    cache.transpose_block(mac, &x, width);
                    // Dense fan-in is the identity gather; every output
                    // shares it, with weights at the contiguous run
                    // starting at `o * in_dim`.
                    let fan: Vec<u32> = (0..in_dim as u32).collect();
                    let mut accs = vec![0i64; out_dim * width];
                    for (o, lane_accs) in accs.chunks_exact_mut(width).enumerate() {
                        lane_accs.fill(mac.bias[o]);
                        bk.accumulate(kernel::MacBatchRun {
                            soa: &mac.soa,
                            bank_t: &cache.bank_t,
                            stride,
                            w_neg: &mac.w_neg,
                            w0: o * in_dim,
                            fan: &fan,
                            sign_t: &cache.sign_t,
                            accs: lane_accs,
                        });
                    }
                    accs
                }
                FixedLayer::Conv {
                    in_ch,
                    out_ch,
                    k,
                    in_h,
                    in_w,
                    gather,
                    ..
                } => {
                    let (in_h, in_w, in_ch, k, out_ch) = (*in_h, *in_w, *in_ch, *k, *out_ch);
                    let positions = (in_h - k + 1) * (in_w - k + 1);
                    let fan = in_ch * k * k;
                    // The block covers the *raw* input activations; the
                    // per-position gather (static layer geometry, built
                    // at compile time) is applied through the kernel's
                    // `fan` indirection instead of materializing a
                    // gathered row list per lane.
                    cache.transpose_block(mac, &x, width);
                    let mut accs = vec![0i64; out_ch * positions * width];
                    for (o, lane_accs) in accs.chunks_exact_mut(width).enumerate() {
                        let pos = o % positions;
                        lane_accs.fill(mac.bias[o / positions]);
                        bk.accumulate(kernel::MacBatchRun {
                            soa: &mac.soa,
                            bank_t: &cache.bank_t,
                            stride,
                            w_neg: &mac.w_neg,
                            w0: o / positions * fan,
                            fan: &gather[pos * fan..(pos + 1) * fan],
                            sign_t: &cache.sign_t,
                            accs: lane_accs,
                        });
                    }
                    accs
                }
                FixedLayer::Pool {
                    channels,
                    in_h,
                    in_w,
                    ..
                } => {
                    // Pool magnitudes are derived, not prefillable; each
                    // lane keeps the sequential scalar reference path
                    // (identical to the row-major pool arm).
                    let (in_h, in_w, channels) = (*in_h, *in_w, *channels);
                    let positions = (in_h / 2) * (in_w / 2);
                    let outputs = channels * positions;
                    let bits = self.bits;
                    let mut accs = vec![0i64; outputs * width];
                    for b in 0..width {
                        let x = &x;
                        let lane_accs = self.run_mac_layer(
                            li,
                            mac,
                            |o| mac.bias[o / positions],
                            move |o| {
                                std::iter::once(pool_operand(o, in_h, in_w, bits, |i| {
                                    x[i * width + b]
                                }))
                            },
                            outputs,
                            cache,
                            &mut None,
                            1,
                            None,
                        );
                        for (o, a) in lane_accs.into_iter().enumerate() {
                            accs[o * width + b] = a;
                        }
                    }
                    accs
                }
            };
            match self.next_activations(mac, &accs) {
                Some(next) => x = next,
                None => logits = accs,
            }
        }
        (0..width)
            .map(|b| logits.iter().skip(b).step_by(width).copied().collect())
            .collect()
    }

    /// Predicted class (exact argmax over the raw integer logits).
    pub fn predict(&self, image: &[f32]) -> usize {
        argmax_raw(&self.infer_raw(image))
    }

    /// Classification accuracy over a test set. Pre-computer banks are
    /// shared across the whole set (results are bit-identical to
    /// per-image [`FixedNet::predict`] calls).
    pub fn accuracy(&self, images: &[Vec<f32>], labels: &[usize]) -> f64 {
        self.accuracy_par(images, labels, Parallelism::Sequential)
    }

    /// [`FixedNet::accuracy`] parallelized across `parallelism` workers.
    /// Exactly the same count as the sequential pass — inference is
    /// deterministic per row — just faster on multi-core hosts. The
    /// whole set is one batch resolved by [`ExecRequest::resolve`], the
    /// rule sessions use: `Threads(n)` row-shards the set across `n`
    /// bank caches; under [`Parallelism::Auto`] the `man-par` decision
    /// table (compile-time MACs per row × set size) resolves the plan,
    /// so tiny evaluation sets skip the pool handoff entirely and a
    /// *small* set of *large* rows neuron-shards each row's layers
    /// instead of starving on rows.
    ///
    /// # Panics
    ///
    /// Panics if the image and label counts differ.
    pub fn accuracy_par(
        &self,
        images: &[Vec<f32>],
        labels: &[usize],
        parallelism: Parallelism,
    ) -> f64 {
        assert_eq!(images.len(), labels.len());
        if images.is_empty() {
            return 0.0;
        }
        let plan =
            ExecRequest::new(parallelism, self.macs_per_inference()).resolve(images.len(), 1);
        let mut caches: Vec<SessionCache> = (0..plan.cache_slots())
            .map(|_| self.session_cache())
            .collect();
        let mut refs: Vec<&mut SessionCache> = caches.iter_mut().collect();
        let correct = self
            .infer_batch(images, &mut refs, plan)
            .iter()
            .zip(labels)
            .filter(|(scores, &l)| argmax_raw(scores) == l)
            .count();
        correct as f64 / images.len() as f64
    }

    /// Runs inferences over `images` collecting per-layer operand traces
    /// (up to `limit` MACs per layer) for the switching-activity power
    /// model.
    pub fn sample_traces(&self, images: &[Vec<f32>], limit: usize) -> Vec<LayerTrace> {
        let mut traces: Vec<LayerTrace> = (0..self.layers.len())
            .map(|_| LayerTrace::new(limit))
            .collect();
        let mut cache = self.session_cache();
        for image in images {
            let _ = self.forward_layers(
                image,
                Some(&mut traces),
                &mut cache,
                1,
                kernel::default_kernel(),
            );
            if traces.iter().all(LayerTrace::full) {
                break;
            }
        }
        traces
    }

    /// Runs one traced inference: raw logits plus the full per-layer
    /// operand streams (up to `limit` MACs per layer).
    ///
    /// # Panics
    ///
    /// Panics if `cache` was created by a network with a different word
    /// length or alphabet assignment (as [`FixedNet::infer_batch`]).
    pub fn infer_raw_traced(
        &self,
        image: &[f32],
        limit: usize,
        cache: &mut SessionCache,
    ) -> (Vec<i64>, Vec<LayerTrace>) {
        assert!(
            self.cache_matches(cache),
            "session cache belongs to a network with a different word \
             length or alphabet assignment"
        );
        let mut traces: Vec<LayerTrace> = (0..self.layers.len())
            .map(|_| LayerTrace::new(limit))
            .collect();
        let logits =
            self.forward_layers(image, Some(&mut traces), cache, 1, kernel::default_kernel());
        (logits, traces)
    }
}

/// Pool output `o`'s operand on a `in_h × in_w` map: its channel (the
/// weight it multiplies) and the signed average of its 2×2 window
/// (truncating arithmetic shift, as the hardware adder tree plus wiring
/// would produce), saturated to the `bits`-wide word. `act(i)` reads
/// input activation `i`.
#[inline]
fn pool_operand(
    o: usize,
    in_h: usize,
    in_w: usize,
    bits: u32,
    act: impl Fn(usize) -> SignedAct,
) -> (usize, SignedAct) {
    let (oh, ow) = (in_h / 2, in_w / 2);
    let ch = o / (oh * ow);
    let oy = (o % (oh * ow)) / ow;
    let ox = o % ow;
    let base = ch * in_h * in_w + 2 * oy * in_w + 2 * ox;
    let signed = |i: usize| {
        let a = act(i);
        man_fixed::bits::apply_sign(a.mag as u64, a.neg)
    };
    let sum =
        (signed(base) + signed(base + 1) + signed(base + in_w) + signed(base + in_w + 1)) >> 2;
    let max_mag = (1u64 << (bits - 1)) - 1;
    let avg = SignedAct {
        mag: sum.unsigned_abs().min(max_mag) as u32,
        neg: sum < 0,
    };
    (ch, avg)
}

/// `2^52`: adding it to an `f64` in `[0, 2^52)` rounds the value to an
/// integer under the FPU's default round-half-to-even mode, with no
/// library call, and leaves that integer in the low mantissa bits.
const ROUND_MAGIC: f64 = 4_503_599_627_370_496.0;

/// One input pixel as an unsigned activation magnitude:
/// `round_half_even(p · scale)` clamped to `[0, max]` (`max < 2^32`).
/// The clamp runs first, in `f64` — `max(0.0)` also maps NaN to 0 — so
/// the magic-number rounding only ever sees values it rounds exactly;
/// `v + 2^52` then has exponent 52 and its low 32 bits are the rounded
/// magnitude.
#[inline]
fn quantize_pixel(p: f32, scale: f64, max: f64) -> u32 {
    let v = (p as f64 * scale).max(0.0).min(max);
    (v + ROUND_MAGIC).to_bits() as u32
}

/// First-maximum argmax over exact integer logits. Working on the raw
/// `i64` values (instead of casting to `f32`) keeps large accumulators
/// that differ by a few LSBs from collapsing to the same float and
/// misordering; every consumer of a [`FixedNet`]'s scores should use
/// this so served classes match measured accuracy.
pub fn argmax_raw(scores: &[i64]) -> usize {
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        if s > scores[best] {
            best = i;
        }
    }
    best
}

/// Operand trace of one layer: the real `(weight, input, product,
/// accumulator)` stream a lane sees, feeding the gate-level toggle
/// simulation.
#[derive(Clone, Debug)]
pub struct LayerTrace {
    limit: usize,
    /// Weight magnitudes.
    pub w_mag: Vec<u32>,
    /// Weight signs.
    pub w_neg: Vec<bool>,
    /// Input (activation) magnitudes.
    pub x_mag: Vec<u32>,
    /// Input signs (always `false` for sigmoid-fed layers).
    pub x_neg: Vec<bool>,
    /// Signed products.
    pub product: Vec<i64>,
    /// Accumulator value *before* adding the product.
    pub acc: Vec<i64>,
}

impl LayerTrace {
    fn new(limit: usize) -> Self {
        Self {
            limit,
            w_mag: Vec::new(),
            w_neg: Vec::new(),
            x_mag: Vec::new(),
            x_neg: Vec::new(),
            product: Vec::new(),
            acc: Vec::new(),
        }
    }

    fn record(&mut self, w_mag: u32, w_neg: bool, x_mag: u32, x_neg: bool, product: i64, acc: i64) {
        if self.full() {
            return;
        }
        self.w_mag.push(w_mag);
        self.w_neg.push(w_neg);
        self.x_mag.push(x_mag);
        self.x_neg.push(x_neg);
        self.product.push(product);
        self.acc.push(acc);
    }

    /// `true` once the trace holds `limit` MACs.
    pub fn full(&self) -> bool {
        self.w_mag.len() >= self.limit
    }

    /// Number of recorded MACs.
    pub fn len(&self) -> usize {
        self.w_mag.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.w_mag.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constrain::{constrain_slice, WeightLattice};
    use man_nn::layers::{Activation, ActivationLayer, Dense, Layer};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        Network::new(vec![
            Layer::Dense(Dense::new(16, 8, &mut rng)),
            Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
            Layer::Dense(Dense::new(8, 3, &mut rng)),
        ])
    }

    fn constrain_net(net: &mut Network, spec: &QuantSpec, alphabets: &LayerAlphabets) {
        let mut pi = 0;
        let bits = spec.bits();
        let formats = spec.layer_formats().to_vec();
        let sets = alphabets.sets().to_vec();
        net.visit_params_mut(|_, kind, values, _| {
            if kind == man_nn::layers::ParamKind::Weights {
                let lattice = WeightLattice::new(bits, &sets[pi]);
                constrain_slice(formats[pi], &lattice, values);
                pi += 1;
            }
        });
    }

    #[test]
    fn compile_rejects_unconstrained_weights() {
        let net = tiny_net(1);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a1(), 2);
        let err = FixedNet::compile(&net, &spec, &alphabets).unwrap_err();
        assert!(matches!(err, CompileError::UnconstrainedWeight { .. }));
    }

    #[test]
    fn compile_accepts_full_alphabet_without_constraining() {
        let net = tiny_net(2);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a8(), 2);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        assert_eq!(fixed.layer_count(), 2);
        assert_eq!(fixed.macs_per_layer(), vec![16 * 8, 8 * 3]);
    }

    #[test]
    fn compile_accepts_constrained_weights() {
        let mut net = tiny_net(3);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a1(), 2);
        constrain_net(&mut net, &spec, &alphabets);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        let x = vec![0.5f32; 16];
        let logits = fixed.infer_raw(&x);
        assert_eq!(logits.len(), 3);
    }

    #[test]
    fn fixed_inference_tracks_float_inference() {
        // With 12-bit words and the full alphabet, the fixed engine should
        // agree with the float network on comfortable-margin predictions.
        let net = tiny_net(4);
        let spec = QuantSpec::fit(&net, 12);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a8(), 2);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        let mut agree = 0;
        for i in 0..20 {
            let x: Vec<f32> = (0..16)
                .map(|j| ((i * 7 + j * 3) % 10) as f32 / 10.0)
                .collect();
            if fixed.predict(&x) == net.predict(&x) {
                agree += 1;
            }
        }
        assert!(agree >= 18, "only {agree}/20 predictions agree");
    }

    #[test]
    fn mixed_alphabet_compile_requires_matching_length() {
        let net = tiny_net(5);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::mixed(vec![AlphabetSet::a8()]);
        let err = FixedNet::compile(&net, &spec, &alphabets).unwrap_err();
        assert!(matches!(err, CompileError::LayerCountMismatch { .. }));
    }

    #[test]
    fn parallel_accuracy_matches_sequential() {
        let mut net = tiny_net(79);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a4(), 2);
        constrain_net(&mut net, &spec, &alphabets);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        let images: Vec<Vec<f32>> = (0..23)
            .map(|i| {
                (0..16)
                    .map(|j| ((i * 7 + j * 2) % 9) as f32 / 9.0)
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..23).map(|i| i % 3).collect();
        let seq = fixed.accuracy(&images, &labels);
        for p in [
            Parallelism::Sequential,
            Parallelism::Threads(3),
            Parallelism::Auto,
        ] {
            assert_eq!(fixed.accuracy_par(&images, &labels, p), seq);
        }
    }

    /// The engine-level half of the §10 bit-exactness contract (the
    /// kernel-level half is exhaustive in `crate::kernel`'s tests):
    /// [`FixedNet::infer_batch`] under every shard plan × resolved
    /// kernel (scalar reference, portable SWAR, AVX2 when the host has
    /// it) × layout returns exactly [`FixedNet::infer_raw`]'s logits, on
    /// dense *and* convolutional networks, across batch sizes straddling
    /// the [`LANE_BLOCK`] boundary, with worker caches reused across
    /// calls.
    #[test]
    fn every_exec_plan_is_bit_identical_to_infer_raw() {
        use man_nn::layers::{Conv2d, ScaledAvgPool};
        let mut kinds = vec![KernelKind::Scalar, KernelKind::Swar];
        if crate::kernel::avx2_available() {
            kinds.push(KernelKind::Avx2);
        }
        let shards = [
            ShardPlan::Sequential,
            ShardPlan::Rows { workers: 1 },
            ShardPlan::Rows { workers: 2 },
            ShardPlan::Rows { workers: 3 },
            ShardPlan::Rows { workers: 4 },
            ShardPlan::Neurons { workers: 2 },
            ShardPlan::Neurons { workers: 3 },
            ShardPlan::Neurons { workers: 8 },
        ];
        let mut rng = SmallRng::seed_from_u64(91);
        let nets: Vec<(Network, usize, u32, AlphabetSet)> = vec![
            (tiny_net(78), 16, 8, AlphabetSet::a1()),
            // A wide hidden layer, so the neuron-shard threshold
            // (outputs >= 4·workers) engages.
            (
                Network::new(vec![
                    Layer::Dense(Dense::new(16, 64, &mut rng)),
                    Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
                    Layer::Dense(Dense::new(64, 10, &mut rng)),
                ]),
                16,
                8,
                AlphabetSet::a2(),
            ),
            (
                Network::new(vec![
                    Layer::Dense(Dense::new(18, 48, &mut rng)),
                    Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
                    Layer::Dense(Dense::new(48, 5, &mut rng)),
                ]),
                18,
                8,
                AlphabetSet::a2(),
            ),
            // A conv → pool → dense LeNet-style stack (conv SoA path,
            // requant stage, signed activations into the pool layer).
            (
                Network::new(vec![
                    Layer::Conv2d(Conv2d::new(1, 4, 3, 10, 10, &mut rng)),
                    Layer::ScaledAvgPool(ScaledAvgPool::new(4, 8, 8)),
                    Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
                    Layer::Dense(Dense::new(4 * 4 * 4, 3, &mut rng)),
                    Layer::Activation(ActivationLayer::new(Activation::Sigmoid)),
                    Layer::Dense(Dense::new(3, 2, &mut rng)),
                ]),
                100,
                12,
                AlphabetSet::a2(),
            ),
        ];
        for (mut net, in_len, bits, set) in nets {
            let spec = QuantSpec::fit(&net, bits);
            let alphabets = LayerAlphabets::uniform(set, spec.layer_formats().len());
            constrain_net(&mut net, &spec, &alphabets);
            let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
            for &kernel in &kinds {
                for layout in [LayoutKind::RowMajor, LayoutKind::BatchMajor] {
                    let mut caches = vec![fixed.session_cache(); 4];
                    // Empty, one lane, a partial block, exactly one
                    // block, block + 1, block + tail.
                    for batch in [0usize, 1, 5, LANE_BLOCK, LANE_BLOCK + 1, LANE_BLOCK + 5] {
                        let images: Vec<Vec<f32>> = (0..batch)
                            .map(|i| {
                                (0..in_len)
                                    .map(|j| ((i * 17 + j * 7) % 23) as f32 / 23.0)
                                    .collect()
                            })
                            .collect();
                        let reference: Vec<Vec<i64>> =
                            images.iter().map(|x| fixed.infer_raw(x)).collect();
                        for shard in shards {
                            let plan = ExecPlan {
                                shard,
                                kernel,
                                layout,
                            };
                            let mut refs: Vec<&mut SessionCache> = caches.iter_mut().collect();
                            assert_eq!(
                                fixed.infer_batch(&images, &mut refs, plan),
                                reference,
                                "bits={bits} batch={batch} plan={}",
                                plan.label()
                            );
                        }
                    }
                }
            }
        }
    }

    /// The one-pass quantizer equals the `round_ties_even` + `i64`
    /// clamp it replaced, on ties, negatives, values above the word,
    /// infinities, NaN and a dense sweep, at every activation fraction.
    #[test]
    fn quantize_pixel_matches_round_ties_even_and_clamp() {
        for frac in 2u32..=15 {
            let scale = (1u64 << frac) as f64;
            let max = (1u64 << frac) - 1;
            let old = |p: f32| {
                (((p as f64) * scale).round_ties_even() as i64).clamp(0, max as i64) as u32
            };
            let mut probes = vec![
                0.0f32,
                -0.0,
                1.0,
                -1.0,
                2.0,
                1e30,
                -1e30,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                f32::MIN_POSITIVE,
                f32::MAX,
                f32::MIN,
            ];
            // Every tie `k + 1/2` (and its negation) across the word and
            // just past it, plus their neighbours one ulp either side.
            for k in 0..=(max + 2).min(1 << 12) {
                let tie = (k as f32 + 0.5) / scale as f32;
                let (up, down) = (tie.to_bits() + 1, tie.to_bits() - 1);
                probes.extend([tie, -tie, f32::from_bits(up), f32::from_bits(down)]);
            }
            probes.extend((0..4096).map(|i| (i as f32 - 512.0) / 3000.0));
            probes.push((max as f32 + 0.5) / scale as f32);
            probes.push((max as f32 - 0.5) / scale as f32);
            for p in probes {
                assert_eq!(
                    quantize_pixel(p, scale, max as f64),
                    old(p),
                    "frac={frac} p={p:e}"
                );
            }
        }
    }

    #[test]
    fn cache_footprint_counts_transpose_scratch() {
        let mut net = tiny_net(93);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a4(), 2);
        constrain_net(&mut net, &spec, &alphabets);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        let mut cache = fixed.session_cache();
        assert_eq!(cache.footprint().transpose_bytes, 0, "empty until used");
        let images: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..16).map(|j| ((i * 5 + j) % 11) as f32 / 11.0).collect())
            .collect();
        let plan = ExecPlan {
            layout: LayoutKind::BatchMajor,
            ..ExecPlan::sequential(KernelKind::Swar)
        };
        let _ = fixed.infer_batch(&images, &mut [&mut cache], plan);
        let used = cache.footprint();
        assert!(
            used.transpose_bytes > 0,
            "batch-major run leaves scratch capacity: {used:?}"
        );
        assert_eq!(
            used.total_bytes(),
            used.layer_bank_bytes.iter().sum::<usize>() + used.transpose_bytes
        );
        cache.shrink_to_fit();
        assert_eq!(
            cache.footprint().transpose_bytes,
            0,
            "shrink_to_fit frees the batch-major scratch"
        );
        // The freed cache still serves batch-major inference (the next
        // dispatch rebuilds the scratch at the live layer's size).
        let again = fixed.infer_batch(&images, &mut [&mut cache], plan);
        assert_eq!(again.len(), images.len());
    }

    #[test]
    fn cache_footprint_reports_banks() {
        let mut net = tiny_net(90);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a4(), 2);
        constrain_net(&mut net, &spec, &alphabets);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        let mut cache = fixed.session_cache();
        let empty = cache.footprint();
        assert_eq!(empty.layer_bank_bytes.len(), 2);
        let x: Vec<f32> = (0..16).map(|j| (j % 7) as f32 / 7.0).collect();
        let plan = ExecPlan::sequential(KernelKind::Scalar);
        let _ = fixed.infer_batch(&[x], &mut [&mut cache], plan);
        let filled = cache.footprint();
        assert!(
            filled.layer_bank_bytes[0] > empty.layer_bank_bytes[0],
            "inference fills bank rows: {filled:?}"
        );
        assert!(filled.total_bytes() > empty.total_bytes());
        cache.shrink_to_fit();
        assert!(cache.footprint().total_bytes() <= filled.total_bytes());
        assert!(fixed.kernel_plan_bytes() > 0);
    }

    #[test]
    fn traces_capture_real_operands() {
        let mut net = tiny_net(6);
        let spec = QuantSpec::fit(&net, 8);
        let alphabets = LayerAlphabets::uniform(AlphabetSet::a2(), 2);
        constrain_net(&mut net, &spec, &alphabets);
        let fixed = FixedNet::compile(&net, &spec, &alphabets).unwrap();
        let images: Vec<Vec<f32>> = (0..4).map(|i| vec![0.1 * i as f32; 16]).collect();
        let traces = fixed.sample_traces(&images, 64);
        assert_eq!(traces.len(), 2);
        assert!(!traces[0].is_empty());
        for t in &traces {
            for i in 0..t.len() {
                let sign = if t.w_neg[i] ^ t.x_neg[i] { -1i64 } else { 1 };
                assert_eq!(
                    t.product[i],
                    sign * (t.w_mag[i] as i64) * (t.x_mag[i] as i64),
                    "trace product must be the real product"
                );
            }
        }
    }
}
