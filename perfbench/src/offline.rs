//! The `offline` workload: closed-loop, in-process batched inference
//! through `InferenceSession::infer_batch_shared` at batch [`POOL`] on
//! the five Table IV models, with one worker per core.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use man_repro::man_par::Layout;
use man_repro::{InferenceSession, Kernel, Parallelism};

use crate::gen::Rng;
use crate::host;
use crate::models::{self, Prepared, Tally, OFFLINE, POOL};
use crate::stats::median;
use crate::trace::{self, span};

/// The offline models, each with its session.
pub struct Offline {
    /// The compiled models with inputs and reference answers.
    pub models: Vec<Prepared>,
    /// One session per model, one worker per core.
    pub sessions: Vec<InferenceSession>,
}

/// One set-up: compile, save and load every model, open its session and
/// make the first call that fills the session's caches. Returns the
/// models (inputs attached, references still empty) and the seconds it
/// took; generating the inputs is not timed.
pub fn setup(dir: &Path, seed: u64, workers: usize) -> Result<(Offline, host::Elapsed), String> {
    let inputs: Vec<Vec<Vec<f32>>> = OFFLINE.iter().map(|&s| models::inputs(s, seed)).collect();
    let t = host::Stopwatch::start();
    let mut offline = Offline {
        models: Vec::new(),
        sessions: Vec::new(),
    };
    for (spec, inputs) in OFFLINE.into_iter().zip(inputs) {
        let mut prepared = models::compile_and_load(spec, &dir.join("offline"))?;
        let session = prepared
            .model
            .session_parallel(Parallelism::Threads(workers));
        span("session.infer_batch", 0, || {
            session.infer_batch_shared(&inputs)
        })
        .map_err(|e| format!("first call on {}: {e}", spec.key))?;
        prepared.inputs = inputs;
        offline.models.push(prepared);
        offline.sessions.push(session);
    }
    Ok((offline, t.elapsed()))
}

/// Attaches reference answers to every model of every set (untimed).
/// The sets compiled the same models from the same inputs, so the
/// first set's answers serve them all.
pub fn add_references(sets: &mut [Offline], workers: usize) -> Result<(), String> {
    let Some((first, rest)) = sets.split_first_mut() else {
        return Ok(());
    };
    for m in &mut first.models {
        m.reference = models::reference(m, workers)?;
    }
    for set in rest {
        for (m, r) in set.models.iter_mut().zip(&first.models) {
            m.reference = r.reference.clone();
        }
    }
    Ok(())
}

/// A seeded rotation of the model's input pool, so every call sends
/// the same rows in a different order. Returns the batch and its offset.
fn rotated(m: &Prepared, rng: &mut Rng) -> (Vec<Vec<f32>>, usize) {
    let r = rng.below(POOL);
    (
        (0..POOL)
            .map(|i| m.inputs[(i + r) % POOL].clone())
            .collect(),
        r,
    )
}

/// The cost of one batch call.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Seconds all threads of the process spent on a CPU, stolen time
    /// excluded.
    pub cpu: f64,
}

/// Times one verified batch call on `session`.
fn timed_call(
    name: &'static str,
    m: &Prepared,
    session: &InferenceSession,
    rng: &mut Rng,
    tally: &Tally,
    req: u64,
) -> Cost {
    let (batch, r) = rotated(m, rng);
    let cpu0 = host::process_cpu_ns();
    let t = Instant::now();
    let out = span(name, req, || session.infer_batch_shared(&batch));
    let wall = t.elapsed().as_secs_f64();
    let cpu = match (cpu0, host::process_cpu_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9,
        _ => f64::NAN,
    };
    let ok = match &out {
        Ok(preds) => {
            preds.len() == POOL
                && preds
                    .iter()
                    .enumerate()
                    .all(|(i, p)| m.matches((i + r) % POOL, p))
        }
        Err(_) => false,
    };
    tally.record(ok, || format!("{} batch call: {:?}", m.spec.key, out.err()));
    Cost { wall, cpu }
}

/// The batch calls made on one model.
#[derive(Debug, Default)]
pub struct Calls {
    /// Each call's cost.
    pub costs: Vec<Cost>,
    /// Whether each call ran with spans recording.
    pub traced: Vec<bool>,
}

impl Calls {
    /// On-CPU seconds of the calls with spans recording (`true`) or not.
    pub fn cpu(&self, traced: bool) -> Vec<f64> {
        self.costs
            .iter()
            .zip(&self.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(c, _)| c.cpu)
            .collect()
    }
}

/// The closed loop: rounds over the models, about 100 ms of calls on
/// each per round, until `budget` is spent — so host noise lands on
/// every model alike. Successive rounds take turns over `sets`, which
/// were set up independently, so how one set-up happened to lay out
/// its memory does not decide the result. With `alternate` set (traced
/// runs), every other round runs with this thread's spans muted.
pub fn run(
    sets: &[Offline],
    budget: Duration,
    rng: &mut Rng,
    tally: &Tally,
    alternate: bool,
) -> Vec<Calls> {
    let slice = Duration::from_millis(100);
    let mut calls: Vec<Calls> = OFFLINE.iter().map(|_| Calls::default()).collect();
    let start = Instant::now();
    let mut req = 0u64;
    for round in 0.. {
        if start.elapsed() >= budget {
            break;
        }
        let offline = &sets[round % sets.len()];
        let muted = alternate && (round / sets.len()) % 2 == 1;
        trace::mute(muted);
        for (i, (m, session)) in offline.models.iter().zip(&offline.sessions).enumerate() {
            let t = Instant::now();
            loop {
                req += 1;
                let cost = timed_call("session.infer_batch", m, session, rng, tally, req);
                calls[i].costs.push(cost);
                calls[i].traced.push(alternate && !muted);
                if t.elapsed() >= slice {
                    break;
                }
            }
        }
    }
    trace::mute(false);
    calls
}

/// The session-layer probes of a traced run, per model: achieved
/// MACs/s, the scalar kernel, the row-major layout and one worker
/// against the default session, warm single-row latency, and the
/// session's cache footprint.
pub fn probe(
    offline: &Offline,
    default_calls: &[Calls],
    workers: usize,
    rng: &mut Rng,
    tally: &Tally,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for ((m, session), calls) in offline
        .models
        .iter()
        .zip(&offline.sessions)
        .zip(default_calls)
    {
        let key = m.spec.key;
        let walls: Vec<f64> = calls.costs.iter().map(|c| c.wall).collect();
        let batch_s = median(&walls).unwrap_or(f64::NAN);
        let variant = |kernel: Kernel, layout: Layout, par: Parallelism| {
            m.model
                .session_parallel(par)
                .with_kernel(kernel)
                .with_layout(layout)
        };
        let threads = Parallelism::Threads(workers);
        let arms = [
            ("default", variant(Kernel::Auto, Layout::Auto, threads)),
            ("scalar", variant(Kernel::Scalar, Layout::Auto, threads)),
            ("row", variant(Kernel::Auto, Layout::RowMajor, threads)),
            ("batch", variant(Kernel::Auto, Layout::BatchMajor, threads)),
            (
                "one",
                variant(Kernel::Auto, Layout::Auto, Parallelism::Sequential),
            ),
        ];
        let mut costs: Vec<Vec<Cost>> = vec![Vec::new(); arms.len()];
        // One untimed call fills each fresh session's caches; then the
        // arms interleave so drift hits them alike.
        for rep in 0..4 {
            for (i, (_, s)) in arms.iter().enumerate() {
                let cost = timed_call("session.probe_batch", m, s, rng, tally, 0);
                if rep > 0 {
                    costs[i].push(cost);
                }
            }
        }
        let med = |arm: usize, of: fn(&Cost) -> f64| {
            median(&costs[arm].iter().map(of).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        let cpu: fn(&Cost) -> f64 = |c| c.cpu;
        let wall: fn(&Cost) -> f64 = |c| c.wall;
        let macs = m.model.macs_per_inference() as f64 * POOL as f64;
        out.insert(format!("session.batch_ms.{key}"), batch_s * 1e3);
        out.insert(format!("session.gmac_s.{key}"), macs / batch_s / 1e9);
        // Kernel and layout arms do the same work on the same threads:
        // compare their CPU time. Parallel efficiency is about waiting,
        // so it compares wall time.
        out.insert(format!("kernel.vs_scalar.{key}"), med(1, cpu) / med(0, cpu));
        out.insert(
            format!("kernel.layout_gain.{key}"),
            med(2, cpu) / med(3, cpu),
        );
        out.insert(
            format!("par.efficiency.{key}"),
            med(4, wall) / (workers as f64 * med(0, wall)),
        );
        out.insert(
            format!("session.cache_bytes.{key}"),
            session.stats().cache_bytes as f64,
        );
        let mut rows = Vec::new();
        for rep in 0..32 {
            let i = rng.below(POOL);
            let t = Instant::now();
            let got = span("session.infer", 0, || session.infer_shared(&m.inputs[i]));
            let us = t.elapsed().as_secs_f64() * 1e6;
            let ok = got.as_ref().map(|p| m.matches(i, p)).unwrap_or(false);
            tally.record(ok, || format!("{key} row {i}: {:?}", got.err()));
            if rep >= 8 {
                rows.push(us);
            }
        }
        out.insert(
            format!("session.row_us.{key}"),
            median(&rows).unwrap_or(f64::NAN),
        );
    }
    out
}
