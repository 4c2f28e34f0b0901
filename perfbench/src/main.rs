//! The repository benchmark. One command runs one named workload with
//! one seed, checks every answer bit for bit against the scalar
//! reference, and prints its metrics as the last line of standard
//! output:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline --seed 1 --seconds 28 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and what
//! each layer metric is expected to move.

mod gen;
mod host;
mod models;
mod offline;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use man_repro::man::kernel::cpu_features;

use crate::gen::{Block, Rng};
use crate::models::{Prepared, Tally, SERVED};
use crate::serving::{Conns, Load, Stack, Topology};
use crate::stats::{median, summarize};
use crate::trace::span;

/// Requests per second of the `light` rate: sparse enough that the
/// batcher mostly sees batches of one.
const LIGHT_RATE: f64 = 100.0;
/// Requests per second of the `heavy` rate: about half the closed-loop
/// capacity of the two connections on the digits + faces mix, on a
/// 2-vCPU x86-64 virtual machine while its hypervisor steals a third of
/// the CPU time (1200-1400 req/s without steal, 400-700 with it).
const HEAVY_RATE: f64 = 200.0;
/// The highest tail percentile latency metrics report: on a shared
/// 2-vCPU virtual machine, p90 moved 20-65% between runs and p75 4-27%.
const TAIL_CAP: f64 = 0.75;
/// Fewest steal-free requests the latency metrics are computed from;
/// below it they fall back to every request.
const MIN_QUIET: usize = 50;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Environment variables that change which code path runs.
const OVERRIDES: [&str; 4] = ["MAN_KERNEL", "MAN_LAYOUT", "MAN_FRONTEND", "MAN_OBS"];

/// The end-to-end metrics every untraced run prints, with units.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("ips.digits_mlp", "1/s"),
    ("ips.digits_cnn", "1/s"),
    ("ips.faces", "1/s"),
    ("ips.svhn", "1/s"),
    ("ips.tich", "1/s"),
    ("p50_ms.light", "ms"),
    ("p50_ms.heavy", "ms"),
];

/// Layers a traced run reports self time for: the repository modules
/// the benchmark calls into, plus its own time between calls.
const LAYERS: [&str; 8] = [
    "pipeline", "artifact", "session", "registry", "server", "exporter", "router", "bench",
];

/// The per-layer metrics every traced run prints, with units.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    let per_model: [(&str, &str); 8] = [
        ("pipeline.compile_ms", "ms"),
        ("session.batch_ms", "ms"),
        ("session.gmac_s", "GMAC/s"),
        ("kernel.vs_scalar", "x"),
        ("kernel.layout_gain", "x"),
        ("par.efficiency", "ratio"),
        ("session.cache_bytes", "bytes"),
        ("session.row_us", "us"),
    ];
    for (prefix, unit) in per_model {
        for m in models::OFFLINE {
            names.push((format!("{prefix}.{}", m.key), unit));
        }
    }
    let single: [(&str, &'static str); 21] = [
        ("artifact.load_ms", "ms"),
        ("latency.tail_ms.light", "ms"),
        ("latency.tail_ms.heavy", "ms"),
        ("batcher.queue_mean_us", "us"),
        ("batcher.server_mean_us", "us"),
        ("batcher.mean_batch", "count"),
        ("batcher.rejected", "count"),
        ("batcher.timed_out", "count"),
        ("reactor.unaccounted_p50_us.ndjson", "us"),
        ("reactor.unaccounted_p50_us.manb", "us"),
        ("exporter.scrape_ms", "ms"),
        ("cluster.route_p50_us", "us"),
        ("cluster.hop_p50_us", "us"),
        ("cluster.failovers", "count"),
        ("cluster.retries", "count"),
        ("cluster.no_backend", "count"),
        ("gen.lag_tail_ms", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.spans", "count"),
        ("trace.untraced_samples", "count"),
        ("trace.traced_samples", "count"),
    ];
    names.extend(single.iter().map(|&(n, u)| (n.to_owned(), u)));
    names.extend(LAYERS.iter().map(|l| (format!("self_ms.{l}"), "ms")));
    names
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Offline,
    Serve,
    Cluster,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "offline" => Some(Workload::Offline),
            "serve" => Some(Workload::Serve),
            "cluster" => Some(Workload::Cluster),
            _ => None,
        }
    }

    /// The share of `--seconds` the workload spends on its own phase;
    /// the rest measures the end-to-end metrics of the other workloads'
    /// kind. The open loop's medians settle on fewer seconds than the
    /// side phase's per-call CPU times, which run on one set-up only.
    fn own_share(self) -> f64 {
        match self {
            Workload::Offline => 0.8,
            Workload::Serve | Workload::Cluster => 0.6,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Workload::Offline => "offline",
            Workload::Serve => "serve",
            Workload::Cluster => "cluster",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    allow_env: Vec<String>,
}

const USAGE: &str = "usage: perfbench --workload offline|serve|cluster --seed N --seconds S \
                     --trace 0|1 [--allow-env MAN_KERNEL,...]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Offline,
        seed: 0,
        seconds: 20.0,
        trace: false,
        allow_env: Vec::new(),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("bad {what} `{value}`\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 120.0) {
                    return Err(bad("seconds (1..=120)"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--allow-env" => args.allow_env.extend(value.split(',').map(str::to_owned)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    args.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(args)
}

/// Refuses to run under a code-path override the invocation did not
/// name, so results that resolved different paths never mix silently.
fn check_overrides(allowed: &[String]) -> Result<Vec<String>, String> {
    let mut pinned = Vec::new();
    for var in OVERRIDES {
        if let Some(value) = std::env::var_os(var) {
            let value = value.to_string_lossy().into_owned();
            if !allowed.iter().any(|a| a == var) {
                return Err(format!(
                    "{var}={value} is set; it changes which code path runs. \
                     Unset it, or pass --allow-env {var} to measure under it"
                ));
            }
            pinned.push(format!("{var}={value}"));
        }
    }
    Ok(pinned)
}

/// The process's peak resident set, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// A scratch directory for artifacts, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(".perfbench").join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything a run measured, before it is reduced to metrics.
#[derive(Default)]
struct Measured {
    setup: Vec<host::Elapsed>,
    offline_calls: Vec<offline::Calls>,
    /// The light (0) and heavy (1) blocks.
    serve: serving::Measured,
    pins: BTreeMap<String, String>,
    layer: BTreeMap<String, f64>,
    /// Workers per offline session: one per core.
    workers: usize,
    /// Steal readings over the open-loop phase.
    steal: host::Steal,
    /// `VmHWM` when the own phase ended, MB, where later set-ups follow
    /// it.
    peak_rss_mb: Option<f64>,
}

/// The served models, compiled, saved and loaded, with inputs attached.
fn prepare_served(dir: &Path, inputs: &[Vec<Vec<f32>>]) -> Result<Vec<Prepared>, String> {
    SERVED
        .iter()
        .zip(inputs)
        .map(|(&spec, inputs)| {
            let mut m = models::compile_and_load(spec, &dir.join("served"))?;
            m.inputs = inputs.clone();
            Ok(m)
        })
        .collect()
}

/// Sets a serving stack up once: compiles, saves and loads the served
/// models, binds, loads them (through the router for `Cluster`),
/// connects and makes the first calls. Returns the time that took.
fn setup_serving(
    topology: Topology,
    dir: &Path,
    seed: u64,
) -> Result<(Vec<Prepared>, Stack, Conns, host::Elapsed), String> {
    let inputs: Vec<_> = SERVED.iter().map(|&s| models::inputs(s, seed)).collect();
    let t = host::Stopwatch::start();
    let served = prepare_served(dir, &inputs)?;
    let stack = Stack::start(topology, &served)?;
    let conns = Conns::connect(stack.addr, &served)?;
    Ok((served, stack, conns, t.elapsed()))
}

/// Computes the scalar, row-major answers every served answer is checked
/// against.
fn add_references(served: &mut [Prepared], workers: usize) -> Result<(), String> {
    for m in served {
        m.reference = models::reference(m, workers)?;
    }
    Ok(())
}

/// Warms `targets`, then runs open-loop load on them, alternating
/// one-second blocks at the light and heavy rates for `window`, while
/// sampling the machine's steal counter and keeping every CPU awake.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    mut targets: [&mut dyn serving::Target; 2],
    served: &[Prepared],
    spans: [&'static str; 2],
    window: Duration,
    alternate: bool,
    rng: &mut Rng,
    tally: &Tally,
) -> (serving::Measured, host::Steal) {
    {
        let [a, b] = &mut targets;
        span("bench.warmup", 0, || {
            serving::warm([&mut **a, &mut **b], served, tally)
        });
    }
    let load = Load {
        blocks: [LIGHT_RATE, HEAVY_RATE]
            .map(|rate| Block {
                rate,
                len: Duration::from_secs(1),
            })
            .to_vec(),
        window,
        alternate,
    };
    let sampler = host::StealSampler::start(Duration::from_millis(10));
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spin = host::IdleSpin::start(cpus);
    let mut run = span("bench.open_loop", 0, || {
        serving::open_loop(targets, served, spans, &load, rng, tally)
    });
    run.idle_spinners = spin.finish();
    let steal = sampler.map(host::StealSampler::finish).unwrap_or_default();
    (run, steal)
}

/// Runs the open loop over a serving stack's two connections; in a
/// traced run, also records the serving layers' metrics.
#[allow(clippy::too_many_arguments)]
fn serve_phases(
    topology: Topology,
    served: &[Prepared],
    stack: &Stack,
    conns: &mut Conns,
    window: Duration,
    alternate: bool,
    rng: &mut Rng,
    tally: &Tally,
    m: &mut Measured,
) -> (serving::Measured, host::Steal) {
    let before = serving::counters(stack);
    let spans = serving::predict_spans(topology);
    let out = open_loop(
        conns.targets(),
        served,
        spans,
        window,
        alternate,
        rng,
        tally,
    );
    if trace::enabled() {
        m.layer
            .extend(serving::layer_metrics(stack, before, &out.0));
    }
    m.pins.insert("frontend".into(), stack.mode_label().into());
    for (k, v) in stack.plan_labels() {
        m.pins.insert(format!("plan.{k}"), v);
    }
    out
}

/// The offline closed loop for `budget`; records each model's resolved
/// plan.
fn offline_phase(
    sets: &[offline::Offline],
    budget: Duration,
    alternate: bool,
    rng: &mut Rng,
    tally: &Tally,
    m: &mut Measured,
) {
    m.offline_calls = span("bench.offline", 0, || {
        offline::run(sets, budget, rng, tally, alternate)
    });
    let last = sets.last().expect("at least one offline set-up");
    for (p, s) in last.models.iter().zip(&last.sessions) {
        m.pins
            .insert(format!("plan.{}", p.spec.key), s.stats().plan);
    }
}

fn run(args: &Args, tally: &Tally) -> Result<Measured, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = WorkDir::create()?;
    let mut rng = Rng::new(args.seed, 0);
    let mut m = Measured {
        workers,
        ..Measured::default()
    };
    let own_share = args.workload.own_share();
    let own = Duration::from_secs_f64(args.seconds * own_share);
    let side = Duration::from_secs_f64(args.seconds * (1.0 - own_share));
    let traced = args.trace;
    let steal_before = host::steal_ticks();
    // The offline sets: the workload's own set-ups, or one side set-up.
    let sets = match args.workload {
        Workload::Offline => {
            let mut sets = Vec::new();
            for _ in 0..SETUP_REPS {
                let (off, took) = span("bench.setup", 0, || {
                    offline::setup(&dir.0, args.seed, workers)
                })?;
                m.setup.push(took);
                sets.push(off);
            }
            span("bench.reference", 0, || {
                offline::add_references(&mut sets, workers)
            })?;
            offline_phase(&sets, own, traced, &mut rng, tally, &mut m);
            // Latency on this workload's own path: the served mix sent
            // straight into in-process sessions, no serve stack.
            let inputs: Vec<_> = SERVED
                .iter()
                .map(|&s| models::inputs(s, args.seed))
                .collect();
            let mut served = span("bench.side_setup", 0, || prepare_served(&dir.0, &inputs))?;
            add_references(&mut served, workers)?;
            // One session per model and caller, as a library user would
            // hold them: the two callers never wait on each other's lock.
            let open = || served.iter().map(|p| p.model.session()).collect::<Vec<_>>();
            let (sessions_a, sessions_b) = (open(), open());
            let (mut a, mut b) = (
                serving::InProcess::new(&served, &sessions_a),
                serving::InProcess::new(&served, &sessions_b),
            );
            let spans = ["session.infer", "session.infer"];
            (m.serve, m.steal) = open_loop(
                [&mut a, &mut b],
                &served,
                spans,
                side,
                traced,
                &mut rng,
                tally,
            );
            if traced {
                probe_serve(&dir.0, args.seed, workers, &mut rng, tally, &mut m)?;
                m.layer.extend(probe_cluster(&served, &mut rng, tally)?);
            }
            m.layer
                .insert("artifact.load_ms".into(), load_ms(&sets[0].models));
            sets
        }
        Workload::Serve | Workload::Cluster => {
            let topology = match args.workload {
                Workload::Cluster => Topology::Cluster,
                _ => Topology::Direct,
            };
            // The offline side phase runs first, on an idle machine,
            // so no server thread shares its cores or its CPU time.
            let (off, _) = span("bench.side_setup", 0, || {
                offline::setup(&dir.0, args.seed, workers)
            })?;
            let mut sets = vec![off];
            span("bench.reference", 0, || {
                offline::add_references(&mut sets, workers)
            })?;
            offline_phase(&sets, side, false, &mut rng, tally, &mut m);
            // The load runs on the first set-up, in a process that has
            // set up nothing else yet: each set-up frees memory the
            // allocator keeps, in amounts that differ from run to run.
            let (mut served, stack, mut conns, took) = span("bench.setup", 0, || {
                setup_serving(topology, &dir.0, args.seed)
            })?;
            m.setup.push(took);
            span("bench.reference", 0, || {
                add_references(&mut served, workers)
            })?;
            (m.serve, m.steal) = serve_phases(
                topology, &served, &stack, &mut conns, own, traced, &mut rng, tally, &mut m,
            );
            if traced && topology == Topology::Cluster {
                let probe = span("bench.probe", 0, || {
                    serving::cluster_probe(&stack, &served, &mut rng, tally)
                })?;
                m.layer.extend(probe);
            }
            m.peak_rss_mb = peak_rss_mb().map_err(|e| eprintln!("perfbench: {e}")).ok();
            drop(conns);
            stack.shutdown();
            if traced && topology == Topology::Direct {
                m.layer.extend(probe_cluster(&served, &mut rng, tally)?);
            }
            // The other set-ups, timed for `setup_s` alone.
            for _ in 1..SETUP_REPS {
                let (_, stack, conns, took) = span("bench.setup", 0, || {
                    setup_serving(topology, &dir.0, args.seed)
                })?;
                m.setup.push(took);
                drop(conns);
                stack.shutdown();
            }
            m.layer.insert("artifact.load_ms".into(), load_ms(&served));
            sets
        }
    };
    if traced {
        let off = sets.last().ok_or("no offline set-up ran")?;
        let probe = span("bench.probe", 0, || {
            offline::probe(off, &m.offline_calls, workers, &mut rng, tally)
        });
        m.layer.extend(probe);
        for p in &off.models {
            m.layer.insert(
                format!("pipeline.compile_ms.{}", p.spec.key),
                p.compile_s * 1e3,
            );
        }
    }
    if let Some(share) = host::steal_share(steal_before, host::steal_ticks()) {
        m.pins
            .insert("host_steal_share".into(), format!("{share:.4}"));
    }
    m.pins.insert("nproc".into(), workers.to_string());
    Ok(m)
}

/// Total `CompiledModel::load` time of `models`, in ms.
fn load_ms(models: &[Prepared]) -> f64 {
    models.iter().map(|p| p.load_s).sum::<f64>() * 1e3
}

/// The serving-layer probes of a traced `offline` run, which has no
/// serve stack of its own: a short open loop on a direct stack, whose
/// layer metrics land in `m`.
fn probe_serve(
    dir: &Path,
    seed: u64,
    workers: usize,
    rng: &mut Rng,
    tally: &Tally,
    m: &mut Measured,
) -> Result<(), String> {
    span("bench.probe", 0, || {
        let (mut served, stack, mut conns, _) = setup_serving(Topology::Direct, dir, seed)?;
        add_references(&mut served, workers)?;
        let window = Duration::from_secs(4);
        serve_phases(
            Topology::Direct,
            &served,
            &stack,
            &mut conns,
            window,
            false,
            rng,
            tally,
            m,
        );
        drop(conns);
        stack.shutdown();
        Ok(())
    })
}

/// The router probes on a cluster stack started for them alone.
fn probe_cluster(
    served: &[Prepared],
    rng: &mut Rng,
    tally: &Tally,
) -> Result<BTreeMap<String, f64>, String> {
    span("bench.probe", 0, || {
        let stack = Stack::start(Topology::Cluster, served)?;
        let probe = serving::cluster_probe(&stack, served, rng, tally);
        stack.shutdown();
        probe
    })
}

/// The open loop's rate blocks, in order.
const RATES: [&str; 2] = ["light", "heavy"];

/// The untraced latencies of one rate block, summarized and sorted:
/// the steal-free requests, or every request when too few are
/// steal-free. Requests during which the hypervisor took CPU time away
/// measure the neighbours.
fn latency(phase: &serving::Phase, steal: &host::Steal) -> Option<(stats::Summary, Vec<f64>)> {
    let quiet = phase.quiet_latency_ms(steal);
    let mut kept = if quiet.len() >= MIN_QUIET {
        quiet
    } else {
        phase.latency_ms.clone()
    };
    kept.sort_by(f64::total_cmp);
    summarize(&kept, TAIL_CAP).map(|s| (s, kept))
}

/// The latency metrics of one rate block, taken per request class
/// (connection × model).
#[derive(Debug, PartialEq)]
struct RateLatency {
    /// Geometric mean of the classes' medians.
    p50: f64,
    /// Geometric mean of the classes' tails.
    tail: f64,
    /// Each class's summary.
    classes: Vec<stats::Summary>,
}

/// The latency metrics of one rate block: the geometric mean, over
/// request classes, of each class's median and tail, from its
/// steal-free requests or from all of them when too few are steal-free.
/// The classes' latencies differ by up to 2x, so a percentile of the
/// pooled requests can fall between their modes, where a shift of a few
/// requests moves it far.
fn class_latency(phase: &serving::Phase, steal: &host::Steal) -> Option<RateLatency> {
    let classes: Vec<stats::Summary> = (0..phase.class_count())
        .filter_map(|class| {
            let [quiet, all] = phase.class_latency_ms(class, steal);
            let kept = if quiet.len() >= MIN_QUIET { quiet } else { all };
            summarize(&kept, TAIL_CAP)
        })
        .collect();
    if classes.is_empty() {
        return None;
    }
    let geo_mean = |of: fn(&stats::Summary) -> f64| {
        (classes.iter().map(|c| of(c).ln()).sum::<f64>() / classes.len() as f64).exp()
    };
    Some(RateLatency {
        p50: geo_mean(|c| c.median),
        tail: geo_mean(|c| c.tail),
        classes,
    })
}

/// Geometric mean of traced ÷ untraced medians, as a percentage over 1.
fn overhead_pct(pairs: &[(Vec<f64>, Vec<f64>)]) -> f64 {
    let logs: Vec<f64> = pairs
        .iter()
        .filter_map(|(traced, plain)| Some((median(traced)? / median(plain)?).ln()))
        .collect();
    if logs.is_empty() {
        return f64::NAN;
    }
    ((logs.iter().sum::<f64>() / logs.len() as f64).exp() - 1.0) * 100.0
}

/// Formats one JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env_pins = match check_overrides(&args.allow_env) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    trace::set_enabled(args.trace);
    let tally = Tally::default();
    let measured = run(&args, &tally);
    let spans = trace::collect();
    let mut m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let (attempted, failed) = tally.counts();
    let mut metrics: BTreeMap<String, (f64, &str)> = BTreeMap::new();
    let mut detail: Vec<(String, String)> = Vec::new();
    let mut counts: Vec<(String, String)> = Vec::new();
    if args.trace {
        let by_layer = trace::self_time_by_layer(&spans);
        for layer in LAYERS {
            let ns = by_layer.get(layer).copied().unwrap_or(0);
            m.layer.insert(format!("self_ms.{layer}"), ns as f64 / 1e6);
        }
        let mut pairs: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
        let (mut traced_n, mut plain_n) = (0, 0);
        if args.workload == Workload::Offline {
            for c in &m.offline_calls {
                let (traced, plain) = (c.cpu(true), c.cpu(false));
                traced_n += traced.len();
                plain_n += plain.len();
                pairs.push((traced, plain));
            }
        } else {
            for p in &m.serve.phases {
                traced_n += p.traced_latency_ms.len();
                plain_n += p.latency_ms.len();
                pairs.push((p.traced_latency_ms.clone(), p.latency_ms.clone()));
            }
        }
        for (phase, rate) in m.serve.phases.iter().zip(RATES) {
            if let Some(by_class) = class_latency(phase, &m.steal) {
                m.layer
                    .insert(format!("latency.tail_ms.{rate}"), by_class.tail);
            }
        }
        m.layer
            .insert("trace.overhead_pct".into(), overhead_pct(&pairs));
        m.layer.insert("trace.spans".into(), spans.len() as f64);
        m.layer
            .insert("trace.traced_samples".into(), traced_n as f64);
        m.layer
            .insert("trace.untraced_samples".into(), plain_n as f64);
        for (name, unit) in per_layer() {
            let value = m.layer.get(&name).copied().unwrap_or(f64::NAN);
            metrics.insert(name, (value, unit));
        }
        let path = Path::new(".perfbench").join(format!(
            "trace-{}-{}.jsonl",
            args.workload.label(),
            args.seed
        ));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => detail.push(("spans_file".into(), json_str(&path.to_string_lossy()))),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    } else {
        let rss = match m.peak_rss_mb {
            Some(mb) => Ok(mb),
            None => peak_rss_mb().map_err(|e| eprintln!("perfbench: {e}")),
        };
        let mut e2e: BTreeMap<String, f64> = BTreeMap::new();
        // On-CPU seconds, like `ips`: the wall-clock set-up time moved
        // with the host's steal (spread 16-38% over ten seeds).
        let setup_cpu: Vec<f64> = m.setup.iter().map(|t| t.cpu_s).collect();
        let setup_wall: Vec<f64> = m.setup.iter().map(|t| t.wall_s).collect();
        e2e.insert("setup_s".into(), median(&setup_cpu).unwrap_or(f64::NAN));
        e2e.insert("peak_rss_mb".into(), rss.unwrap_or(f64::NAN));
        e2e.insert(
            "ok_ratio".into(),
            (attempted - failed) as f64 / attempted.max(1) as f64,
        );
        counts.push(("setup_s".into(), m.setup.len().to_string()));
        counts.push((
            "setup_wall_s".into(),
            median(&setup_wall).unwrap_or(f64::NAN).to_string(),
        ));
        // Rows per second of a call's on-CPU time spread over the
        // session's workers: what the call would take on that many
        // cores the hypervisor never took away.
        for (p, calls) in models::OFFLINE.iter().zip(&m.offline_calls) {
            let cpu = calls.cpu(false);
            let name = format!("ips.{}", p.key);
            counts.push((name.clone(), cpu.len().to_string()));
            let ips = median(&cpu).map(|s| (models::POOL * m.workers) as f64 / s);
            e2e.insert(name, ips.unwrap_or(f64::NAN));
            let walls: Vec<f64> = calls.costs.iter().map(|c| c.wall).collect();
            if let Some(wall) = median(&walls) {
                counts.push((
                    format!("{}.wall_ips", p.key),
                    (models::POOL as f64 / wall).to_string(),
                ));
            }
        }
        for (phase, rate) in m.serve.phases.iter().zip(RATES) {
            let Some((s, sorted)) = latency(phase, &m.steal) else {
                continue;
            };
            let Some(by_class) = class_latency(phase, &m.steal) else {
                continue;
            };
            e2e.insert(format!("p50_ms.{rate}"), by_class.p50);
            let per_class: Vec<String> = by_class
                .classes
                .iter()
                .map(|c| {
                    format!(
                        "{{\"count\": {}, \"p50\": {}, \"tail_level\": {}, \"tail\": {}}}",
                        c.count, c.median, c.tail_level, c.tail
                    )
                })
                .collect();
            let all = summarize(&phase.latency_ms, TAIL_CAP).unwrap_or(s);
            let ladder: Vec<String> = stats::TAIL_LADDER
                .iter()
                .filter(|&&q| q < 0.99)
                .map(|&q| format!("\"p{}\": {}", q * 100.0, stats::quantile(&sorted, q)))
                .collect();
            counts.push((
                format!("latency.{rate}"),
                format!(
                    "{{\"count\": {}, \"of\": {}, \"lag_p50\": {}, \"rtt_p50_us\": [{}, {}], \"classes\": [{}], \"ladder\": {{{}}}, \"all_p50\": {}, \"all_tail\": {}}}",
                    s.count,
                    phase.latency_ms.len(),
                    median(&phase.lag_ms).unwrap_or(f64::NAN),
                    median(&phase.rtt_us[0]).unwrap_or(f64::NAN),
                    median(&phase.rtt_us[1]).unwrap_or(f64::NAN),
                    per_class.join(", "),
                    ladder.join(", "),
                    all.median,
                    all.tail,
                ),
            ));
        }
        for (name, unit) in END_TO_END {
            let value = e2e.get(name).copied().unwrap_or(f64::NAN);
            metrics.insert(name.to_owned(), (value, unit));
        }
    }
    let missing: Vec<&String> = metrics
        .iter()
        .filter(|(_, (v, _))| !v.is_finite())
        .map(|(k, _)| k)
        .collect();
    let correct = failed == 0 && attempted > 0 && missing.is_empty();
    if !missing.is_empty() {
        eprintln!("perfbench: no measurement for {missing:?}");
    }

    detail.splice(
        0..0,
        [
            ("workload".to_owned(), json_str(args.workload.label())),
            ("seed".to_owned(), args.seed.to_string()),
            ("seconds".to_owned(), args.seconds.to_string()),
            ("trace".to_owned(), args.trace.to_string()),
            ("cpu".to_owned(), json_str(&cpu_features())),
            ("obs".to_owned(), json_str(man_serve::obs::level().label())),
            ("env".to_owned(), json_str(&env_pins.join(" "))),
            ("attempted".to_owned(), attempted.to_string()),
            ("failed".to_owned(), failed.to_string()),
            (
                "idle_spinners".to_owned(),
                m.serve.idle_spinners.to_string(),
            ),
        ],
    );
    for (k, v) in &m.pins {
        detail.push((k.clone(), json_str(v)));
    }
    detail.push(("samples".into(), json_object(&counts)));
    println!(
        "{}",
        json_object(&[("perfbench".into(), json_object(&detail))])
    );

    let metric_pairs: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, (v, unit))| {
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            (
                k.clone(),
                format!("{{\"value\": {v}, \"unit\": {}}}", json_str(unit)),
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_object(&metric_pairs)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics a run prints, with the
    /// same units.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let printed: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .chain(per_layer())
            .collect();
        for (name, unit) in &printed {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Plus the three workload names: no metric is listed that a run
        // does not print.
        assert_eq!(json.matches("\"name\":").count(), printed.len() + 3);
    }

    #[test]
    fn overhead_is_the_geometric_mean_of_median_ratios() {
        let pairs = vec![
            (vec![1.1, 1.1, 1.1], vec![1.0, 1.0, 1.0]),
            (vec![2.2], vec![2.0]),
        ];
        assert!((overhead_pct(&pairs) - 10.0).abs() < 1e-9);
        assert!(overhead_pct(&[(vec![], vec![1.0])]).is_nan());
    }

    #[test]
    fn latency_is_the_geometric_mean_over_classes() {
        let t = std::time::Instant::now();
        let latency_ms = vec![1.0, 1.0, 1.0, 1.0, 1.0, 4.0, 4.0, 4.0];
        let phase = serving::Phase {
            intervals: vec![(t, t); latency_ms.len()],
            classes: vec![0, 0, 0, 0, 0, 1, 1, 1],
            latency_ms,
            ..serving::Phase::default()
        };
        // No steal readings: every request counts. The pooled median
        // would be 1.0, the faster class's.
        let got = class_latency(&phase, &host::Steal::default()).expect("two classes");
        assert!((got.p50 - 2.0).abs() < 1e-12, "{got:?}");
        let counts: Vec<usize> = got.classes.iter().map(|c| c.count).collect();
        assert_eq!(counts, vec![5, 3]);
        // Too few samples for a tail: each class reports its median.
        assert!((got.tail - 2.0).abs() < 1e-12, "{got:?}");
        assert!(class_latency(&serving::Phase::default(), &host::Steal::default()).is_none());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
