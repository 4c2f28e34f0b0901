//! The `serve` and `cluster` workloads: open-loop traffic over loopback
//! TCP, one NDJSON and one MANB connection, to a reactor `Server`
//! directly or through a `Router` in front of two worker `Server`s.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use man_repro::InferenceSession;
use man_serve::{
    BatchConfig, BinaryClient, HashRing, ModelRegistry, RequestHandler, Router, RouterConfig,
    Server, ServerConfig, TcpClient,
};

use crate::gen::{drive, schedule, Arrival, Block, Rng};
use crate::models::{Answer, Prepared, Tally, POOL};
use crate::stats::{median, summarize};
use crate::trace::{self, span};

/// How requests reach the model servers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Straight to one reactor `Server` over its registry.
    Direct,
    /// Through a `Router` front-end to two worker `Server`s.
    Cluster,
}

/// A running serving stack.
pub struct Stack {
    /// Where clients connect.
    pub addr: SocketAddr,
    /// The registries that run the models (one per worker).
    pub registries: Vec<Arc<ModelRegistry>>,
    /// The worker servers' addresses.
    pub worker_addrs: Vec<SocketAddr>,
    /// The router, for `cluster`.
    pub router: Option<Arc<Router>>,
    servers: Vec<Server>,
}

fn err(what: &str) -> impl Fn(&dyn std::fmt::Display) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Stack {
    /// Binds the stack and loads `served` on it: into the one registry
    /// (`Direct`), or through the router's `load_model` fan-out after
    /// both workers joined (`Cluster`).
    pub fn start(topology: Topology, served: &[Prepared]) -> Result<Stack, String> {
        let mut stack = Stack {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            registries: Vec::new(),
            worker_addrs: Vec::new(),
            router: None,
            servers: Vec::new(),
        };
        let addrs = match topology {
            Topology::Direct => vec![SocketAddr::from(([127, 0, 0, 1], 0))],
            Topology::Cluster => spread_addrs(2, served)?,
        };
        for addr in addrs {
            let registry = span("registry.new", 0, || {
                ModelRegistry::new(BatchConfig::default())
            });
            let server = span("server.bind", 0, || {
                Server::bind(addr, Arc::clone(&registry))
            })
            .map_err(|e| err("binding a server")(&e))?;
            stack.worker_addrs.push(server.local_addr());
            stack.registries.push(registry);
            stack.servers.push(server);
        }
        match topology {
            Topology::Direct => {
                for m in served {
                    span("registry.load", 0, || {
                        stack.registries[0].load_file(m.spec.key, &m.artifact)
                    })
                    .map_err(|e| err("loading a model")(&e))?;
                }
                stack.addr = stack.worker_addrs[0];
            }
            Topology::Cluster => {
                let router = Router::new(RouterConfig::default());
                for addr in &stack.worker_addrs {
                    span("router.join", 0, || router.join_node(&addr.to_string()))
                        .map_err(|e| err("joining a worker")(&e))?;
                }
                for m in served {
                    let path = m.artifact.to_string_lossy();
                    span("router.load", 0, || router.load_model(m.spec.key, &path))
                        .map_err(|e| err("loading a model through the router")(&e))?;
                }
                let handler = Arc::clone(&router) as Arc<dyn RequestHandler>;
                let front = span("server.bind", 0, || {
                    Server::bind_handler("127.0.0.1:0", handler, ServerConfig::default())
                })
                .map_err(|e| err("binding the router front-end")(&e))?;
                stack.addr = front.local_addr();
                stack.servers.insert(0, front);
                stack.router = Some(router);
            }
        }
        Ok(stack)
    }

    /// The front-end engine the client-facing server resolved to.
    pub fn mode_label(&self) -> &'static str {
        self.servers[0].mode().label()
    }

    /// The plan × kernel × layout label each hosted model resolved to,
    /// per worker.
    pub fn plan_labels(&self) -> BTreeMap<String, String> {
        let mut labels = BTreeMap::new();
        for (w, registry) in self.registries.iter().enumerate() {
            for s in registry.stats(None).unwrap_or_default() {
                labels.insert(format!("worker{w}/{}", s.model), s.plan);
            }
        }
        labels
    }

    /// Stops the front-end, router, worker servers and registries, in
    /// that order, joining their threads.
    pub fn shutdown(mut self) {
        for server in &mut self.servers {
            server.shutdown();
        }
        if let Some(router) = &self.router {
            router.shutdown();
        }
        for registry in &self.registries {
            registry.shutdown();
        }
    }
}

/// Loopback addresses for `workers` worker servers on which a router's
/// default hash ring gives every served model a different preferred
/// worker. The ring places models by worker address and ports are
/// ephemeral, so without this some runs would pile both models onto one
/// worker and others would not. The ports are found with plain
/// listeners, released just before the servers bind them.
fn spread_addrs(workers: usize, served: &[Prepared]) -> Result<Vec<SocketAddr>, String> {
    for _ in 0..64 {
        let listeners = (0..workers)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| err("reserving a port")(&e))?;
        let addrs = listeners
            .iter()
            .map(std::net::TcpListener::local_addr)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| err("reading a port")(&e))?;
        let mut ring = HashRing::new(RouterConfig::default().vnodes);
        for addr in &addrs {
            ring.add(&addr.to_string());
        }
        let mut preferred: Vec<&str> = served
            .iter()
            .filter_map(|m| ring.replicas(m.spec.key, 1).first().copied())
            .collect();
        preferred.sort_unstable();
        preferred.dedup();
        if preferred.len() == served.len() {
            return Ok(addrs);
        }
    }
    Err("no pair of ports spreads the served models over the workers".into())
}

/// The two client connections the load runs over.
pub struct Conns {
    /// Newline-delimited JSON; also scrapes the metrics page.
    pub ndjson: TcpClient,
    /// The length-prefixed binary framing.
    pub manb: BinaryClient,
}

impl Conns {
    /// Connects both and makes the first predict of every model on
    /// each, which fills the serving sessions' caches.
    pub fn connect(addr: SocketAddr, served: &[Prepared]) -> Result<Conns, String> {
        let mut conns = Conns {
            ndjson: TcpClient::connect(addr).map_err(|e| err("connecting NDJSON")(&e))?,
            manb: BinaryClient::connect(addr).map_err(|e| err("connecting MANB")(&e))?,
        };
        for m in served {
            conns
                .ndjson
                .predict(m.spec.key, &m.inputs[0])
                .map_err(|e| err("first NDJSON predict")(&e))?;
            conns
                .manb
                .predict(m.spec.key, &m.inputs[0])
                .map_err(|e| err("first MANB predict")(&e))?;
        }
        Ok(conns)
    }
}

/// What one rate block of an open-loop run measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency from each request's due time, ms, with spans off.
    pub latency_ms: Vec<f64>,
    /// The same for requests sent with spans recording.
    pub traced_latency_ms: Vec<f64>,
    /// Round trips from the actual send, µs, per connection
    /// (0 = NDJSON, 1 = MANB).
    pub rtt_us: [Vec<f64>; 2],
    /// How late the generator sent each request, ms.
    pub lag_ms: Vec<f64>,
    /// When each request of `latency_ms` was due and when it was
    /// answered.
    pub intervals: Vec<(Instant, Instant)>,
    /// The class of each request of `latency_ms`: connection × served
    /// model, as `conn * models + model`.
    pub classes: Vec<usize>,
}

impl Phase {
    /// The untraced latencies of requests during which the machine's
    /// steal counter stood still.
    pub fn quiet_latency_ms(&self, steal: &crate::host::Steal) -> Vec<f64> {
        self.latency_ms
            .iter()
            .zip(&self.intervals)
            .filter(|(_, &(from, to))| steal.quiet(from, to))
            .map(|(&ms, _)| ms)
            .collect()
    }

    /// The untraced latencies of requests of `class` during which the
    /// machine's steal counter stood still, and all of them.
    pub fn class_latency_ms(&self, class: usize, steal: &crate::host::Steal) -> [Vec<f64>; 2] {
        let mut out = [Vec::new(), Vec::new()];
        for ((&ms, &(from, to)), &c) in self
            .latency_ms
            .iter()
            .zip(&self.intervals)
            .zip(&self.classes)
        {
            if c != class {
                continue;
            }
            if steal.quiet(from, to) {
                out[0].push(ms);
            }
            out[1].push(ms);
        }
        out
    }

    /// How many request classes the phase holds.
    pub fn class_count(&self) -> usize {
        self.classes.iter().max().map_or(0, |&c| c + 1)
    }
}

/// What one open-loop run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// One entry per rate block of the [`Load`].
    pub phases: Vec<Phase>,
    /// Metrics-page scrape times, ms.
    pub scrape_ms: Vec<f64>,
    /// How many `SCHED_IDLE` spinners kept the CPUs awake during the
    /// load (see [`crate::host::IdleSpin`]).
    pub idle_spinners: usize,
}

/// Span names for the two connections' predicts.
pub fn predict_spans(topology: Topology) -> [&'static str; 2] {
    match topology {
        Topology::Direct => ["server.ndjson_predict", "server.manb_predict"],
        Topology::Cluster => ["router.ndjson_predict", "router.manb_predict"],
    }
}

impl Conns {
    /// The two connections as load targets: NDJSON first.
    pub fn targets(&mut self) -> [&mut dyn Target; 2] {
        [&mut self.ndjson, &mut self.manb]
    }
}

/// Checks a wire answer against the reference.
fn check<E>(got: &Result<Answer, E>, want: &Answer) -> bool {
    matches!(got, Ok(answer) if answer == want)
}

/// A path requests can be sent down, one at a time.
pub trait Target: Send {
    /// One predict: the answer, or what went wrong.
    fn predict(&mut self, model: &str, input: &[f32]) -> Result<Answer, String>;
    /// Fetches the metrics page, on targets that scrape it.
    fn scrape(&mut self) -> Option<Result<String, String>> {
        None
    }
}

impl Target for TcpClient {
    fn predict(&mut self, model: &str, input: &[f32]) -> Result<Answer, String> {
        TcpClient::predict(self, model, input).map_err(|e| e.to_string())
    }
    fn scrape(&mut self) -> Option<Result<String, String>> {
        Some(self.metrics_page().map_err(|e| e.to_string()))
    }
}

impl Target for BinaryClient {
    fn predict(&mut self, model: &str, input: &[f32]) -> Result<Answer, String> {
        BinaryClient::predict(self, model, input).map_err(|e| e.to_string())
    }
}

/// The in-process path: straight into one `InferenceSession` per
/// served model, on the generator's own thread.
pub struct InProcess<'a> {
    served: &'a [Prepared],
    sessions: &'a [InferenceSession],
}

impl<'a> InProcess<'a> {
    /// A target over `sessions`, one per model of `served`, in order.
    pub fn new(served: &'a [Prepared], sessions: &'a [InferenceSession]) -> Self {
        InProcess { served, sessions }
    }
}

impl Target for InProcess<'_> {
    fn predict(&mut self, model: &str, input: &[f32]) -> Result<Answer, String> {
        let i = self
            .served
            .iter()
            .position(|m| m.spec.key == model)
            .ok_or_else(|| format!("unknown model {model}"))?;
        self.sessions[i]
            .infer_shared(input)
            .map(|p| (p.class, p.scores))
            .map_err(|e| e.to_string())
    }
}

/// Alternating traced windows of a traced run.
const TRACE_WINDOW: Duration = Duration::from_millis(250);

/// The knobs of one open-loop run.
#[derive(Clone, Debug)]
pub struct Load {
    /// The rate blocks, cycled; each rate is in requests per second over
    /// both connections.
    pub blocks: Vec<Block>,
    /// How long the run offers load.
    pub window: Duration,
    /// Whether every other 250 ms window runs with spans muted.
    pub alternate: bool,
}

/// One connection's share of a run.
#[derive(Default)]
struct ConnOut {
    arrivals: Vec<Arrival>,
    samples: Vec<crate::gen::Sample>,
    traced: Vec<bool>,
    scrape_ms: Vec<f64>,
}

#[allow(clippy::too_many_arguments)]
fn run_conn(
    wire: &mut dyn Target,
    conn: usize,
    span_name: &'static str,
    served: &[Prepared],
    load: &Load,
    start: Instant,
    rng: &mut Rng,
    tally: &Tally,
) -> ConnOut {
    let halves: Vec<Block> = load
        .blocks
        .iter()
        .map(|b| Block {
            rate: b.rate / 2.0,
            len: b.len,
        })
        .collect();
    let arrivals = schedule(rng, &halves, load.window, served.len(), POOL);
    let wire = std::cell::RefCell::new(wire);
    let mut traced = Vec::with_capacity(arrivals.len());
    let mut next_scrape = start + Duration::from_secs(1);
    let mut scrape_ms = Vec::new();
    let samples = drive(
        start,
        &arrivals,
        |i, a| {
            let k = Instant::now().saturating_duration_since(start).as_nanos()
                / TRACE_WINDOW.as_nanos();
            let on = !load.alternate || k.is_multiple_of(2);
            trace::mute(!on);
            traced.push(on && trace::enabled());
            let m = &served[a.model];
            let req = ((conn as u64 + 1) << 32) | i as u64;
            let got = span(span_name, req, || {
                wire.borrow_mut().predict(m.spec.key, &m.inputs[a.input])
            });
            let ok = check(&got, &m.reference[a.input]);
            tally.record(ok, || {
                format!("{} via {span_name}: {:?}", m.spec.key, got.err())
            });
        },
        |_due| {
            if Instant::now() < next_scrape {
                return;
            }
            next_scrape += Duration::from_secs(1);
            let t = Instant::now();
            let page = span("exporter.scrape", 0, || wire.borrow_mut().scrape());
            if let Some(page) = page {
                scrape_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let ok = matches!(&page, Ok(body) if body.contains("man_"));
                tally.record(ok, || format!("metrics scrape: {:?}", page.err()));
            }
        },
    );
    trace::mute(false);
    trace::flush();
    ConnOut {
        arrivals,
        samples,
        traced,
        scrape_ms,
    }
}

/// Sends every input of every served model once down each target,
/// waiting for each answer, so the sessions' caches hold every input
/// before anything is timed.
pub fn warm(targets: [&mut dyn Target; 2], served: &[Prepared], tally: &Tally) {
    for target in targets {
        for m in served {
            for (i, input) in m.inputs.iter().enumerate() {
                let got = target.predict(m.spec.key, input);
                let ok = check(&got, &m.reference[i]);
                tally.record(ok, || format!("warm-up {}: {:?}", m.spec.key, got.err()));
            }
        }
    }
}

/// Runs open-loop load: the rate blocks of `load` in turn, half the
/// rate on each of the two targets, an even seeded mix of the served
/// models. A target that scrapes the metrics page does so once a second
/// while it waits; a scrape that runs long delays the next request,
/// and that counts.
pub fn open_loop(
    targets: [&mut dyn Target; 2],
    served: &[Prepared],
    spans: [&'static str; 2],
    load: &Load,
    rng: &mut Rng,
    tally: &Tally,
) -> Measured {
    let start = Instant::now() + Duration::from_millis(20);
    let mut rngs = [Rng::new(rng.next_u64(), 1), Rng::new(rng.next_u64(), 2)];
    let [rng_nd, rng_mb] = &mut rngs;
    let [first, second] = targets;
    let (nd, mb) = std::thread::scope(|s| {
        let nd = s.spawn(|| run_conn(first, 0, spans[0], served, load, start, rng_nd, tally));
        let mb = s.spawn(|| run_conn(second, 1, spans[1], served, load, start, rng_mb, tally));
        (
            nd.join().expect("first generator thread"),
            mb.join().expect("second generator thread"),
        )
    });
    let mut out = Measured {
        phases: load.blocks.iter().map(|_| Phase::default()).collect(),
        scrape_ms: nd.scrape_ms.clone(),
        idle_spinners: 0,
    };
    for (conn, c) in [nd, mb].into_iter().enumerate() {
        for ((a, s), traced) in c.arrivals.iter().zip(&c.samples).zip(c.traced) {
            let phase = &mut out.phases[a.block];
            let ms = s.latency.as_secs_f64() * 1e3;
            if traced {
                phase.traced_latency_ms.push(ms);
            } else {
                let due = start + a.due;
                phase.latency_ms.push(ms);
                phase.intervals.push((due, due + s.latency));
                phase.classes.push(conn * served.len() + a.model);
            }
            phase.rtt_us[conn].push(s.rtt.as_secs_f64() * 1e6);
            phase.lag_ms.push(s.lag.as_secs_f64() * 1e3);
        }
    }
    out
}

/// Registry counters summed over every worker and model.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    completed: u64,
    batches: u64,
    rejected: u64,
    timed_out: u64,
    latency_us_sum: f64,
    queue_us_sum: f64,
}

/// The registries' counters now.
pub fn counters(stack: &Stack) -> Counters {
    let mut c = Counters::default();
    for registry in &stack.registries {
        for s in registry.stats(None).unwrap_or_default() {
            c.completed += s.completed;
            c.batches += s.batches;
            c.rejected += s.rejected;
            c.timed_out += s.timed_out;
            c.latency_us_sum += s.mean_latency_us * s.completed as f64;
            // Every completed request waited in the queue once.
            c.queue_us_sum += s.mean_queue_us * s.completed as f64;
        }
    }
    c
}

/// The serving-layer metrics of a traced run: batcher deltas between
/// `before` and now (mean queue wait and server-accounted latency, mean
/// batch, rejections, time-outs), the client round trip the servers did
/// not account for, and the metrics-page scrape time.
pub fn layer_metrics(stack: &Stack, before: Counters, run: &Measured) -> BTreeMap<String, f64> {
    let phases = &run.phases;
    let after = counters(stack);
    let completed = after.completed.saturating_sub(before.completed).max(1) as f64;
    let server_mean_us = (after.latency_us_sum - before.latency_us_sum) / completed;
    // The registries publish exact means (their percentiles are
    // octave-bucket midpoints, which read the same run after run).
    let mut out = BTreeMap::new();
    out.insert(
        "batcher.queue_mean_us".into(),
        (after.queue_us_sum - before.queue_us_sum) / completed,
    );
    out.insert("batcher.server_mean_us".into(), server_mean_us);
    out.insert(
        "batcher.mean_batch".into(),
        completed / (after.batches.saturating_sub(before.batches).max(1)) as f64,
    );
    out.insert(
        "batcher.rejected".into(),
        (after.rejected - before.rejected) as f64,
    );
    out.insert(
        "batcher.timed_out".into(),
        (after.timed_out - before.timed_out) as f64,
    );
    for (conn, label) in ["ndjson", "manb"].into_iter().enumerate() {
        let rtts: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.rtt_us[conn].iter().copied())
            .collect();
        out.insert(
            format!("reactor.unaccounted_p50_us.{label}"),
            median(&rtts).unwrap_or(f64::NAN) - server_mean_us,
        );
    }
    out.insert(
        "exporter.scrape_ms".into(),
        median(&run.scrape_ms).unwrap_or(f64::NAN),
    );
    let lags: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.lag_ms.iter().copied())
        .collect();
    out.insert(
        "gen.lag_tail_ms".into(),
        summarize(&lags, 0.99).map(|s| s.tail).unwrap_or(f64::NAN),
    );
    out
}

/// The router probes of a traced run on a cluster stack: in-process
/// `Router::route_predict` latency, the hop a MANB round trip through
/// the router adds over one straight to a worker, and the router's
/// lifetime failover, retry and no-backend counts.
pub fn cluster_probe(
    stack: &Stack,
    served: &[Prepared],
    rng: &mut Rng,
    tally: &Tally,
) -> Result<BTreeMap<String, f64>, String> {
    let router = stack
        .router
        .as_ref()
        .ok_or("cluster probe needs a router")?;
    let mut via_router =
        BinaryClient::connect(stack.addr).map_err(|e| err("connecting to the router")(&e))?;
    let mut direct = BinaryClient::connect(stack.worker_addrs[0])
        .map_err(|e| err("connecting to a worker")(&e))?;
    let (mut route, mut hop_router, mut hop_direct) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..240 {
        let m = &served[rep % served.len()];
        let i = rng.below(POOL);
        let t = Instant::now();
        let got = span("router.route", 0, || {
            router.route_predict(m.spec.key, &m.inputs[i])
        });
        let us = t.elapsed().as_secs_f64() * 1e6;
        let ok = got.as_ref().map(|p| m.matches(i, p)).unwrap_or(false);
        tally.record(ok, || {
            format!("route_predict {}: {:?}", m.spec.key, got.err())
        });
        for (client, name, sink) in [
            (&mut via_router, "router.manb_predict", &mut hop_router),
            (&mut direct, "server.manb_predict", &mut hop_direct),
        ] {
            let t = Instant::now();
            let got = span(name, 0, || client.predict(m.spec.key, &m.inputs[i]));
            let client_us = t.elapsed().as_secs_f64() * 1e6;
            tally.record(check(&got, &m.reference[i]), || {
                format!("{name} {}: {:?}", m.spec.key, got.err())
            });
            if rep >= 40 {
                sink.push(client_us);
            }
        }
        if rep >= 40 {
            route.push(us);
        }
    }
    let stats = router.stats();
    let mut out = BTreeMap::new();
    out.insert(
        "cluster.route_p50_us".into(),
        median(&route).unwrap_or(f64::NAN),
    );
    out.insert(
        "cluster.hop_p50_us".into(),
        median(&hop_router).unwrap_or(f64::NAN) - median(&hop_direct).unwrap_or(f64::NAN),
    );
    out.insert("cluster.failovers".into(), stats.failovers as f64);
    out.insert("cluster.retries".into(), stats.retries as f64);
    out.insert("cluster.no_backend".into(), stats.no_backend as f64);
    Ok(out)
}
