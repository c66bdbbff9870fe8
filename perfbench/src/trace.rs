//! The traced run: the demo worker behind an in-process `Server`, plus a
//! `Router` gateway over two in-process members. Each request of the
//! workload is replayed five ways at concurrency 1, with spans recorded
//! here, around the calls into each layer's public functions:
//!
//! 1. over the socket to the worker's server (`server.rtt`);
//! 2. through `RequestDecoder`, `Frontend::begin`, the handle's wait and
//!    `to_rope` (`http.*`, `frontend.*`);
//! 3. through `WorkerNode::submit` and the wait (`dispatcher.*`);
//! 4. stage by stage: each compute node through the isolation backend and
//!    each communication request through `ServiceRegistry::dispatch`;
//! 5. over the socket through the gateway (`gateway.rtt`).
//!
//! Every other cycle of replays runs with span recording switched off; the
//! ratio of the two cycles' replay times is the tracing overhead. A closed
//! loop at the workload's shape then measures the counters that only mean
//! something under load.

use std::io::{BufWriter, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dandelion_apps::{image, matmul, phases, setup};
use dandelion_common::config::IsolationKind;
use dandelion_common::{BufferPool, DataSet, JsonValue, SharedBytes};
use dandelion_core::{sync_invoke_response, Frontend, FrontendReply, WorkerNode};
use dandelion_http::{parse_request_shared, HttpRequest, ParseLimits, RequestDecoder, Uri};
use dandelion_isolation::{
    create_backend, ExecutionTask, FunctionArtifact, HardwarePlatform, IsolationBackend, Stage,
};
use dandelion_server::{GatewayConfig, Router, Server, ServerConfig};
use dandelion_services::ServiceRegistry;

use crate::client::Conn;
use crate::workload::{check_status, Kind, Workload, CHAIN_PHASES};
use crate::{get_json, load, metric, print_result, Args};

/// Replayed requests whose samples are dropped (first-use costs).
const WARM_REQUESTS: usize = 10;
/// The completeness check's tolerance, as a share of the socket round
/// trip: no replay may take longer than the replay that encloses it by
/// more than this, and the layers must add up to the round trip within it.
const LEDGER_TOLERANCE: f64 = 0.15;
const REPLAYS: usize = 5;
const ORDERS: usize = 2 * REPLAYS;
const STAGE_NAMES: [&str; 6] = [
    "marshal",
    "load",
    "transfer_input",
    "execute",
    "output",
    "other",
];

struct Span {
    id: u32,
    parent: u32,
    request: u32,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// Spans held in memory and written out when the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// When off, `record` keeps nothing: the replays that measure the
    /// tracing overhead.
    enabled: bool,
}

impl Tracer {
    /// Records a span and returns its id (ids start at 1; parent 0 means
    /// a root, and id 0 a span that was not kept). A parent is recorded
    /// before its children.
    fn record(
        &mut self,
        parent: u32,
        request: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end,
        });
        id
    }

    /// Sets the end of span `id`, recorded before its children.
    fn close(&mut self, id: u32, end: Instant) {
        if id != 0 {
            self.spans[id as usize - 1].end = end;
        }
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let ns = |at: Instant| at.duration_since(self.epoch).as_nanos() as u64;
        for span in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.id,
                span.parent,
                span.request,
                span.name,
                ns(span.start),
                ns(span.end)
            )?;
        }
        out.flush()
    }
}

fn us(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e6
}

/// Replays 1 and 5: one request over a socket; returns the round trip in
/// microseconds and the answering node.
fn round_trip(
    conn: &mut Conn,
    workload: &Workload,
    index: usize,
    tracer: &mut Tracer,
    request: u32,
    name: &'static str,
) -> Result<(f64, Option<String>), String> {
    let start = Instant::now();
    let response = conn
        .round_trip(&workload.requests[index].wire)
        .map_err(|error| error.to_string())?;
    let end = Instant::now();
    tracer.record(0, request, name, start, end);
    check_status(response.status, response.body)?;
    workload.check_body(index, response.body)?;
    Ok((us(start, end), response.node.map(str::to_string)))
}

/// One request's measurements across the five replays, in microseconds.
#[derive(Default)]
struct Sample {
    rtt: f64,
    decode: f64,
    begin: f64,
    /// `Frontend::begin` through the settled response.
    path: f64,
    encode: f64,
    submit: f64,
    invoke: f64,
    stages: [f64; 6],
    services: f64,
    /// One object-store GET dispatched for a composition that makes no
    /// call itself, so that the services layer is measured everywhere.
    services_probe: f64,
    context_kib: f64,
    compute_tasks: f64,
    comm_tasks: f64,
    gateway_rtt: f64,
}

/// A measured request: its replay order, whether its spans were recorded,
/// the wall time of all five replays in microseconds and what they measured.
struct Replayed {
    order: usize,
    traced: bool,
    took: f64,
    sample: Sample,
}

impl Sample {
    fn stage_total(&self) -> f64 {
        self.stages.iter().sum::<f64>() + self.services
    }
}

/// The in-process system under trace.
struct Stack {
    worker: Arc<WorkerNode>,
    frontend: Arc<Frontend>,
    direct: Server,
    second_worker: Arc<WorkerNode>,
    second: Server,
    router: Arc<Router>,
    gateway: Server,
    backend: Arc<dyn IsolationBackend>,
    services: ServiceRegistry,
    artifacts: Vec<Arc<FunctionArtifact>>,
}

fn server_config() -> ServerConfig {
    // The same shape as the spawned processes' `--event-loops 1`.
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        event_loops: 1,
        ..ServerConfig::default()
    }
}

impl Stack {
    fn start() -> Result<Stack, String> {
        let member = || -> Result<(Arc<WorkerNode>, Arc<Frontend>, Server), String> {
            // `dandelion-serve --cores 2` builds exactly this worker.
            let worker = setup::demo_worker(2, false).map_err(|error| error.to_string())?;
            let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
            let server = Server::start(server_config(), Arc::clone(&frontend))
                .map_err(|error| format!("bind: {error}"))?;
            Ok((worker, frontend, server))
        };
        let (worker, frontend, direct) = member()?;
        let (second_worker, _, second) = member()?;
        let router = Router::start(GatewayConfig::default());
        for server in [&direct, &second] {
            router.join(server.local_addr())?;
        }
        let gateway = Server::start_gateway(server_config(), Arc::clone(&router))
            .map_err(|error| format!("bind gateway: {error}"))?;
        Ok(Stack {
            worker,
            frontend,
            direct,
            second_worker,
            second,
            router,
            gateway,
            // The worker's own backend: Native isolation on x86 Linux.
            backend: create_backend(IsolationKind::Native, HardwarePlatform::X86Linux),
            services: setup::demo_services(false),
            artifacts: vec![
                Arc::new(matmul::matmul_artifact()),
                Arc::new(phases::make_fetch_artifact()),
                Arc::new(phases::sum_min_max_artifact()),
                Arc::new(phases::finalize_artifact()),
                Arc::new(image::compress_artifact()),
            ],
        })
    }

    fn stop(self) {
        self.gateway.shutdown();
        self.router.shutdown();
        self.direct.shutdown();
        self.second.shutdown();
        self.worker.shutdown();
        self.second_worker.shutdown();
    }

    /// Runs one compute node in a fresh sandbox of the isolation backend.
    fn compute(
        &self,
        artifact: usize,
        inputs: Vec<DataSet>,
        tracer: &mut Tracer,
        parent: u32,
        request: u32,
        sample: &mut Sample,
    ) -> Result<Vec<DataSet>, String> {
        let task = ExecutionTask::new(Arc::clone(&self.artifacts[artifact]), inputs)
            .with_timeout(Duration::from_secs(60));
        let start = Instant::now();
        let report = self.backend.execute(&task);
        tracer.record(parent, request, "isolation.execute", start, Instant::now());
        let report = report.map_err(|error| error.to_string())?;
        for (slot, stage) in Stage::ALL.iter().enumerate() {
            sample.stages[slot] += report.measured.get(*stage).as_secs_f64() * 1e6;
        }
        sample.context_kib = sample
            .context_kib
            .max(report.context_high_water as f64 / 1024.0);
        Ok(report.outputs)
    }

    /// Runs one communication request through the service registry;
    /// returns the response and the dispatch time in microseconds.
    fn communicate(
        &self,
        request_bytes: &SharedBytes,
        tracer: &mut Tracer,
        parent: u32,
        request: u32,
        name: &'static str,
    ) -> Result<(SharedBytes, f64), String> {
        let http = parse_request_shared(request_bytes).map_err(|error| error.to_string())?;
        let uri = Uri::parse(&http.target).ok_or("unparseable fetch target")?;
        let start = Instant::now();
        let reply = self.services.dispatch(&uri, &http);
        let end = Instant::now();
        tracer.record(parent, request, name, start, end);
        if !reply.response.status.is_success() {
            return Err(format!(
                "{} answered {}",
                http.target, reply.response.status.0
            ));
        }
        Ok((reply.response.to_shared(), us(start, end)))
    }

    /// Replay 4: the composition stage by stage; returns its output.
    fn stages(
        &self,
        workload: &Workload,
        index: usize,
        tracer: &mut Tracer,
        request: u32,
        sample: &mut Sample,
    ) -> Result<SharedBytes, String> {
        let root_start = Instant::now();
        let root = tracer.record(0, request, "stages", root_start, root_start);
        let first = |sets: Vec<DataSet>| -> Result<DataSet, String> {
            sets.into_iter()
                .next()
                .ok_or_else(|| "a node produced no set".to_string())
        };
        if workload.kind != Kind::Chain {
            let probe = HttpRequest::get(format!("http://s3.internal/arrays/{}", index % 1000));
            let bytes = SharedBytes::from(probe.to_bytes());
            sample.services_probe = self
                .communicate(&bytes, tracer, 0, request, "services.probe")?
                .1;
        }
        let output = match workload.kind {
            Kind::Tiny | Kind::Gateway => {
                first(self.compute(0, workload.inputs(index), tracer, root, request, sample)?)?
            }
            Kind::Bulk => {
                first(self.compute(4, workload.inputs(index), tracer, root, request, sample)?)?
            }
            Kind::Chain => {
                let mut phase = workload.inputs(index).remove(0);
                let mut stats = DataSet::new("Stats");
                for _ in 0..CHAIN_PHASES {
                    phase.name = "Phase".into();
                    let fetch =
                        first(self.compute(1, vec![phase], tracer, root, request, sample)?)?;
                    let item = fetch.items.first().ok_or("MakeFetch emitted no request")?;
                    let (response, took) =
                        self.communicate(&item.data, tracer, root, request, "services.dispatch")?;
                    sample.services += took;
                    let mut sets = self
                        .compute(
                            2,
                            vec![DataSet::single("Response", response)],
                            tracer,
                            root,
                            request,
                            sample,
                        )?
                        .into_iter();
                    stats = sets.next().ok_or("SumMinMax emitted no stats")?;
                    phase = sets.next().ok_or("SumMinMax emitted no next phase")?;
                }
                stats.name = "Stats".into();
                first(self.compute(3, vec![stats], tracer, root, request, sample)?)?
            }
        };
        tracer.close(root, Instant::now());
        output
            .items
            .into_iter()
            .next()
            .map(|item| item.data)
            .ok_or_else(|| "the composition produced no output".to_string())
    }

    /// Replays request `index` five ways, checking every result. The
    /// replays run back to back, so each one finds the worker in the state
    /// the previous one left (swapping two replays moved the difference
    /// between them by 60 us on `tiny`). `order` picks one of [`ORDERS`]
    /// sequences — the five rotations of the forward and of the reversed
    /// sequence — in which every replay precedes every other as often as
    /// it follows it.
    fn replay(
        &self,
        workload: &Workload,
        index: usize,
        conns: &mut (Conn, Conn),
        tracer: &mut Tracer,
        request: u32,
        order: usize,
    ) -> Result<Sample, String> {
        let mut sample = Sample::default();
        for step in 0..REPLAYS {
            let position = if order < REPLAYS {
                step
            } else {
                REPLAYS - 1 - step
            };
            match (position + order) % REPLAYS {
                0 => {
                    let (rtt, _) =
                        round_trip(&mut conns.0, workload, index, tracer, request, "server.rtt")?;
                    sample.rtt = rtt;
                }
                1 => self.through_frontend(workload, index, tracer, request, &mut sample)?,
                2 => self.through_dispatcher(workload, index, tracer, request, &mut sample)?,
                3 => {
                    let output = self.stages(workload, index, tracer, request, &mut sample)?;
                    workload.check_body(index, &output)?;
                }
                _ => {
                    let (rtt, node) = round_trip(
                        &mut conns.1,
                        workload,
                        index,
                        tracer,
                        request,
                        "gateway.rtt",
                    )?;
                    workload.check_node(node.as_deref())?;
                    sample.gateway_rtt = rtt;
                }
            }
        }
        Ok(sample)
    }

    /// Replay 2: the exact request bytes through the HTTP decoder and the
    /// frontend, and the response through the encoder.
    fn through_frontend(
        &self,
        workload: &Workload,
        index: usize,
        tracer: &mut Tracer,
        request: u32,
        sample: &mut Sample,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let mut decoder = RequestDecoder::new(ParseLimits::default());
        decoder.feed(&workload.requests[index].wire);
        let http = decoder
            .next_request()
            .map_err(|error| error.to_string())?
            .ok_or("the decoder wanted more bytes")?;
        let t1 = Instant::now();
        let reply = self.frontend.begin(&http);
        let t2 = Instant::now();
        let FrontendReply::Pending(handle) = reply else {
            return Err("the frontend answered an invoke without running it".into());
        };
        let response = sync_invoke_response(handle.wait(None));
        let t3 = Instant::now();
        let rope = std::hint::black_box(response.to_rope());
        let t4 = Instant::now();
        drop(rope);
        let root = tracer.record(0, request, "frontend.request", t0, t4);
        tracer.record(root, request, "http.decode", t0, t1);
        tracer.record(root, request, "frontend.begin", t1, t2);
        tracer.record(root, request, "frontend.wait", t2, t3);
        tracer.record(root, request, "http.encode", t3, t4);
        (sample.decode, sample.begin, sample.path, sample.encode) =
            (us(t0, t1), us(t1, t2), us(t1, t3), us(t3, t4));
        check_status(response.status.0, &response.body)?;
        workload.check_body(index, &response.body)
    }

    /// Replay 3: the decoded inputs straight into the dispatcher.
    fn through_dispatcher(
        &self,
        workload: &Workload,
        index: usize,
        tracer: &mut Tracer,
        request: u32,
        sample: &mut Sample,
    ) -> Result<(), String> {
        let inputs = workload.inputs(index);
        let t0 = Instant::now();
        let handle = self
            .worker
            .submit(workload.kind.composition(), inputs)
            .map_err(|error| error.to_string())?;
        let t1 = Instant::now();
        let outcome = handle.wait(None);
        let t2 = Instant::now();
        let root = tracer.record(0, request, "dispatcher.invoke", t0, t2);
        tracer.record(root, request, "dispatcher.submit", t0, t1);
        (sample.submit, sample.invoke) = (us(t0, t1), us(t0, t2));
        let outcome = outcome.map_err(|error| error.to_string())?;
        sample.compute_tasks = outcome.report.compute_tasks as f64;
        sample.comm_tasks = outcome.report.communication_tasks as f64;
        let item = outcome
            .outputs
            .first()
            .and_then(|set| set.items.first())
            .ok_or("the invocation produced no output")?;
        workload.check_body(index, &item.data)
    }

    /// Sums a `server.loops` counter over both members' event loops.
    fn loop_counter(&self, name: &str) -> Result<f64, String> {
        let mut total = 0.0;
        for server in [&self.direct, &self.second] {
            let stats = get_json(&server.local_addr().to_string(), "/v1/stats")?;
            let loops = stats
                .get("server")
                .and_then(|server| server.get("loops"))
                .and_then(JsonValue::as_array)
                .ok_or("no server.loops in /v1/stats")?;
            total += loops
                .iter()
                .filter_map(|entry| entry.get(name).and_then(JsonValue::as_u64))
                .sum::<u64>() as f64;
        }
        Ok(total)
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let mut workload = Workload::generate(args.kind, args.seed);
    let stack = Stack::start()?;
    let result = traced(args, &mut workload, &stack);
    stack.stop();
    result
}

fn traced(args: &Args, workload: &mut Workload, stack: &Stack) -> Result<(), String> {
    workload.members = stack
        .router
        .member_rows()
        .into_iter()
        .map(|(node, _, _)| node.to_string())
        .collect();
    let direct = stack.direct.local_addr().to_string();
    let gateway = stack.gateway.local_addr().to_string();
    let budget = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        enabled: true,
    };

    // Replays at concurrency 1, in cycles of the `ORDERS` orders; every
    // other cycle records no spans. The loop ends on a whole pair of
    // cycles, so both halves hold every order equally often.
    let connect =
        |addr: &str| Conn::connect(addr).map_err(|error| format!("connect {addr}: {error}"));
    let mut conns = (connect(&direct)?, connect(&gateway)?);
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut replayed = 0usize;
    loop {
        let measured = replayed.saturating_sub(WARM_REQUESTS);
        if replayed >= WARM_REQUESTS
            && measured.is_multiple_of(2 * ORDERS)
            && measured >= 4 * ORDERS
            && start.elapsed() >= budget
        {
            break;
        }
        tracer.enabled = replayed < WARM_REQUESTS || (measured / ORDERS).is_multiple_of(2);
        let index = replayed % workload.requests.len();
        let order = replayed % ORDERS;
        let began = Instant::now();
        let sample = stack.replay(
            workload,
            index,
            &mut conns,
            &mut tracer,
            replayed as u32 + 1,
            order,
        )?;
        let took = us(began, Instant::now());
        if replayed >= WARM_REQUESTS {
            samples.push(Replayed {
                order,
                traced: tracer.enabled,
                took,
                sample,
            });
        }
        replayed += 1;
    }
    drop(conns);

    // Under load, untraced: the counters that only mean something there.
    let target = if workload.kind == Kind::Gateway {
        &gateway
    } else {
        &direct
    };
    let in_flight = workload.kind.in_flight();
    let warm = load::closed_loop(target, workload, in_flight, Duration::from_millis(500), &[]);
    if let Some(error) = warm.errors.first() {
        return Err(format!("warm-up: {error}"));
    }
    let wakeups_before = stack.loop_counter("wakeups")?;
    let coalesced_before = stack.loop_counter("coalesced")?;
    let pool_before = BufferPool::global().stats();
    let under = load::closed_loop(target, workload, in_flight, budget, &[]);
    let pool_after = BufferPool::global().stats();
    let under_load = under.completed.max(1) as f64;
    let wakeups = (stack.loop_counter("wakeups")? - wakeups_before) / under_load;
    let coalesced = (stack.loop_counter("coalesced")? - coalesced_before) / under_load;
    let acquires = (pool_after.acquires - pool_before.acquires).max(1) as f64;
    let reuse_per_acquire = (pool_after.reuses - pool_before.reuses) as f64 / acquires;
    let alloc_per_inv = (pool_after.allocations - pool_before.allocations) as f64 / under_load;

    // Self times are per-request differences between the replays of the
    // same request. Each metric is the mean over the replay orders of its
    // median in that order, so that an order effect cancels instead of
    // landing in a self time.
    let over_orders = |keep: &dyn Fn(&Replayed) -> bool, get: &dyn Fn(&Replayed) -> f64| {
        (0..ORDERS)
            .map(|order| {
                load::median(
                    samples
                        .iter()
                        .filter(|replayed| replayed.order == order && keep(replayed))
                        .map(get)
                        .collect(),
                )
            })
            .sum::<f64>()
            / ORDERS as f64
    };
    let field = |get: &dyn Fn(&Sample) -> f64| over_orders(&|_| true, &|r| get(&r.sample));
    let rtt = field(&|s| s.rtt);
    let server_self = field(&|s| s.rtt - s.decode - s.path - s.encode);
    let frontend_self = field(&|s| s.path - s.invoke);
    let dispatcher_self = field(&|s| s.invoke - s.stage_total());
    let decode = field(&|s| s.decode);
    let encode = field(&|s| s.encode);
    let services = field(&|s| s.services);
    let stages: Vec<f64> = (0..6).map(|slot| field(&|s| s.stages[slot])).collect();
    let ledger = server_self
        + decode
        + encode
        + frontend_self
        + dispatcher_self
        + stages.iter().sum::<f64>()
        + services;
    let coverage = ledger / rtt;
    // Each residual self time says by how much a replay is shorter than
    // the replay that encloses it; a replay that is longer than its
    // enclosing one by more than the tolerance makes the ledger wrong.
    let nesting = [
        ("server (rtt vs decode + frontend path + encode)", server_self),
        ("frontend (frontend path vs dispatcher.invoke)", frontend_self),
        ("dispatcher (dispatcher.invoke vs stages + services)", dispatcher_self),
    ];
    let overlong: Vec<&str> = nesting
        .iter()
        .filter(|(_, self_us)| *self_us < -LEDGER_TOLERANCE * rtt)
        .map(|(name, _)| *name)
        .collect();
    let traced_us = over_orders(&|r| r.traced, &|r| r.took);
    let untraced_us = over_orders(&|r| !r.traced, &|r| r.took);
    let overhead = traced_us / untraced_us - 1.0;

    let mut metrics: Vec<(String, JsonValue)> = Vec::new();
    let mut add =
        |name: &str, value: f64, unit: &str| metrics.push((name.to_string(), metric(value, unit)));
    add("server.rtt_us", rtt, "us");
    add("server.self_us", server_self, "us");
    add("server.wakeups_per_inv", wakeups, "count");
    add("server.coalesced_per_inv", coalesced, "count");
    add("http.decode_us", decode, "us");
    add("http.encode_us", encode, "us");
    add("frontend.begin_us", field(&|s| s.begin), "us");
    add("frontend.self_us", frontend_self, "us");
    add("dispatcher.submit_us", field(&|s| s.submit), "us");
    add("dispatcher.invoke_us", field(&|s| s.invoke), "us");
    add("dispatcher.self_us", dispatcher_self, "us");
    add(
        "engine.compute_tasks_per_inv",
        field(&|s| s.compute_tasks),
        "count",
    );
    add(
        "engine.comm_tasks_per_inv",
        field(&|s| s.comm_tasks),
        "count",
    );
    for (name, value) in STAGE_NAMES.iter().zip(&stages) {
        add(&format!("isolation.{name}_us"), *value, "us");
    }
    add("isolation.context_kib", field(&|s| s.context_kib), "KiB");
    // The composition's own dispatches where it makes any; the probe GET
    // (outside the ledger) where it makes none.
    let dispatch_us = if workload.kind == Kind::Chain {
        services
    } else {
        field(&|s| s.services_probe)
    };
    add("services.dispatch_us", dispatch_us, "us");
    add("pool.reuse_per_acquire", reuse_per_acquire, "ratio");
    add("pool.alloc_per_inv", alloc_per_inv, "count");
    add("gateway.rtt_us", field(&|s| s.gateway_rtt), "us");
    add("gateway.self_us", field(&|s| s.gateway_rtt - s.rtt), "us");

    // The layer ledger, on standard error for people.
    let checked = matches!(workload.kind, Kind::Tiny | Kind::Chain);
    let passes = overlong.is_empty() && (coverage - 1.0).abs() <= LEDGER_TOLERANCE;
    eprintln!(
        "traced run: {} ({} requests replayed five ways at concurrency 1)",
        args.kind.composition(),
        samples.len()
    );
    let mut rows = vec![
        ("server (socket, event loop)", server_self),
        ("http.decode", decode),
        ("frontend", frontend_self),
        ("dispatcher (hand-offs, queues, settle)", dispatcher_self),
    ];
    for (name, value) in STAGE_NAMES.iter().zip(&stages) {
        rows.push((name, *value));
    }
    rows.push(("services.dispatch", services));
    rows.push(("http.encode", encode));
    for (name, value) in rows {
        eprintln!("  {name:<40} {value:>10.2} us self");
    }
    // Per request the self times add up to the round trip by definition;
    // the sum of their medians differs from the median round trip only by
    // the spread of the replays.
    eprintln!(
        "  {:<40} {:>10.2} us (sum of medians {ledger:.2} us = {:.1}% of rtt)",
        "server.rtt",
        rtt,
        coverage * 100.0,
    );
    for (name, self_us) in &nesting {
        let verdict = if *self_us < -LEDGER_TOLERANCE * rtt {
            "FAILS"
        } else {
            "ok"
        };
        eprintln!(
            "  nesting {name:<56} {:>7.1}% of rtt  {verdict}",
            self_us / rtt * 100.0
        );
    }
    if checked {
        eprintln!(
            "  completeness check (every nesting within -{:.0}% of rtt, sum within {:.0}%): {}",
            LEDGER_TOLERANCE * 100.0,
            LEDGER_TOLERANCE * 100.0,
            if passes { "passes" } else { "FAILS" }
        );
    }
    eprintln!(
        "  tracing overhead: {:.2}% ({:.0} traced vs {:.0} untraced replays/s)",
        overhead * 100.0,
        1e6 / traced_us,
        1e6 / untraced_us
    );
    tracer
        .write(&args.spans)
        .map_err(|error| format!("write {}: {error}", args.spans))?;
    eprintln!("  {} spans written to {}", tracer.spans.len(), args.spans);

    let errors = &under.errors;
    let meta = JsonValue::object([
        (
            "workload",
            JsonValue::from(format!("{:?}", args.kind).to_lowercase()),
        ),
        ("seed", JsonValue::from(args.seed)),
        ("replayed_samples", JsonValue::from(samples.len())),
        ("ledger_sum_us", JsonValue::from(ledger)),
        ("ledger_coverage", JsonValue::from(coverage)),
        ("completeness_checked", JsonValue::from(checked)),
        ("completeness_passes", JsonValue::from(passes)),
        (
            "nesting_failures",
            JsonValue::array(overlong.iter().map(|name| JsonValue::from(*name))),
        ),
        ("traced_replay_us", JsonValue::from(traced_us)),
        ("untraced_replay_us", JsonValue::from(untraced_us)),
        ("tracing_overhead", JsonValue::from(overhead)),
        ("load_throughput_rps", JsonValue::from(under.throughput())),
        ("spans", JsonValue::from(tracer.spans.len())),
        (
            "host_cores",
            JsonValue::from(crate::procs::available_cores()),
        ),
        ("kernel", JsonValue::from(crate::procs::kernel_release())),
        ("revision", JsonValue::from(args.rev.as_str())),
        (
            "errors",
            JsonValue::array(errors.iter().map(|e| JsonValue::from(e.as_str()))),
        ),
    ]);
    println!("{}", JsonValue::object([("meta", meta)]).to_json_string());
    if checked && !passes {
        return Err(format!(
            "the completeness check fails on {}: see the ledger above",
            workload.kind.composition()
        ));
    }
    let replay_ops = (samples.len() + WARM_REQUESTS) as u64 * REPLAYS as u64;
    print_result(
        under.failed == 0 && under.wrong == 0,
        replay_ops + under.attempted,
        under.failed,
        metrics,
    );
    Ok(())
}
