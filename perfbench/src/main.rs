//! End-to-end and per-layer benchmark of `dandelion-serve` (see README.md).
//!
//! ```text
//! perfbench load  --serve PATH --workload W --seed N --seconds S [--rev R]
//! perfbench trace --workload W --seed N --seconds S --spans PATH [--rev R]
//! perfbench selftest
//! ```
//!
//! `load` starts fresh `dandelion-serve` processes and drives them over
//! loopback; `trace` runs the traced in-process replay. Both print one
//! metadata line and, last, the result object.

mod client;
mod load;
mod png;
mod procs;
mod trace;
mod workload;

use std::process::exit;
use std::time::{Duration, Instant};

use dandelion_common::JsonValue;

use crate::client::Conn;
use crate::procs::ServerProc;
use crate::workload::{Kind, Workload};

/// Fresh server sets started per run to time set-up; the last one serves
/// the measured load.
const SETUPS_PER_RUN: usize = 5;
/// Closed-loop load before measuring runs in slices of this length, so
/// caches fill and lazy set-up ends.
const WARMUP_SLICE: Duration = Duration::from_secs(1);
/// Warm-up continues until the server has completed this many
/// invocations: the dispatcher retains the results of the last 1024
/// (`completed_retention`), so memory has reached its plateau before the
/// measured interval, whatever the throughput.
const WARM_INVOCATIONS: u64 = 1024 + 64;
/// Warm-up slices spent at most waiting for a calm host (see
/// `load::Summary`): a burst of steal that would cover the whole measured
/// interval is mostly waited out instead of measured.
const CALM_WAIT_SLICES: u64 = 4;
/// Warm-up slices at most, so that a slow server still ends the run.
const MAX_WARMUP_SLICES: u64 = 90;

/// Flags every worker process gets, so it has the same shape on any host.
const MEMBER_FLAGS: [&str; 6] = [
    "--addr",
    "127.0.0.1:0",
    "--cores",
    "2",
    "--event-loops",
    "1",
];
const GATEWAY_FLAGS: [&str; 5] = ["--gateway", "--addr", "127.0.0.1:0", "--event-loops", "1"];

pub struct Args {
    mode: String,
    kind: Kind,
    seed: u64,
    seconds: u64,
    serve: String,
    spans: String,
    rev: String,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench load|trace|selftest --workload tiny|chain|bulk|gateway \
         --seed N --seconds S [--serve PATH] [--spans PATH] [--rev R]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut raw = std::env::args().skip(1);
    let mode = raw.next().unwrap_or_else(|| usage("missing mode"));
    let mut args = Args {
        mode,
        kind: Kind::Tiny,
        seed: 1,
        seconds: 10,
        serve: String::new(),
        spans: String::new(),
        rev: "unknown".into(),
    };
    while let Some(flag) = raw.next() {
        let value = raw
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag} expects a number")))
        };
        match flag.as_str() {
            "--workload" => {
                args.kind = Kind::parse(&value)
                    .unwrap_or_else(|| usage(&format!("unknown workload `{value}`")))
            }
            "--seed" => args.seed = number(),
            "--seconds" => args.seconds = number().max(1),
            "--serve" => args.serve = value,
            "--spans" => args.spans = value,
            "--rev" => args.rev = value,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args
}

/// One `{"value": .., "unit": ..}` metric entry.
pub fn metric(value: f64, unit: &str) -> JsonValue {
    JsonValue::object([
        ("value", JsonValue::from(value)),
        ("unit", JsonValue::from(unit)),
    ])
}

/// Prints the result object as the last line of standard output.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, JsonValue)>) {
    let result = JsonValue::object([
        ("correct", JsonValue::from(correct)),
        ("attempted", JsonValue::from(attempted.max(1))),
        ("failed", JsonValue::from(failed)),
        ("metrics", JsonValue::Object(metrics)),
    ]);
    println!("{}", result.to_json_string());
}

/// `GET` on a fresh connection, parsed as JSON.
pub fn get_json(addr: &str, path: &str) -> Result<JsonValue, String> {
    let mut conn = Conn::connect(addr).map_err(|error| format!("connect {addr}: {error}"))?;
    let wire = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
    let response = conn
        .round_trip(wire.as_bytes())
        .map_err(|error| format!("GET {path}: {error}"))?;
    let text = std::str::from_utf8(response.body).map_err(|_| format!("{path}: not UTF-8"))?;
    JsonValue::parse(text)
}

/// Per-loop `connections` of a server's `/v1/stats` (placement must be
/// visible in every run).
fn loop_connections(stats: &JsonValue) -> JsonValue {
    let loops = stats
        .get("server")
        .and_then(|server| server.get("loops"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    JsonValue::array(loops.iter().map(|entry| {
        JsonValue::from(
            entry
                .get("connections")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
        )
    }))
}

/// The processes of one server set: a standalone worker, or two members
/// behind a gateway. Requests go to the last one.
struct Cluster {
    procs: Vec<ServerProc>,
}

impl Cluster {
    fn start(serve: &str, kind: Kind) -> Result<Cluster, String> {
        let spawn = |args: &[&str]| {
            ServerProc::spawn(serve, args).map_err(|error| format!("spawn {serve}: {error}"))
        };
        if kind != Kind::Gateway {
            return Ok(Cluster {
                procs: vec![spawn(&MEMBER_FLAGS)?],
            });
        }
        let first = spawn(&MEMBER_FLAGS)?;
        let second = spawn(&MEMBER_FLAGS)?;
        let mut flags = GATEWAY_FLAGS.to_vec();
        flags.extend([
            "--member",
            first.addr.as_str(),
            "--member",
            second.addr.as_str(),
        ]);
        let gateway = spawn(&flags)?;
        Ok(Cluster {
            procs: vec![first, second, gateway],
        })
    }

    fn front(&self) -> &str {
        &self.procs.last().expect("a cluster has a process").addr
    }
}

/// Starts a server set and sends it request 0, which must be answered
/// correctly; returns the set and the seconds from spawn to that response.
fn set_up(args: &Args, workload: &mut Workload) -> Result<(Cluster, f64), String> {
    let start = Instant::now();
    let cluster = Cluster::start(&args.serve, args.kind)?;
    if args.kind == Kind::Gateway {
        let members = get_json(cluster.front(), "/v1/cluster/members")?;
        workload.members = members
            .get("members")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|member| member.get("node").and_then(JsonValue::as_str))
            .map(str::to_string)
            .collect();
    }
    let mut conn = Conn::connect(cluster.front()).map_err(|error| format!("connect: {error}"))?;
    let response = conn
        .round_trip(&workload.requests[0].wire)
        .map_err(|error| format!("first request: {error}"))?;
    workload.check(0, response.status, response.node, response.body)?;
    Ok((cluster, start.elapsed().as_secs_f64()))
}

fn run_load(args: &Args) -> Result<(), String> {
    let mut workload = Workload::generate(args.kind, args.seed);
    let mut setups = Vec::with_capacity(SETUPS_PER_RUN);
    let mut cluster = None;
    for _ in 0..SETUPS_PER_RUN {
        // The previous set is killed and reaped before the next starts.
        drop(cluster.take());
        let (fresh, seconds) = set_up(args, &mut workload)?;
        setups.push(seconds);
        cluster = Some(fresh);
    }
    let cluster = cluster.expect("at least one set-up");
    let in_flight = args.kind.in_flight();
    let (mut warm_completed, mut slices, mut calm_waits) = (1, 0, 0);
    loop {
        let slice = load::closed_loop(cluster.front(), &workload, in_flight, WARMUP_SLICE, &[]);
        if let Some(error) = slice.errors.first() {
            return Err(format!("warm-up: {error}"));
        }
        warm_completed += slice.completed;
        slices += 1;
        if warm_completed < WARM_INVOCATIONS && slices < MAX_WARMUP_SLICES {
            continue;
        }
        if slice.stolen_s() < load::CALM_STOLEN_S || calm_waits == CALM_WAIT_SLICES {
            break;
        }
        calm_waits += 1;
    }

    let pids: Vec<u32> = cluster.procs.iter().map(ServerProc::pid).collect();
    let own_before = procs::cpu_us("self").map_err(|error| error.to_string())?;
    let outcome = load::closed_loop(
        cluster.front(),
        &workload,
        in_flight,
        Duration::from_secs(args.seconds),
        &pids,
    );
    let own_after = procs::cpu_us("self").map_err(|error| error.to_string())?;

    let mut rss_kib = 0;
    let mut placement = Vec::new();
    for proc in &cluster.procs {
        rss_kib += procs::peak_rss_kib(proc.pid()).map_err(|error| error.to_string())?;
        placement.push(loop_connections(&get_json(&proc.addr, "/v1/stats")?));
    }
    drop(cluster);

    let summary = load::summarize(&outcome, args.seconds);
    let metrics = vec![
        (
            "throughput_rps".to_string(),
            metric(summary.throughput_rps, "1/s"),
        ),
        ("p50_ms".to_string(), metric(summary.p50_ms, "ms")),
        ("p90_ms".to_string(), metric(summary.p90_ms, "ms")),
        (
            "cpu_us_per_inv".to_string(),
            metric(summary.cpu_us_per_inv, "us"),
        ),
        (
            "rss_peak_mib".to_string(),
            metric(rss_kib as f64 / 1024.0, "MiB"),
        ),
        (
            "setup_s".to_string(),
            metric(load::median(setups.clone()), "s"),
        ),
    ];
    let meta = JsonValue::object([
        (
            "workload",
            JsonValue::from(format!("{:?}", args.kind).to_lowercase()),
        ),
        ("seed", JsonValue::from(args.seed)),
        ("seconds", JsonValue::from(args.seconds)),
        ("in_flight", JsonValue::from(in_flight)),
        ("connections", JsonValue::from(load::connections(in_flight))),
        ("samples", JsonValue::from(summary.samples)),
        // Reported but not a metric: on the reference host a few stalls of
        // the hypervisor move it by 20-40% between identical runs.
        ("p99_ms", JsonValue::from(summary.p99_ms)),
        ("windows", JsonValue::from(summary.windows)),
        ("windows_used", JsonValue::from(summary.windows_used)),
        ("completed", JsonValue::from(outcome.completed)),
        ("mean_throughput_rps", JsonValue::from(outcome.throughput())),
        ("warmup_completed", JsonValue::from(warm_completed)),
        ("warmup_calm_waits", JsonValue::from(calm_waits)),
        (
            "setup_samples_s",
            JsonValue::array(setups.iter().map(|s| JsonValue::from(*s))),
        ),
        (
            "generator_cpu_s",
            JsonValue::from((own_after - own_before) / 1e6),
        ),
        ("loop_connections", JsonValue::array(placement)),
        ("host_cores", JsonValue::from(procs::available_cores())),
        // CPU the hypervisor gave other machines while this run waited.
        ("host_steal_share", JsonValue::from(summary.steal_share)),
        ("kernel", JsonValue::from(procs::kernel_release())),
        ("revision", JsonValue::from(args.rev.as_str())),
        (
            "errors",
            JsonValue::array(outcome.errors.iter().map(|e| JsonValue::from(e.as_str()))),
        ),
    ]);
    println!("{}", JsonValue::object([("meta", meta)]).to_json_string());
    // A lost connection or a wrong response makes the run incorrect: the
    // metrics of the connections that survived would not say so.
    print_result(
        outcome.failed == 0 && outcome.wrong == 0,
        outcome.attempted,
        outcome.failed,
        metrics,
    );
    Ok(())
}

fn main() {
    let args = parse_args();
    if let Err(problem) = workload::self_test() {
        eprintln!("perfbench: {problem}");
        exit(1);
    }
    let result = match args.mode.as_str() {
        "selftest" => {
            eprintln!("perfbench: every checker rejects its corrupted responses");
            Ok(())
        }
        "load" if !args.serve.is_empty() => run_load(&args),
        "trace" if !args.spans.is_empty() => trace::run(&args),
        "load" => usage("load needs --serve"),
        "trace" => usage("trace needs --spans"),
        other => usage(&format!("unknown mode `{other}`")),
    };
    if let Err(problem) = result {
        eprintln!("perfbench: {problem}");
        exit(1);
    }
}
