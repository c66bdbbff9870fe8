//! The closed-loop load generator: one thread per keep-alive connection,
//! each keeping a fixed number of pipelined invocations in flight and
//! sending the next only when a response arrives. Threads block in the
//! kernel while they wait; nothing spins.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::client::Conn;
use crate::workload::Workload;

/// At most this many error messages are kept per run.
const KEPT_ERRORS: usize = 5;

#[derive(Default)]
pub struct LoadOutcome {
    /// `(completion, latency)` of every completed invocation, both in
    /// nanoseconds, the completion counted from the start of the loop.
    pub samples: Vec<(u64, u64)>,
    pub attempted: u64,
    pub completed: u64,
    /// Invocations that got no response or a wrong one.
    pub failed: u64,
    /// Responses that arrived but failed their check.
    pub wrong: u64,
    pub elapsed: Duration,
    pub errors: Vec<String>,
    /// Readings taken at each whole second of the loop (by the calling
    /// thread, after a response; the reading costs no thread).
    pub marks: Vec<Mark>,
}

/// What the host and the servers had spent at one instant of the loop.
#[derive(Clone, Copy)]
pub struct Mark {
    /// Nanoseconds from the start of the loop.
    pub at: u64,
    /// Host steal seconds so far (`steal` of `/proc/stat`).
    pub steal_s: f64,
    /// CPU microseconds spent so far by the watched server processes.
    pub server_cpu_us: f64,
}

impl LoadOutcome {
    fn merge(&mut self, other: LoadOutcome) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for error in other.errors {
            if self.errors.len() < KEPT_ERRORS {
                self.errors.push(error);
            }
        }
    }

    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64()
    }

    /// CPU seconds the hypervisor took from the machine during the loop.
    pub fn stolen_s(&self) -> f64 {
        match (self.marks.first(), self.marks.last()) {
            (Some(first), Some(last)) => last.steal_s - first.steal_s,
            _ => 0.0,
        }
    }
}

/// Connections the generator opens: at most one per core, so that the
/// generator never has more threads than the host has cores.
pub fn connections(in_flight: usize) -> usize {
    in_flight.min(2).min(crate::procs::available_cores()).max(1)
}

/// What every connection of one closed loop shares.
struct Plan<'a> {
    addr: &'a str,
    workload: &'a Workload,
    /// Server processes whose CPU time each mark reads.
    watch: &'a [u32],
    /// Connection `thread` sends requests `thread`, `thread + stride`, ...
    stride: usize,
    start: Instant,
    deadline: Instant,
}

/// Runs the closed loop against `addr` for `duration` with `in_flight`
/// invocations outstanding, then waits for the outstanding ones. The CPU
/// time of the `watch` processes is read with every mark.
pub fn closed_loop(
    addr: &str,
    workload: &Workload,
    in_flight: usize,
    duration: Duration,
    watch: &[u32],
) -> LoadOutcome {
    let conns = connections(in_flight);
    let start = Instant::now();
    let plan = Plan {
        addr,
        workload,
        watch,
        stride: conns,
        start,
        deadline: start + duration,
    };
    // Spread the in-flight invocations over the connections.
    let depth = |thread: usize| in_flight / conns + usize::from(thread < in_flight % conns);
    let mut total = LoadOutcome::default();
    std::thread::scope(|scope| {
        // Connection 0 is driven by the calling thread, so the generator
        // runs exactly one thread per connection.
        let plan = &plan;
        let others: Vec<_> = (1..conns)
            .map(|thread| scope.spawn(move || drive(plan, thread, depth(thread))))
            .collect();
        let mut own = drive(plan, 0, depth(0));
        total.marks = std::mem::take(&mut own.marks);
        total.merge(own);
        for other in others {
            total.merge(other.join().expect("load thread panicked"));
        }
    });
    total.elapsed = start.elapsed();
    total
}

fn drive(plan: &Plan, thread: usize, depth: usize) -> LoadOutcome {
    let (workload, deadline) = (plan.workload, plan.deadline);
    let since_start = |at: Instant| at.duration_since(plan.start).as_nanos() as u64;
    let mut outcome = LoadOutcome::default();
    let mut conn = match Conn::connect(plan.addr) {
        Ok(conn) => conn,
        Err(error) => {
            outcome
                .errors
                .push(format!("connect {}: {error}", plan.addr));
            return outcome;
        }
    };
    let pool = workload.requests.len();
    let mut next = thread;
    let mut outstanding = VecDeque::with_capacity(depth);
    for _ in 0..depth {
        let index = next % pool;
        next += plan.stride;
        outcome.attempted += 1;
        let sent = Instant::now();
        if let Err(error) = conn.send(&workload.requests[index].wire) {
            outcome.failed += 1 + outstanding.len() as u64;
            outcome.errors.push(format!("send: {error}"));
            return outcome;
        }
        outstanding.push_back((index, sent));
    }
    // The first connection takes a mark once per second.
    let mut next_mark = if thread == 0 { 0 } else { u64::MAX };
    let mut mark = |outcome: &mut LoadOutcome, at: u64| {
        if at >= next_mark.saturating_mul(1_000_000_000) {
            let server_cpu_us = plan
                .watch
                .iter()
                .map(|pid| crate::procs::cpu_us(&pid.to_string()))
                .sum::<std::io::Result<f64>>();
            if let (Ok(steal_s), Ok(server_cpu_us)) = (crate::procs::steal_s(), server_cpu_us) {
                outcome.marks.push(Mark {
                    at,
                    steal_s,
                    server_cpu_us,
                });
            }
            next_mark = at / 1_000_000_000 + 1;
        }
    };
    mark(&mut outcome, 0);
    while let Some((index, sent)) = outstanding.pop_front() {
        let received = conn.receive();
        let done = Instant::now();
        let checked = received
            .map(|response| workload.check(index, response.status, response.node, response.body));
        mark(&mut outcome, since_start(done));
        match checked {
            Ok(Ok(())) => {
                outcome.completed += 1;
                outcome.samples.push((
                    since_start(done),
                    done.duration_since(sent).as_nanos() as u64,
                ));
            }
            Ok(Err(problem)) => {
                outcome.failed += 1;
                outcome.wrong += 1;
                if outcome.errors.len() < KEPT_ERRORS {
                    outcome.errors.push(problem);
                }
            }
            Err(error) => {
                outcome.failed += 1 + outstanding.len() as u64;
                outcome.errors.push(format!("receive: {error}"));
                return outcome;
            }
        }
        if done < deadline {
            let index = next % pool;
            next += plan.stride;
            outcome.attempted += 1;
            let sent = Instant::now();
            if let Err(error) = conn.send(&workload.requests[index].wire) {
                outcome.failed += 1 + outstanding.len() as u64;
                outcome.errors.push(format!("send: {error}"));
                return outcome;
            }
            outstanding.push_back((index, sent));
        }
    }
    outcome
}

/// The `q`-quantile (0..=1) of sorted nanosecond samples, in milliseconds.
fn quantile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted_ns.len() as f64 * q).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6
}

pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Latency samples a window needs so that ten lie beyond its p99.
const SAMPLES_PER_P99: usize = 1000;
/// A second is calm when the hypervisor took less than one clock tick
/// (10 ms) of CPU from the machine during it.
pub const CALM_STOLEN_S: f64 = 0.01;

/// The run's end-to-end timings, taken over one-second windows of the
/// measured interval: from one mark to the next. On a shared host the
/// hypervisor takes CPU from this machine in bursts of a few seconds
/// (`steal` in `/proc/stat`); one 10 ms pause of a CPU moves the p99 of a
/// whole second of tiny invocations, and a burst moves the server CPU spent
/// per invocation too. So the windows used are the calm seconds, joined in
/// order of least steal by as many more as it takes to hold a quarter of the
/// windows and [`SAMPLES_PER_P99`] samples; the run reports how many it used
/// and how much was stolen.
pub struct Summary {
    /// Median over the windows used of each window's completion rate.
    pub throughput_rps: f64,
    /// Percentiles over the latencies of every window used.
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    /// Server CPU over the windows used, per invocation completed in them.
    pub cpu_us_per_inv: f64,
    pub windows: usize,
    pub windows_used: usize,
    /// Steal over the whole measured interval, as a share of CPU time.
    pub steal_share: f64,
    pub samples: usize,
}

/// One second of the measured loop, between two marks.
struct Second {
    /// CPU seconds stolen from the machine during the second.
    stolen_s: f64,
    /// Server CPU microseconds spent during the second.
    server_cpu_us: f64,
    /// Completions per second inside it.
    rate: f64,
    /// Latencies, in nanoseconds, of the invocations completed inside it.
    samples: Vec<u64>,
}

pub fn summarize(outcome: &LoadOutcome, seconds: u64) -> Summary {
    let span_ns = seconds * 1_000_000_000;
    let mut completions: Vec<(u64, u64)> = outcome.samples.clone();
    completions.sort_unstable();
    let mut windows: Vec<Second> = outcome
        .marks
        .windows(2)
        .filter(|pair| pair[0].at < span_ns)
        .map(|pair| {
            let (from, to) = (pair[0], pair[1]);
            let lo = completions.partition_point(|(done, _)| *done < from.at);
            let hi = completions.partition_point(|(done, _)| *done < to.at);
            Second {
                stolen_s: to.steal_s - from.steal_s,
                server_cpu_us: to.server_cpu_us - from.server_cpu_us,
                rate: (hi - lo) as f64 * 1e9 / (to.at - from.at) as f64,
                samples: completions[lo..hi].iter().map(|(_, latency)| *latency).collect(),
            }
        })
        .collect();
    windows.sort_by(|a, b| a.stolen_s.total_cmp(&b.stolen_s));
    let (mut used, mut pooled) = (0, 0);
    for window in &windows {
        let calm = window.stolen_s < CALM_STOLEN_S;
        if !calm && used >= windows.len().div_ceil(4) && pooled >= SAMPLES_PER_P99 {
            break;
        }
        used += 1;
        pooled += window.samples.len();
    }
    let chosen = &windows[..used];
    let mut latencies: Vec<u64> = chosen
        .iter()
        .flat_map(|window| window.samples.iter().copied())
        .collect();
    latencies.sort_unstable();
    let server_cpu_us: f64 = chosen.iter().map(|window| window.server_cpu_us).sum();
    Summary {
        throughput_rps: median(chosen.iter().map(|window| window.rate).collect()),
        p50_ms: quantile_ms(&latencies, 0.50),
        p90_ms: quantile_ms(&latencies, 0.90),
        p99_ms: quantile_ms(&latencies, 0.99),
        cpu_us_per_inv: server_cpu_us / latencies.len().max(1) as f64,
        windows: windows.len(),
        windows_used: used,
        steal_share: outcome.stolen_s()
            / (outcome.elapsed.as_secs_f64() * crate::procs::available_cores() as f64),
        samples: latencies.len(),
    }
}
