//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run measures one workload (see `workload.rs`) on fresh
//! `ClusterConfig::paper_default` deployments. It pools a fixed number of
//! instances of the workload, each with its own names and cluster seed
//! derived from `--seed`, and repeats them until `--seconds` of host time
//! have passed. Each repetition runs in a child process (see `instance.rs`)
//! that builds its cluster, so set-up is timed on each. Simulated results
//! must repeat exactly when an instance repeats; host timings are medians
//! over all repetitions.
//!
//! With `--trace 0` it prints the end-to-end metrics. With `--trace 1` it
//! runs every instance once, then alternates traced and untraced
//! repetitions of instance 0, and prints the per-layer metrics after
//! checking that tracing changed no simulated result. Every repetition
//! checks each op's outcome against its allowed set and the final namespace
//! against the outcomes. The last line of standard output is one JSON
//! object; any violation also makes the exit code 1.

mod check;
mod drive;
mod host;
mod instance;
mod isolate;
mod trace;
mod workload;

use std::collections::HashMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use instance::Rep;
use workload::Kind;

#[global_allocator]
static ALLOC: host::Counting = host::Counting;

/// A percentile is reported only with at least this many samples above it.
const MIN_BEYOND: usize = 10;

/// Host times are reported in seconds of a reference machine on which
/// [`host::speed_probe_s`] takes this long (about what it takes on the
/// 2-vCPU container the baseline was recorded on): the medians of a run's
/// measured times are scaled by this over the median of its probe times.
/// On a shared machine the speed a process gets drifts by tens of percent
/// over minutes; the probe drifts with it, and the ratio holds still.
const PROBE_REFERENCE_S: f64 = 0.02;

fn flags() -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = flags.get(name).ok_or(format!("missing {name}"))?;
    v.parse().map_err(|e| format!("{name} {v}: {e}"))
}

fn bool_flag(flags: &HashMap<String, String>, name: &str) -> Result<bool, String> {
    match flag::<u8>(flags, name)? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(format!("{name} must be 0 or 1, not {v}")),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Runs one repetition in a child process of this binary.
fn child(args: &Args, instance: usize, traced: bool, isolate: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--instance", &instance.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .args(["--isolate", if isolate { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting instance {instance}: {e}"))?;
    if !out.status.success() {
        return Err(format!("instance {instance} exited with {}", out.status));
    }
    Rep::read(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("instance {instance}: {e}"))
}

fn reps(runs: &[(usize, Rep)]) -> Vec<&Rep> {
    runs.iter().map(|(_, r)| r).collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` of the latencies of the ops `keep` selects,
/// pooled over `reps`, in µs, with the number of samples above it — or the
/// sample count when fewer than [`MIN_BEYOND`] samples lie above it.
fn tail(reps: &[&Rep], q: f64, keep: impl Fn(Kind) -> bool) -> Result<(f64, usize), usize> {
    let mut lat: Vec<u64> = reps
        .iter()
        .flat_map(|r| &r.sim.done)
        .filter(|(kind, _, _)| keep(*kind))
        .map(|(_, lat, _)| *lat)
        .collect();
    lat.sort_unstable();
    let n = lat.len();
    // The epsilon keeps e.g. 0.999 × 10 000 from rounding up past 9 990.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return Err(n);
    }
    Ok((lat[rank - 1] as f64 / 1e3, n - rank))
}

#[derive(Default)]
struct Report {
    lines: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.lines.push(format!("{name:<34} {value:>14.4} {unit}"));
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A tail latency: the value and its sample counts, or 0 with a note
    /// when the run has too few samples for it.
    fn tail(&mut self, name: &str, t: Result<(f64, usize), usize>) {
        match t {
            Ok((v, beyond)) => {
                self.metric(name, v, "us");
                self.lines
                    .push(format!("{:<34} {beyond:>14} samples above", ""));
            }
            Err(n) => {
                self.metric(name, 0.0, "us");
                self.lines.push(format!(
                    "{:<34} {n:>14} samples: too few, not a measurement",
                    ""
                ));
            }
        }
    }

    fn json(&self, correct: bool, attempted: usize, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// End-to-end metrics. Simulated ones pool one repetition of each instance
/// (`pooled`); host times are medians over every repetition (`all`).
fn end_to_end(pooled: &[&Rep], all: &[&Rep], r: &mut Report) -> Result<(), String> {
    let ops: usize = pooled.iter().map(|x| x.sim.done.len()).sum();
    let elapsed_ns: u64 = pooled.iter().map(|x| x.sim.elapsed_ns).sum();
    let latency_ns: u64 = pooled
        .iter()
        .flat_map(|x| &x.sim.done)
        .map(|(_, lat, _)| lat)
        .sum();
    r.metric(
        "throughput_kops",
        ops as f64 / (elapsed_ns as f64 / 1e9) / 1e3,
        "Kops/s",
    );
    r.metric(
        "latency_mean_us",
        latency_ns as f64 / ops as f64 / 1e3,
        "us",
    );
    // The tail of the pool is set by its few worst instances and jumps from
    // seed to seed; the median over instances of each one's own p999 is the
    // tail a typical instance sees, and holds still.
    let mut p999 = Vec::with_capacity(pooled.len());
    let mut beyond = 0;
    for x in pooled {
        let (v, n) = tail(&[x], 0.999, |_| true)
            .map_err(|n| format!("latency_p999_us: {n} ops per instance are too few"))?;
        p999.push(v);
        beyond += n;
    }
    r.metric("latency_p999_us", median(p999), "us");
    r.lines.push(format!(
        "{:<34} {beyond:>14} samples above, median of {} instances",
        "",
        pooled.len()
    ));
    let probe = median(all.iter().map(|x| x.probe_s).collect());
    for (name, raw) in [
        ("host_s", median(all.iter().map(|x| x.host_s).collect())),
        ("setup_s", median(all.iter().map(|x| x.setup_s).collect())),
    ] {
        r.metric(name, raw / probe * PROBE_REFERENCE_S, "s");
        r.lines
            .push(format!("{:<34} {raw:>14.4} s on this machine", ""));
    }
    r.lines
        .push(format!("{:<34} {probe:>14.4} s speed probe", ""));
    r.metric(
        "peak_rss_mb",
        pooled.iter().map(|x| x.rss_mb).fold(0.0, f64::max),
        "MB",
    );
    Ok(())
}

/// Per-layer metrics. Counts and op-class tails pool one untraced
/// repetition of each instance (`pooled`); spans come from the traced
/// repetitions of instance 0, and the isolation timings from instance 0's
/// sizes. `first` holds every untraced repetition of instance 0.
fn per_layer(
    pooled: &[&Rep],
    first: &[&Rep],
    traced: &[&Rep],
    r: &mut Report,
) -> Result<(), String> {
    let (l, evicted) = traced[0]
        .layers
        .clone()
        .ok_or("traced repetition without a trace")?;
    let iso = first[0]
        .isolation
        .ok_or("repetition without isolation timings")?;
    let count = |name: &str| -> u64 { pooled.iter().map(|x| x.sim.count(name)).sum() };
    let ops = pooled.iter().map(|x| x.sim.done.len()).sum::<usize>() as f64;
    let per_op = |name: &str| count(name) as f64 / ops;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    // Spans and trace counts describe instance 0 alone.
    let traced_ops = traced[0].sim.done.len() as f64;

    r.metric(
        "client.retransmissions_per_op",
        per_op("client.retransmissions"),
        "count/op",
    );
    r.metric(
        "client.lookups_per_op",
        per_op("client.lookups"),
        "count/op",
    );
    r.metric("client.retry_wait_us", l.retry_wait.mean_us(), "us");
    r.metric("net.packets_per_op", per_op("net.delivered"), "count/op");
    r.metric("net.transit_us", l.transit.mean_us(), "us");
    r.metric("sim.polls_per_op", per_op("sim.polls"), "count/op");
    r.metric("sim.tasks_per_op", per_op("sim.tasks"), "count/op");
    for c in ["inserts", "queries", "removes", "multicast_copies"] {
        r.metric(
            &format!("switch.{c}_per_op"),
            per_op(&format!("switch.{c}")),
            "count/op",
        );
    }
    let overflow = ratio(count("switch.insert_overflows"), count("switch.inserts"));
    r.metric("switch.overflow_ratio", overflow, "ratio");
    r.metric("switch.host_ns_per_dirty_op", iso.dirty_per_op, "ns");
    r.metric(
        "server.entries_per_aggregation",
        ratio(l.aggregated_entries, l.fanouts),
        "count",
    );
    let compacted = ratio(
        count("server.entries_compacted_away"),
        count("server.entries_applied"),
    );
    r.metric("server.compacted_ratio", compacted, "ratio");
    r.metric("server.aggregation_us", l.aggregation.mean_us(), "us");
    r.metric(
        "server.pushes_per_op",
        per_op("server.pushes_sent"),
        "count/op",
    );
    r.metric(
        "server.remote_updates_per_op",
        per_op("server.remote_updates"),
        "count/op",
    );
    r.metric(
        "server.dup_requests_per_op",
        l.dup_requests as f64 / traced_ops,
        "count/op",
    );
    r.metric(
        "server.dispatch_to_durable_us",
        l.dispatch_to_durable.mean_us(),
        "us",
    );
    r.metric("server.txn_us", l.txn.mean_us(), "us");
    for c in ["gets", "puts", "deletes"] {
        r.metric(
            &format!("kv.{c}_per_op"),
            per_op(&format!("kv.{c}")),
            "count/op",
        );
    }
    r.metric("wal.appends_per_op", per_op("wal.appends"), "count/op");
    r.metric("wal.bytes_per_op", per_op("wal.bytes_appended"), "B/op");
    r.metric("wal.host_ns_per_record", iso.wal_per_record, "ns");
    r.lines
        .push(format!("{:<34} {:>14} records", "", iso.wal_records));
    r.metric("kv.host_ns_per_get", iso.kv_per_get, "ns");
    r.metric("kv.host_ns_per_put", iso.kv_per_put, "ns");
    r.lines.push(format!("{:<34} {:>14} keys", "", iso.kv_keys));
    let allocs: u64 = pooled.iter().map(|x| x.allocs).sum();
    let alloc_bytes: u64 = pooled.iter().map(|x| x.alloc_bytes).sum();
    r.metric("host.allocs_per_op", allocs as f64 / ops, "count/op");
    r.metric("host.alloc_bytes_per_op", alloc_bytes as f64 / ops, "B/op");
    r.metric(
        "obs.events_per_op",
        l.events as f64 / traced_ops,
        "count/op",
    );
    r.metric("obs.events_evicted", evicted as f64, "count");
    let host = |reps: &[&Rep]| median(reps.iter().map(|x| x.host_s).collect());
    r.metric("obs.trace_host_ratio", host(traced) / host(first), "ratio");
    r.tail("latency_p50_us", tail(pooled, 0.5, |_| true));
    r.tail("create_p99_us", tail(pooled, 0.99, |k| k == Kind::Create));
    r.tail("dirread_p99_us", tail(pooled, 0.99, Kind::is_dir_read));
    r.tail("rename_p99_us", tail(pooled, 0.99, |k| k == Kind::Rename));
    Ok(())
}

/// The child side: one repetition, reported on standard output.
fn run_child(flags: &HashMap<String, String>) -> Result<(), String> {
    let workload: String = flag(flags, "--workload")?;
    let rep = instance::run(
        &workload,
        flag(flags, "--seed")?,
        flag(flags, "--instance")?,
        bool_flag(flags, "--traced")?,
        bool_flag(flags, "--isolate")?,
    );
    print!("{}", rep.write());
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // (instance, repetition) in run order.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for i in 0..workload::INSTANCES {
        untraced.push((i, child(args, i, false, args.trace && i == 0)?));
    }
    // Then repeat until the time is up: traced and untraced runs of
    // instance 0 in turn with tracing, every instance in turn without.
    loop {
        if args.trace && traced.len() <= untraced.len() - workload::INSTANCES {
            traced.push((0, child(args, 0, true, false)?));
        } else if Instant::now() >= deadline {
            break;
        } else {
            let i = if args.trace {
                0
            } else {
                untraced.len() % workload::INSTANCES
            };
            untraced.push((i, child(args, i, false, false)?));
        }
    }
    // The first repetition of each instance: what the metrics describe.
    let pooled: Vec<&Rep> = reps(&untraced[..workload::INSTANCES]);

    let mut problems: Vec<String> = Vec::new();
    for (n, (i, x)) in untraced.iter().chain(&traced).enumerate() {
        problems.extend(
            x.problems
                .iter()
                .map(|p| format!("repetition {n} (instance {i}): {p}")),
        );
        if x.sim != pooled[*i].sim {
            problems.push(format!(
                "repetition {n}: simulated results differ from instance {i}'s first run"
            ));
        }
        if let Some((_, evicted)) = x.layers {
            if evicted > 0 {
                problems.push(format!(
                    "repetition {n}: the flight recorder evicted {evicted} events"
                ));
            }
        }
    }
    let mut report = Report::default();
    let metrics = if args.trace {
        let first: Vec<&Rep> = untraced
            .iter()
            .filter(|(i, _)| *i == 0)
            .map(|(_, r)| r)
            .collect();
        per_layer(&pooled, &first, &reps(&traced), &mut report)
    } else {
        end_to_end(&pooled, &reps(&untraced), &mut report)
    };
    if let Err(e) = metrics {
        problems.push(e);
    }

    let attempted: usize = pooled.iter().map(|x| x.sim.done.len()).sum();
    let failed: u64 = pooled.iter().map(|x| x.failed).sum();
    println!(
        "workload {} seed {}: {} instances, {attempted} ops, {} repetitions{}",
        args.workload,
        args.seed,
        workload::INSTANCES,
        untraced.len(),
        if args.trace {
            format!(" (+{} traced)", traced.len())
        } else {
            String::new()
        }
    );
    println!(
        "error_rate {:.6} ({failed} of {attempted} ops outside their allowed outcomes)",
        failed as f64 / attempted as f64
    );
    for line in &report.lines {
        println!("{line}");
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let correct = problems.is_empty();
    println!("{}", report.json(correct, attempted, failed));
    Ok(correct)
}

fn main() -> ExitCode {
    let flags = match flags() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if flags.contains_key("--instance") {
        return match run_child(&flags) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = (|| {
        Ok::<_, String>(Args {
            workload: flag(&flags, "--workload")?,
            seed: flag(&flags, "--seed")?,
            seconds: flag(&flags, "--seconds")?,
            trace: bool_flag(&flags, "--trace")?,
        })
    })();
    let args = match args {
        Ok(a) if workload::build(&a.workload, 0, 0).is_some() => a,
        Ok(a) => {
            eprintln!(
                "perfbench: unknown workload {}; known: {:?}",
                a.workload,
                workload::WORKLOADS
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
