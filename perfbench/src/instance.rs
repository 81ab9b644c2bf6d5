//! One repetition of one workload instance, run in a child process of its
//! own: a cluster's tasks hold reference cycles, so a dropped cluster keeps
//! its memory, and running instances back to back in one process would grow
//! the heap by the size of every cluster built. The child prints what it
//! measured as plain `key value…` lines; the parent parses them back.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use switchfs_core::{Cluster, ClusterConfig};
use switchfs_obs::MetricValue;
use switchfs_proto::Fingerprint;

use crate::drive::{self, Outcome};
use crate::trace::{Layers, Span};
use crate::workload::{self, Kind};
use crate::{check, host, isolate};

/// The simulated outcome of a repetition: everything that must repeat
/// exactly when an instance repeats, with tracing on or off.
#[derive(Debug, Default, PartialEq)]
pub struct Sim {
    /// Per op, in op order: kind, virtual latency and outcome.
    pub done: Vec<(Kind, u64, String)>,
    pub elapsed_ns: u64,
    /// Protocol counters (`metrics_snapshot` deltas over the measured run,
    /// without the `obs.*` rows), plus executor polls and task spawns.
    pub counters: BTreeMap<String, u64>,
}

impl Sim {
    pub fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Host cost of single layers timed alone (see `isolate.rs`), in ns.
#[derive(Debug, Default, Clone, Copy)]
pub struct Isolation {
    /// The record count and store size they were timed at: the largest
    /// per-server WAL and inode store of the run.
    pub wal_records: u64,
    pub kv_keys: u64,
    pub wal_per_record: f64,
    pub kv_per_get: f64,
    pub kv_per_put: f64,
    pub dirty_per_op: f64,
}

/// Everything one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub host_s: f64,
    /// Host seconds of [`host::speed_probe_s`], run after the measured run.
    pub probe_s: f64,
    pub sim: Sim,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Peak RSS of the child process.
    pub rss_mb: f64,
    /// Ops outside their allowed outcomes.
    pub failed: u64,
    pub problems: Vec<String>,
    /// Traced repetitions: the dump's layers and the recorder's evictions.
    pub layers: Option<(Layers, u64)>,
    pub isolation: Option<Isolation>,
}

fn counters(cluster: &Cluster) -> BTreeMap<String, u64> {
    let stats = cluster.sim.run_until(cluster.sim.now());
    let mut out: BTreeMap<String, u64> = cluster
        .metrics_snapshot()
        .snapshot()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("obs."))
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(c) => Some((name, c)),
            _ => None,
        })
        .collect();
    out.insert("sim.polls".into(), stats.polls);
    out.insert("sim.tasks".into(), stats.tasks_spawned);
    out
}

fn outcome_token(o: Outcome) -> String {
    match o {
        Outcome::Ok(None) => "ok".into(),
        Outcome::Ok(Some(n)) => format!("ok={n}"),
        Outcome::Err(e) => format!("{e:?}"),
    }
}

/// Runs instance `instance` of `name` once and measures it. `traced` turns
/// on the flight recorder; `isolate` also times the layers alone at this
/// run's sizes.
pub fn run(name: &str, seed: u64, instance: usize, traced: bool, isolate: bool) -> Rep {
    let t0 = Instant::now();
    let inputs = Rc::new(workload::build(name, seed, instance).expect("known workload"));
    let mut cfg = ClusterConfig::paper_default(inputs.system);
    cfg.seed = inputs.seed;
    // Per-node rings that never evict: the analysis needs every event.
    cfg.trace_capacity = traced.then_some(usize::MAX);
    let mut cluster = Cluster::new(cfg);
    for d in &inputs.dirs {
        cluster.preload_dir(d);
        cluster.preload_files(d, &inputs.file_prefix, inputs.files_per_dir);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let before = counters(&cluster);
    let (a0, b0) = host::counts();
    let t1 = Instant::now();
    let run = drive::run(&cluster, &inputs);
    let host_s = t1.elapsed().as_secs_f64();
    let probe_s = host::speed_probe_s();
    let (a1, b1) = host::counts();
    let after = counters(&cluster);

    let dirs: Vec<_> = inputs
        .dirs
        .iter()
        .map(|d| cluster.preloaded_dirs[d].clone())
        .collect();
    let fps: Vec<Fingerprint> = dirs
        .iter()
        .map(|(key, _)| Fingerprint::of_dir(&key.pid, &key.name))
        .collect();
    let layers = traced.then(|| {
        let dir_fp: HashMap<u64, u64> = dirs
            .iter()
            .zip(&fps)
            .map(|((_, id), fp)| (id.hash64(), fp.raw()))
            .collect();
        let recorder = cluster.obs();
        let recorder = recorder.recorder();
        (
            crate::trace::layers(&recorder.dump(), &dir_fp),
            recorder.evicted(),
        )
    });

    let mut problems = Vec::new();
    let failed = check::outcome_errors(&inputs, &run.done, &mut problems);
    if let Err(e) = check::namespace(&cluster, &inputs, &run.done) {
        problems.push(format!("namespace check: {e}"));
    }
    let sim = Sim {
        done: inputs
            .ops
            .iter()
            .zip(&run.done)
            .map(|(op, d)| (op.kind, d.latency_ns, outcome_token(d.outcome)))
            .collect(),
        elapsed_ns: run.elapsed_ns,
        counters: after
            .iter()
            .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
            .collect(),
    };

    let isolation = isolate.then(|| {
        let wal_records = (0..cluster.servers().len())
            .map(|i| cluster.durable_state(i).borrow().wal.appends() as usize)
            .max()
            .unwrap_or(0);
        let kv_keys = cluster
            .servers()
            .iter()
            .map(|s| s.inode_count())
            .max()
            .unwrap_or(0);
        drop(cluster);
        let mut rng = workload::Rng::new(seed);
        let (kv_per_get, kv_per_put) = isolate::kv_ns_per_get_put(kv_keys, &mut rng);
        Isolation {
            wal_records: wal_records as u64,
            kv_keys: kv_keys as u64,
            wal_per_record: isolate::wal_ns_per_record(wal_records),
            kv_per_get,
            kv_per_put,
            dirty_per_op: isolate::dirty_ns_per_op(
                sim.count("switch.inserts"),
                sim.count("switch.queries"),
                sim.count("switch.removes"),
                &fps,
                &mut rng,
            ),
        }
    });

    Rep {
        setup_s,
        host_s,
        probe_s,
        sim,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
        rss_mb: host::peak_rss_mb(),
        failed,
        problems,
        layers,
        isolation,
    }
}

const SPANS: [&str; 5] = [
    "retry_wait",
    "transit",
    "dispatch_to_durable",
    "txn",
    "aggregation",
];

fn spans(l: &mut Layers) -> [&mut Span; 5] {
    [
        &mut l.retry_wait,
        &mut l.transit,
        &mut l.dispatch_to_durable,
        &mut l.txn,
        &mut l.aggregation,
    ]
}

impl Rep {
    /// The child's report, one `key value…` line per field.
    pub fn write(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "setup_s {}\nhost_s {}", self.setup_s, self.host_s);
        let _ = writeln!(s, "probe_s {}", self.probe_s);
        let _ = writeln!(
            s,
            "allocs {} {}\nrss_mb {}",
            self.allocs, self.alloc_bytes, self.rss_mb
        );
        let _ = writeln!(
            s,
            "elapsed_ns {}\nfailed {}",
            self.sim.elapsed_ns, self.failed
        );
        for (name, v) in &self.sim.counters {
            let _ = writeln!(s, "counter {name} {v}");
        }
        if let Some((mut l, evicted)) = self.layers.clone() {
            for (name, span) in SPANS.iter().zip(spans(&mut l)) {
                let _ = writeln!(s, "span {name} {} {}", span.total_ns, span.count);
            }
            let _ = writeln!(
                s,
                "layer_counts {} {} {} {} {evicted}",
                l.aggregated_entries, l.fanouts, l.dup_requests, l.events
            );
        }
        if let Some(i) = self.isolation {
            let _ = writeln!(
                s,
                "isolation {} {} {} {} {} {}",
                i.wal_records,
                i.kv_keys,
                i.wal_per_record,
                i.kv_per_get,
                i.kv_per_put,
                i.dirty_per_op
            );
        }
        for p in &self.problems {
            let _ = writeln!(s, "problem {}", p.replace('\n', " "));
        }
        s.push_str("done");
        for (kind, lat, outcome) in &self.sim.done {
            let _ = write!(s, " {}:{lat}:{outcome}", *kind as u8);
        }
        s.push('\n');
        s
    }

    /// Parses [`Rep::write`]'s output.
    pub fn read(text: &str) -> Result<Rep, String> {
        let mut r = Rep::default();
        let num = |v: Option<&str>| -> Result<f64, String> {
            v.ok_or("missing value")?
                .parse::<f64>()
                .map_err(|e| e.to_string())
        };
        let int = |v: Option<&str>| -> Result<u64, String> {
            v.ok_or("missing value")?
                .parse::<u64>()
                .map_err(|e| e.to_string())
        };
        let mut layers = Layers::default();
        let mut traced = None;
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let mut f = rest.split(' ');
            match key {
                "setup_s" => r.setup_s = num(f.next())?,
                "host_s" => r.host_s = num(f.next())?,
                "probe_s" => r.probe_s = num(f.next())?,
                "allocs" => (r.allocs, r.alloc_bytes) = (int(f.next())?, int(f.next())?),
                "rss_mb" => r.rss_mb = num(f.next())?,
                "elapsed_ns" => r.sim.elapsed_ns = int(f.next())?,
                "failed" => r.failed = int(f.next())?,
                "counter" => {
                    let name = f.next().ok_or("counter without a name")?.to_string();
                    r.sim.counters.insert(name, int(f.next())?);
                }
                "span" => {
                    let name = f.next().ok_or("span without a name")?;
                    let i = SPANS
                        .iter()
                        .position(|s| *s == name)
                        .ok_or(format!("unknown span {name}"))?;
                    *spans(&mut layers)[i] = Span {
                        total_ns: int(f.next())?,
                        count: int(f.next())?,
                    };
                }
                "layer_counts" => {
                    layers.aggregated_entries = int(f.next())?;
                    layers.fanouts = int(f.next())?;
                    layers.dup_requests = int(f.next())?;
                    layers.events = int(f.next())?;
                    traced = Some(int(f.next())?);
                }
                "isolation" => {
                    r.isolation = Some(Isolation {
                        wal_records: int(f.next())?,
                        kv_keys: int(f.next())?,
                        wal_per_record: num(f.next())?,
                        kv_per_get: num(f.next())?,
                        kv_per_put: num(f.next())?,
                        dirty_per_op: num(f.next())?,
                    })
                }
                "problem" => r.problems.push(rest.to_string()),
                "done" => {
                    for op in f.filter(|t| !t.is_empty()) {
                        let mut p = op.splitn(3, ':');
                        let kind = int(p.next())? as usize;
                        let kind = *workload::KINDS
                            .get(kind)
                            .ok_or(format!("bad kind {kind}"))?;
                        r.sim.done.push((
                            kind,
                            int(p.next())?,
                            p.next().ok_or("op without outcome")?.to_string(),
                        ));
                    }
                }
                _ => return Err(format!("unexpected line: {line}")),
            }
        }
        r.layers = traced.map(|evicted| (layers, evicted));
        if r.sim.done.is_empty() {
            return Err("no ops reported".into());
        }
        Ok(r)
    }
}
