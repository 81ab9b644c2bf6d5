//! The four workloads: namespace to preload, the ops to issue, and for every
//! op the outcomes it is allowed to have.
//!
//! Inputs are a pure function of the workload name and the seed. The seed
//! picks the op mix draws and also salts every file name, so placement (and
//! with it every simulated number) differs from seed to seed while the same
//! seed always replays the same run.

use std::ops::Range;

use switchfs_core::SystemKind;

/// A metadata operation kind the benchmark issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Create,
    Delete,
    Rename,
    Stat,
    Open,
    Close,
    Chmod,
    Statdir,
    Readdir,
}

/// Every kind, indexed by its discriminant.
pub const KINDS: [Kind; 9] = [
    Kind::Create,
    Kind::Delete,
    Kind::Rename,
    Kind::Stat,
    Kind::Open,
    Kind::Close,
    Kind::Chmod,
    Kind::Statdir,
    Kind::Readdir,
];

impl Kind {
    pub fn is_dir_read(self) -> bool {
        matches!(self, Kind::Statdir | Kind::Readdir)
    }
}

/// The outcomes an op may return without counting as an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allowed {
    Ok,
    /// The op races other ops on a shared name: `Ok` or `NotFound`.
    OkOrNotFound,
}

/// One op of a workload.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    /// Directory index of the target (the source, for a rename).
    pub dir: u32,
    pub path: String,
    /// Rename destination: directory index and path.
    pub dst: Option<(u32, String)>,
    pub allowed: Allowed,
    /// For a directory read that no other op races: the entry count it
    /// must report.
    pub expect_size: Option<u64>,
}

impl Op {
    fn new(kind: Kind, dir: u32, path: String, allowed: Allowed) -> Op {
        Op {
            kind,
            dir,
            path,
            dst: None,
            allowed,
            expect_size: None,
        }
    }
}

/// How the ops are issued. Both plans are closed loops: a worker issues its
/// next op only when the previous one completed.
#[derive(Debug, Clone)]
pub enum Plan {
    /// `in_flight` workers take ops in order from one shared queue.
    Flat { in_flight: usize },
    /// Independent streams of bursts. A burst is a range of ops: creates,
    /// issued `width` at a time, then one directory read as its last op,
    /// issued after every create of the burst completed.
    Bursts {
        streams: Vec<Vec<Range<usize>>>,
        width: usize,
    },
}

/// Everything a run needs: the system, the namespace to preload and the ops.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub system: SystemKind,
    /// The simulation seed of the instance's cluster.
    pub seed: u64,
    /// Directory paths, indexed by `Op::dir`.
    pub dirs: Vec<String>,
    /// Preloaded files of directory `d` are `{file_prefix}{0..files_per_dir}`.
    pub file_prefix: String,
    pub files_per_dir: usize,
    pub ops: Vec<Op>,
    pub plan: Plan,
}

/// Workload names. `BENCHMARK.json` lists the first three; `dc-mix` fails
/// its namespace check on the current tree (see `BASELINE.md`).
pub const WORKLOADS: [&str; 4] = [
    "create-hotdir",
    "create-hotdir-sync",
    "burst-statdir",
    "dc-mix",
];

/// Creates per instance on the two hot-directory workloads.
const HOTDIR_CREATES: usize = 10_000;
/// Files preloaded into the hot directory.
const HOTDIR_FILES: usize = 100_000;
/// Multi-directory namespaces: directories × files.
const MULTI_DIRS: usize = 100;
const MULTI_FILES: usize = 1_000;
/// Bursts per instance on `burst-statdir` by size: 180 × 10, 90 × 50 and
/// 30 × 200 creates (12 300 creates and 300 reads), in a seeded order.
const BURST_SIZES: [(usize, usize); 3] = [(10, 180), (50, 90), (200, 30)];
const BURST_STREAMS: usize = 4;
const BURST_WIDTH: usize = 4;
/// Ops per instance on `dc-mix`.
const MIX_OPS: usize = 10_000;
/// `dc-mix` file classes by index within each directory: stable files are
/// only read, victims are deleted or renamed exactly once, contested names
/// are the targets of the racing deletes/renames and of some reads.
const MIX_STABLE: usize = 560;
const MIX_CONTESTED: usize = 8;
/// Share of deletes/renames that race on contested names.
const MIX_RACE_SHARE: f64 = 0.2;
/// Share of stat/open/close that read a contested name.
const MIX_RACED_READ_SHARE: f64 = 0.1;
/// The Tab. 5 data-center-services mix.
const MIX: [(Kind, f64); 9] = [
    (Kind::Open, 26.3),
    (Kind::Close, 26.3),
    (Kind::Stat, 12.4),
    (Kind::Create, 9.58),
    (Kind::Delete, 11.9),
    (Kind::Rename, 9.3),
    (Kind::Chmod, 0.1),
    (Kind::Readdir, 3.9),
    (Kind::Statdir, 0.2),
];

/// A small deterministic generator (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_ba5e_0f5e_ed00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Instances per run: a run pools this many independently salted
/// instances, because one instance's latency percentiles depend strongly on
/// how its names happen to hash (a single instance's p99 moves by ±25% from
/// seed to seed on `create-hotdir`).
pub const INSTANCES: usize = 32;

/// Builds instance `instance` of workload `name` for `seed`, or `None` for
/// an unknown name. The instance's cluster runs with [`Inputs::seed`].
pub fn build(name: &str, seed: u64, instance: usize) -> Option<Inputs> {
    let mut rng = Rng::new(seed.wrapping_mul(1 << 20) ^ instance as u64);
    let cluster_seed = rng.next_u64();
    let salt = format!("{:04x}", rng.next_u64() & 0xffff);
    match name {
        "create-hotdir" => Some(hotdir(SystemKind::SwitchFs, &salt)),
        "create-hotdir-sync" => Some(hotdir(SystemKind::EmulatedCfs, &salt)),
        "burst-statdir" => Some(bursts(&salt, &mut rng)),
        "dc-mix" => Some(dc_mix(&salt, &mut rng)),
        _ => None,
    }
    .map(|inputs| Inputs {
        seed: cluster_seed,
        ..inputs
    })
}

fn file(dir: &str, name: impl std::fmt::Display) -> String {
    format!("{dir}/{name}")
}

fn hotdir(system: SystemKind, salt: &str) -> Inputs {
    let dir = "/hot".to_string();
    let ops = (0..HOTDIR_CREATES)
        .map(|i| {
            Op::new(
                Kind::Create,
                0,
                file(&dir, format!("n{salt}_{i}")),
                Allowed::Ok,
            )
        })
        .collect();
    Inputs {
        system,
        seed: 0,
        dirs: vec![dir],
        file_prefix: format!("p{salt}_"),
        files_per_dir: HOTDIR_FILES,
        ops,
        plan: Plan::Flat { in_flight: 256 },
    }
}

fn multi_dirs(prefix: &str) -> Vec<String> {
    (0..MULTI_DIRS).map(|d| format!("/{prefix}{d}")).collect()
}

fn bursts(salt: &str, rng: &mut Rng) -> Inputs {
    let dirs = multi_dirs("b");
    let mut sizes: Vec<usize> = BURST_SIZES
        .iter()
        .flat_map(|&(size, n)| [size].repeat(n))
        .collect();
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.below(i + 1));
    }
    let mut size_now = vec![MULTI_FILES as u64; dirs.len()];
    let mut ops = Vec::new();
    let mut streams = vec![Vec::new(); BURST_STREAMS];
    // Stream `s` owns the directories `d % BURST_STREAMS == s` and rotates
    // through them, so no two bursts ever touch one directory at once and
    // every read knows the entry count it must see.
    let per_stream = dirs.len() / BURST_STREAMS;
    for (b, &size) in sizes.iter().enumerate() {
        let s = b % BURST_STREAMS;
        let d = s + BURST_STREAMS * ((b / BURST_STREAMS) % per_stream);
        let start = ops.len();
        for _ in 0..size {
            let i = ops.len();
            ops.push(Op::new(
                Kind::Create,
                d as u32,
                file(&dirs[d], format!("n{salt}_{i}")),
                Allowed::Ok,
            ));
        }
        size_now[d] += size as u64;
        let kind = if rng.below(2) == 0 {
            Kind::Statdir
        } else {
            Kind::Readdir
        };
        let mut read = Op::new(kind, d as u32, dirs[d].clone(), Allowed::Ok);
        read.expect_size = Some(size_now[d]);
        ops.push(read);
        streams[s].push(start..ops.len());
    }
    Inputs {
        system: SystemKind::SwitchFs,
        seed: 0,
        dirs,
        file_prefix: format!("p{salt}_"),
        files_per_dir: MULTI_FILES,
        ops,
        plan: Plan::Bursts {
            streams,
            width: BURST_WIDTH,
        },
    }
}

fn dc_mix(salt: &str, rng: &mut Rng) -> Inputs {
    let dirs = multi_dirs("m");
    let prefix = format!("p{salt}_");
    let hot = dirs.len() / 5;
    // 80% of ops go to the first 20% of directories.
    let pick_dir = |rng: &mut Rng| -> usize {
        if rng.unit() < 0.8 {
            rng.below(hot)
        } else {
            hot + rng.below(dirs.len() - hot)
        }
    };
    let victims = MIX_STABLE..MULTI_FILES - MIX_CONTESTED;
    let mut next_victim = vec![victims.start; dirs.len()];
    let total: f64 = MIX.iter().map(|(_, w)| w).sum();
    let mut ops = Vec::with_capacity(MIX_OPS);
    for i in 0..MIX_OPS {
        let mut x = rng.unit() * total;
        let kind = MIX
            .iter()
            .find(|(_, w)| {
                let hit = x < *w;
                x -= w;
                hit
            })
            .map(|(k, _)| *k)
            .unwrap_or(Kind::Statdir);
        let d = pick_dir(rng);
        let named = |d: usize, f: usize| file(&dirs[d], format!("{prefix}{f}"));
        let contested = |rng: &mut Rng| MULTI_FILES - MIX_CONTESTED + rng.below(MIX_CONTESTED);
        let op = match kind {
            Kind::Create => Op::new(
                kind,
                d as u32,
                file(&dirs[d], format!("n{salt}_{i}")),
                Allowed::Ok,
            ),
            Kind::Delete | Kind::Rename => {
                let mut op = if rng.unit() < MIX_RACE_SHARE {
                    let f = contested(rng);
                    Op::new(kind, d as u32, named(d, f), Allowed::OkOrNotFound)
                } else {
                    // Each victim is removed once; a directory that ran out
                    // hands over to the next one that has victims left.
                    let mut v = d;
                    while next_victim[v] == victims.end {
                        v = (v + 1) % dirs.len();
                    }
                    next_victim[v] += 1;
                    Op::new(kind, v as u32, named(v, next_victim[v] - 1), Allowed::Ok)
                };
                if kind == Kind::Rename {
                    let dd = pick_dir(rng);
                    op.dst = Some((dd as u32, file(&dirs[dd], format!("r{salt}_{i}"))));
                }
                op
            }
            Kind::Stat | Kind::Open | Kind::Close => {
                if rng.unit() < MIX_RACED_READ_SHARE {
                    Op::new(
                        kind,
                        d as u32,
                        named(d, contested(rng)),
                        Allowed::OkOrNotFound,
                    )
                } else {
                    Op::new(kind, d as u32, named(d, rng.below(MIX_STABLE)), Allowed::Ok)
                }
            }
            Kind::Chmod => Op::new(kind, d as u32, named(d, rng.below(MIX_STABLE)), Allowed::Ok),
            Kind::Statdir | Kind::Readdir => Op::new(kind, d as u32, dirs[d].clone(), Allowed::Ok),
        };
        ops.push(op);
    }
    Inputs {
        system: SystemKind::SwitchFs,
        seed: 0,
        dirs,
        file_prefix: prefix,
        files_per_dir: MULTI_FILES,
        ops,
        plan: Plan::Flat { in_flight: 256 },
    }
}
