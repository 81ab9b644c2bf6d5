//! Closed-loop execution of a workload's ops through the public client API,
//! keeping every op's outcome (not just ok/failed) and virtual latency.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;

use switchfs_client::LibFs;
use switchfs_core::Cluster;
use switchfs_proto::FsError;
use switchfs_simnet::SimHandle;

use crate::workload::{Inputs, Kind, Op, Plan};

/// What an op returned. Directory reads carry the entry count they saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok(Option<u64>),
    Err(FsError),
}

/// One completed op: its virtual latency and outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Done {
    pub latency_ns: u64,
    pub outcome: Outcome,
}

/// The results of a run: one entry per op, in op order, plus the virtual
/// time from the first issue to the last completion.
pub struct RunResult {
    pub done: Vec<Done>,
    pub elapsed_ns: u64,
}

struct Shared {
    inputs: Rc<Inputs>,
    done: RefCell<Vec<Option<Done>>>,
    end_ns: Cell<u64>,
}

async fn exec(client: &LibFs, op: &Op) -> Outcome {
    let r = match op.kind {
        Kind::Create => client.create(&op.path).await.map(|_| None),
        Kind::Delete => client.delete(&op.path).await.map(|_| None),
        Kind::Rename => {
            let (_, dst) = op.dst.as_ref().expect("rename has a destination");
            client.rename(&op.path, dst).await.map(|_| None)
        }
        Kind::Stat => client.stat(&op.path).await.map(|_| None),
        Kind::Open => client.open(&op.path).await.map(|_| None),
        Kind::Close => client.close(&op.path).await.map(|_| None),
        Kind::Chmod => client.chmod(&op.path, 0o600).await.map(|_| None),
        Kind::Statdir => client.statdir(&op.path).await.map(|a| Some(a.size)),
        Kind::Readdir => client
            .readdir(&op.path)
            .await
            .map(|(_, entries)| Some(entries.len() as u64)),
    };
    match r {
        Ok(v) => Outcome::Ok(v),
        Err(e) => Outcome::Err(e),
    }
}

async fn run_one(shared: &Shared, client: &LibFs, h: &SimHandle, i: usize) {
    let t0 = h.now();
    let outcome = exec(client, &shared.inputs.ops[i]).await;
    let t1 = h.now();
    shared.done.borrow_mut()[i] = Some(Done {
        latency_ns: t1.duration_since(t0).as_nanos(),
        outcome,
    });
    shared.end_ns.set(shared.end_ns.get().max(t1.as_nanos()));
}

/// Runs ops from `next` up to `range.end`, one at a time (one closed-loop
/// worker).
async fn worker(
    shared: Rc<Shared>,
    next: Rc<Cell<usize>>,
    end: usize,
    client: Rc<LibFs>,
    h: SimHandle,
) {
    loop {
        let i = next.get();
        if i >= end {
            return;
        }
        next.set(i + 1);
        run_one(&shared, &client, &h, i).await;
    }
}

/// Runs `width` workers over `range` and waits for all of them.
async fn pool(
    shared: &Rc<Shared>,
    range: Range<usize>,
    width: usize,
    clients: &[Rc<LibFs>],
    first_client: usize,
    h: &SimHandle,
) {
    let next = Rc::new(Cell::new(range.start));
    let joins: Vec<_> = (0..width)
        .map(|w| {
            let client = clients[(first_client + w) % clients.len()].clone();
            h.spawn_with_result(worker(
                shared.clone(),
                next.clone(),
                range.end,
                client,
                h.clone(),
            ))
        })
        .collect();
    for j in joins {
        j.join().await;
    }
}

/// Drives every op of `inputs` on `cluster` and returns the results.
pub fn run(cluster: &Cluster, inputs: &Rc<Inputs>) -> RunResult {
    let h = cluster.sim.handle();
    let start_ns = h.now().as_nanos();
    let shared = Rc::new(Shared {
        inputs: inputs.clone(),
        done: RefCell::new(vec![None; inputs.ops.len()]),
        end_ns: Cell::new(start_ns),
    });
    let clients: Vec<Rc<LibFs>> = cluster.clients().to_vec();
    let task = {
        let shared = shared.clone();
        async move {
            match &shared.inputs.plan {
                Plan::Flat { in_flight } => {
                    let all = 0..shared.inputs.ops.len();
                    pool(&shared, all, *in_flight, &clients, 0, &h).await;
                }
                Plan::Bursts { streams, width } => {
                    let joins: Vec<_> = streams
                        .iter()
                        .enumerate()
                        .map(|(s, bursts)| {
                            let (shared, clients, h2) =
                                (shared.clone(), clients.clone(), h.clone());
                            let (bursts, width) = (bursts.clone(), *width);
                            h.spawn_with_result(async move {
                                for burst in bursts {
                                    let read = burst.end - 1;
                                    pool(
                                        &shared,
                                        burst.start..read,
                                        width,
                                        &clients,
                                        s * width,
                                        &h2,
                                    )
                                    .await;
                                    let client = clients[s % clients.len()].clone();
                                    run_one(&shared, &client, &h2, read).await;
                                }
                            })
                        })
                        .collect();
                    for j in joins {
                        j.join().await;
                    }
                }
            }
        }
    };
    cluster.block_on(task);
    let shared = Rc::try_unwrap(shared).ok().expect("workload tasks finished");
    let done = shared
        .done
        .into_inner()
        .into_iter()
        .map(|d| d.expect("every op completed"))
        .collect();
    RunResult {
        done,
        elapsed_ns: shared.end_ns.get() - start_ns,
    }
}
