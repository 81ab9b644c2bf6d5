//! Per-layer virtual-time spans from a traced run's flight-recorder dump.
//!
//! Events are grouped by `TraceId` (one client request and everything any
//! node did on its behalf). Aggregations carry no trace id; they are tied to
//! their applies by node and fingerprint group instead.

use std::collections::HashMap;

use switchfs_obs::{EventKind, TraceEvent};

/// A sum of span lengths and how many spans it covers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub total_ns: u64,
    pub count: u64,
}

impl Span {
    fn add(&mut self, ns: u64) {
        self.total_ns += ns;
        self.count += 1;
    }

    /// Mean span in microseconds; 0 when no span was seen.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// What the dump says about each layer.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// First to last `ClientIssue` of a request.
    pub retry_wait: Span,
    /// Last `ClientIssue` to the first `Dispatch` after it.
    pub transit: Span,
    /// First `Dispatch` to the request's first `WalFlush` after it.
    pub dispatch_to_durable: Span,
    /// First `TxnPrepare` to last `TxnDecide` of a rename transaction, on
    /// any participant (grouped by transaction id, which participants
    /// record without the rename's trace id).
    pub txn: Span,
    /// `AggregationFanout` to the apply batch it produced.
    pub aggregation: Span,
    /// Entries applied by those batches.
    pub aggregated_entries: u64,
    /// Fan-outs seen, including those that applied nothing.
    pub fanouts: u64,
    /// Requests put on the wire that no server dispatched: retransmissions
    /// the servers answered from their duplicate-suppression state.
    pub dup_requests: u64,
    pub events: u64,
}

#[derive(Default)]
struct Request {
    first_issue: Option<u64>,
    last_issue: u64,
    issues: u64,
    dispatches: Vec<u64>,
    flushes: Vec<u64>,
}

/// Reduces a dump. `dir_fp` maps a directory's `DirId::hash64()` to the raw
/// fingerprint of its group, for the directories the workload touches.
pub fn layers(dump: &[TraceEvent], dir_fp: &HashMap<u64, u64>) -> Layers {
    let mut requests: HashMap<u64, Request> = HashMap::new();
    // (node, fp) → fan-out times / (time, batch) of entry applies.
    let mut fanouts: HashMap<(u32, u64), Vec<u64>> = HashMap::new();
    let mut applies: HashMap<(u32, u64), Vec<(u64, u64)>> = HashMap::new();
    // txn → (first prepare, last decide).
    let mut txns: HashMap<u64, (Option<u64>, Option<u64>)> = HashMap::new();
    for e in dump {
        match &e.kind {
            EventKind::TxnPrepare { txn, .. } => {
                let t = &mut txns.entry(*txn).or_default().0;
                *t = Some(t.map_or(e.at_ns, |t| t.min(e.at_ns)));
            }
            EventKind::TxnDecide { txn, .. } => {
                let t = &mut txns.entry(*txn).or_default().1;
                *t = Some(t.unwrap_or(0).max(e.at_ns));
            }
            EventKind::AggregationFanout { fp, .. } => {
                fanouts.entry((e.node, *fp)).or_default().push(e.at_ns);
                continue;
            }
            EventKind::EntryApply { batch, dir, .. } => {
                if let Some(fp) = dir_fp.get(dir) {
                    applies
                        .entry((e.node, *fp))
                        .or_default()
                        .push((e.at_ns, *batch));
                }
            }
            _ => {}
        }
        let Some(trace) = e.trace else { continue };
        let r = requests.entry(trace.raw()).or_default();
        match &e.kind {
            EventKind::ClientIssue { .. } => {
                r.first_issue = Some(r.first_issue.map_or(e.at_ns, |t| t.min(e.at_ns)));
                r.last_issue = r.last_issue.max(e.at_ns);
                r.issues += 1;
            }
            EventKind::Dispatch { .. } => r.dispatches.push(e.at_ns),
            EventKind::WalFlush { .. } => r.flushes.push(e.at_ns),
            _ => {}
        }
    }

    let mut out = Layers {
        events: dump.len() as u64,
        ..Layers::default()
    };
    for r in requests.values_mut() {
        let Some(first) = r.first_issue else { continue };
        out.retry_wait.add(r.last_issue - first);
        out.dup_requests += r.issues.saturating_sub(r.dispatches.len() as u64);
        r.dispatches.sort_unstable();
        r.flushes.sort_unstable();
        if let Some(&d) = r.dispatches.iter().find(|&&d| d >= r.last_issue) {
            out.transit.add(d - r.last_issue);
        }
        if let Some(&d) = r.dispatches.first() {
            if let Some(&f) = r.flushes.iter().find(|&&f| f >= d) {
                out.dispatch_to_durable.add(f - d);
            }
        }
    }
    for (prepare, decide) in txns.into_values() {
        if let (Some(p), Some(d)) = (prepare, decide) {
            out.txn.add(d.saturating_sub(p));
        }
    }

    // An aggregation's applies land in one batch on the fanning-out owner:
    // take the first batch for the group after the fan-out and before the
    // group's next fan-out there.
    for (key, times) in &mut fanouts {
        times.sort_unstable();
        let mut group = applies.remove(key).unwrap_or_default();
        group.sort_unstable();
        for (i, &t0) in times.iter().enumerate() {
            out.fanouts += 1;
            let t1 = times.get(i + 1).copied().unwrap_or(u64::MAX);
            let from = group.partition_point(|&(at, _)| at < t0);
            let Some(&(_, batch)) = group[from..].first().filter(|&&(at, _)| at < t1) else {
                continue;
            };
            let mut end = t0;
            for &(at, b) in &group[from..] {
                if at >= t1 {
                    break;
                }
                if b == batch {
                    end = end.max(at);
                    out.aggregated_entries += 1;
                }
            }
            out.aggregation.add(end - t0);
        }
    }
    out
}
