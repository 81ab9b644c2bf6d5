//! Correctness: every outcome against its allowed set, and the final
//! namespace against the one the observed outcomes imply.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use switchfs_core::Cluster;
use switchfs_proto::FsError;

use crate::drive::{Done, Outcome};
use crate::workload::{Allowed, Inputs, Kind};

fn name_of(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Counts the ops whose outcome lies outside their allowed set. A racing
/// delete/rename may see `NotFound`, but at most one removal of a name may
/// succeed. Messages for the first few violations go into `notes`.
pub fn outcome_errors(inputs: &Inputs, done: &[Done], notes: &mut Vec<String>) -> u64 {
    let mut errors = 0;
    let mut removed: BTreeMap<(u32, &str), u32> = BTreeMap::new();
    for (op, d) in inputs.ops.iter().zip(done) {
        let ok = match (d.outcome, op.allowed) {
            (Outcome::Ok(seen), _) => match op.expect_size {
                Some(want) if seen != Some(want) => {
                    notes.push(format!(
                        "{:?} {} saw {seen:?} entries, expected {want}",
                        op.kind, op.path
                    ));
                    false
                }
                _ => true,
            },
            (Outcome::Err(FsError::NotFound), Allowed::OkOrNotFound) => true,
            (Outcome::Err(e), _) => {
                notes.push(format!("{:?} {} returned {e:?}", op.kind, op.path));
                false
            }
        };
        if matches!(op.kind, Kind::Delete | Kind::Rename) && d.outcome == Outcome::Ok(None) {
            let n = removed.entry((op.dir, name_of(&op.path))).or_default();
            *n += 1;
            if *n > 1 {
                notes.push(format!(
                    "{:?} {} succeeded on an already removed name",
                    op.kind, op.path
                ));
                errors += 1;
            }
        }
        if !ok {
            errors += 1;
        }
    }
    notes.truncate(10);
    errors
}

/// The namespace the observed outcomes imply: directory index → names.
fn expected(inputs: &Inputs, done: &[Done]) -> BTreeMap<u32, BTreeSet<String>> {
    let mut ns: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    let preloaded: BTreeSet<String> = (0..inputs.files_per_dir)
        .map(|f| format!("{}{f}", inputs.file_prefix))
        .collect();
    for d in 0..inputs.dirs.len() as u32 {
        ns.insert(d, preloaded.clone());
    }
    for (op, d) in inputs.ops.iter().zip(done) {
        if d.outcome != Outcome::Ok(None) {
            continue;
        }
        let dir = ns.get_mut(&op.dir).expect("known dir");
        match op.kind {
            Kind::Create => {
                dir.insert(name_of(&op.path).to_string());
            }
            Kind::Delete => {
                dir.remove(name_of(&op.path));
            }
            Kind::Rename => {
                dir.remove(name_of(&op.path));
                let (dd, dst) = op.dst.as_ref().expect("rename has a destination");
                ns.get_mut(dd)
                    .expect("known dir")
                    .insert(name_of(dst).to_string());
            }
            _ => {}
        }
    }
    ns
}

/// Lists every directory of the workload through the client API and checks
/// it against the namespace the outcomes imply, and `statdir` sizes against
/// the listings. Returns a description of the first mismatch.
pub fn namespace(cluster: &Cluster, inputs: &Rc<Inputs>, done: &[Done]) -> Result<(), String> {
    let want = expected(inputs, done);
    let client = cluster.client(0);
    let dirs = inputs.dirs.clone();
    let seen = cluster.block_on(async move {
        let mut seen = Vec::with_capacity(dirs.len());
        for path in &dirs {
            let listing = client.readdir(path).await;
            let size = client.statdir(path).await;
            seen.push((listing, size));
        }
        seen
    });
    for (d, (listing, size)) in seen.into_iter().enumerate() {
        let path = &inputs.dirs[d];
        let (_, entries) = listing.map_err(|e| format!("readdir {path}: {e:?}"))?;
        let size = size.map_err(|e| format!("statdir {path}: {e:?}"))?.size;
        let got: BTreeSet<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        let want = &want[&(d as u32)];
        if got.len() != entries.len() {
            return Err(format!("{path}: listing has duplicate names"));
        }
        let missing: Vec<&str> = want
            .iter()
            .map(String::as_str)
            .filter(|n| !got.contains(n))
            .collect();
        let extra: Vec<&str> = got.iter().copied().filter(|n| !want.contains(*n)).collect();
        if !missing.is_empty() || !extra.is_empty() {
            return Err(format!(
                "{path}: listing differs from the outcomes: {} missing {:?}, {} unexpected {:?}",
                missing.len(),
                &missing[..missing.len().min(3)],
                extra.len(),
                &extra[..extra.len().min(3)],
            ));
        }
        if size != entries.len() as u64 {
            return Err(format!(
                "{path}: statdir size {size} but {} entries listed",
                entries.len()
            ));
        }
    }
    Ok(())
}
