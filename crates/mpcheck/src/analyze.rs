//! The post-run trace lint pass: turns one instrumented run's
//! [`RunLog`] into findings.

use std::collections::BTreeMap;

use mp::check::{Event, RunLog};

use crate::report::{Finding, FindingClass};

/// Analyzes one run log, returning every finding it supports on its own,
/// its rank panics last. (Cross-schedule comparisons live in
/// [`crate::explore`], which sees all runs.)
pub(crate) fn analyze(log: &RunLog) -> Vec<Finding> {
    let mut findings = Vec::new();
    deadlock(log, &mut findings);
    collective_divergence(log, &mut findings);
    leftovers(log, &mut findings);
    wildcard_races(log, &mut findings);
    let panics = log.panics.iter();
    findings.extend(panics.map(|(rank, msg)| Finding::rank_panic(*rank, msg)));
    findings
}

/// Maps the stall's diagnosis onto a finding.
fn deadlock(log: &RunLog, findings: &mut Vec<Finding>) {
    let Some(d) = &log.deadlock else { return };
    let (ranks, summary) = match &d.cycle {
        Some(cycle) => {
            let mut path: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
            path.push(cycle[0].to_string());
            (
                cycle.clone(),
                format!("wait-for cycle {}", path.join(" -> ")),
            )
        }
        None => (
            d.waits.iter().map(|w| w.rank).collect(),
            format!(
                "global stall: {} blocked rank(s), no sender can run",
                d.waits.len()
            ),
        ),
    };
    findings.push(Finding::new(
        FindingClass::Deadlock,
        ranks,
        summary,
        d.to_string(),
    ));
}

/// One rank's view of one collective call site.
struct Call {
    rank: usize,
    op: &'static str,
    root: Option<usize>,
    shape: Option<u64>,
}

impl Call {
    fn describe(&self) -> String {
        let mut s = format!("rank {}: {}", self.rank, self.op);
        if let Some(root) = self.root {
            s.push_str(&format!(" root={root}"));
        }
        if let Some(shape) = self.shape {
            s.push_str(&format!(" bytes={shape}"));
        }
        s
    }

    /// Whether two ranks' views of the same call index conflict. Roots
    /// and shapes compare only when both sides recorded one (vector
    /// variants record none — their counts legitimately differ).
    fn conflicts(&self, other: &Call) -> bool {
        self.op != other.op
            || (self.root.is_some() && other.root.is_some() && self.root != other.root)
            || (self.shape.is_some() && other.shape.is_some() && self.shape != other.shape)
    }
}

/// Flags call-sequence divergence: at each (comm, call index), every
/// participating rank must have entered the same operation with the same
/// root and payload shape. On clean, drop-free runs, also flags ranks
/// disagreeing on how many collectives ran on a communicator.
fn collective_divergence(log: &RunLog, findings: &mut Vec<Finding>) {
    let mut sites: BTreeMap<(u32, u32), Vec<Call>> = BTreeMap::new();
    let mut counts: BTreeMap<u32, BTreeMap<usize, usize>> = BTreeMap::new();
    for (rank, events) in log.events.iter().enumerate() {
        for e in events {
            if let Event::CollBegin {
                comm,
                index,
                op,
                root,
                shape,
            } = e
            {
                sites.entry((*comm, *index)).or_default().push(Call {
                    rank,
                    op,
                    root: *root,
                    shape: *shape,
                });
                *counts.entry(*comm).or_default().entry(rank).or_insert(0) += 1;
            }
        }
    }
    for ((comm, index), calls) in &sites {
        let reference = &calls[0];
        let diverging: Vec<&Call> = calls[1..]
            .iter()
            .filter(|c| c.conflicts(reference))
            .collect();
        if diverging.is_empty() {
            continue;
        }
        let mut ranks = vec![reference.rank];
        ranks.extend(diverging.iter().map(|c| c.rank));
        let detail = calls
            .iter()
            .map(Call::describe)
            .collect::<Vec<_>>()
            .join("\n");
        findings.push(Finding::new(
            FindingClass::CollectiveDivergence,
            ranks,
            format!(
                "collective call #{index} on comm {comm:#x} diverges: {} vs {}",
                reference.describe(),
                diverging[0].describe()
            ),
            detail,
        ));
    }
    // Call-count divergence is only conclusive when the run completed and
    // no events were dropped; on a deadlocked run truncated sequences are
    // a symptom, not a second bug.
    if log.deadlock.is_none() && log.dropped.iter().all(|&d| d == 0) {
        for (comm, per_rank) in &counts {
            let min = per_rank.values().min().copied().unwrap_or(0);
            let max = per_rank.values().max().copied().unwrap_or(0);
            if min == max {
                continue;
            }
            let ranks: Vec<usize> = per_rank.keys().copied().collect();
            let detail = per_rank
                .iter()
                .map(|(rank, count)| format!("rank {rank}: {count} collective call(s)"))
                .collect::<Vec<_>>()
                .join("\n");
            findings.push(Finding::new(
                FindingClass::CollectiveDivergence,
                ranks,
                format!(
                    "ranks disagree on the number of collective calls on comm {comm:#x} \
                     ({min} vs {max})"
                ),
                detail,
            ));
        }
    }
}

/// Classifies messages still queued at finalize: a lane whose receiver
/// never received on that (comm, tag) is a tag/comm leak; one whose
/// receiver did is a send/receive count mismatch. Skipped entirely on
/// deadlocked runs, where leftovers are a symptom of the deadlock.
fn leftovers(log: &RunLog, findings: &mut Vec<Finding>) {
    if log.deadlock.is_some() {
        return;
    }
    for lane in &log.leftover {
        let receiver_used_tag = log.events.get(lane.dst).is_some_and(|events| {
            events.iter().any(|e| {
                matches!(e, Event::Recv { comm, tag, .. }
                         if *comm == lane.comm && *tag == lane.tag)
            })
        });
        let (class, what) = if receiver_used_tag {
            (FindingClass::UnmatchedSend, "more sends than receives")
        } else {
            (
                FindingClass::TagLeak,
                "receiver never received on this (comm, tag)",
            )
        };
        findings.push(Finding::new(
            class,
            vec![lane.src, lane.dst],
            format!(
                "{} message(s) from rank {} to rank {} (comm {:#x}, tag {:#x}) \
                 unmatched at finalize: {what}",
                lane.queued, lane.src, lane.dst, lane.comm, lane.tag
            ),
            lane.to_string(),
        ));
    }
}

/// Flags wildcard receives whose match depended on arrival order: two or
/// more candidate lanes were nonempty at match time. Aggregated per rank.
fn wildcard_races(log: &RunLog, findings: &mut Vec<Finding>) {
    for (rank, events) in log.events.iter().enumerate() {
        let mut racy = 0usize;
        let mut max_candidates = 0u32;
        let mut example = None;
        for e in events {
            if let Event::Recv {
                wildcard: true,
                candidates,
                src,
                comm,
                tag,
                ..
            } = e
            {
                if *candidates >= 2 {
                    racy += 1;
                    max_candidates = max_candidates.max(*candidates);
                    if example.is_none() {
                        example = Some(format!(
                            "matched src {src} (comm {comm:#x}, tag {tag:#x}) \
                             with {candidates} candidate lanes nonempty"
                        ));
                    }
                }
            }
        }
        if racy > 0 {
            findings.push(Finding::new(
                FindingClass::WildcardRace,
                vec![rank],
                format!(
                    "{racy} wildcard receive(s) on rank {rank} matched by arrival \
                     order (up to {max_candidates} candidate lanes)"
                ),
                example.unwrap_or_default(),
            ));
        }
    }
}

/// Drops findings identical in (class, ranks, summary), keeping first
/// occurrences in order. A session's runs and an explorer's schedules
/// rediscover the same bug many times; the report should state it once.
pub(crate) fn dedup(findings: &mut Vec<Finding>) {
    let mut seen: Vec<(FindingClass, Vec<usize>, String)> = Vec::new();
    findings.retain(|f| {
        let key = (f.class, f.ranks.clone(), f.summary.clone());
        if seen.contains(&key) {
            false
        } else {
            seen.push(key);
            true
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp::check::{run_checked, Settings};
    use mp::Engine::Threads;

    #[test]
    fn clean_program_yields_no_findings() {
        let checked = run_checked(4, Threads, Settings::default(), |comm| async move {
            let mut x = [1u64];
            mp::block_on(comm.allreduce_async(&mut x, mp::Op::Sum));
            mp::block_on(comm.barrier_async());
        });
        assert!(analyze(&checked.log).is_empty());
    }

    /// Every panicking rank reaches the analysis through the log, as one
    /// finding each, after the findings the events support.
    #[test]
    fn every_rank_panic_is_a_finding() {
        let checked = run_checked(3, Threads, Settings::default(), |comm| async move {
            if comm.rank() > 0 {
                panic!("rank {} gives up", comm.rank());
            }
            // A message nobody receives: a finding of the events.
            comm.send(&[1u8], 1, 5);
        });
        assert_eq!(checked.log.panics.len(), 2);
        let findings = analyze(&checked.log);
        let found: Vec<(FindingClass, &[usize], &str)> = findings
            .iter()
            .map(|f| (f.class, &f.ranks[..], f.detail.as_str()))
            .skip(1)
            .collect();
        assert_eq!(findings[0].class, FindingClass::TagLeak);
        assert_eq!(
            found,
            [
                (FindingClass::RankPanic, &[1][..], "rank 1 gives up"),
                (FindingClass::RankPanic, &[2][..], "rank 2 gives up")
            ]
        );
    }

    #[test]
    fn dedup_keeps_first_occurrence() {
        let f = |summary: &str| {
            Finding::new(
                FindingClass::TagLeak,
                vec![0, 1],
                summary.into(),
                String::new(),
            )
        };
        let mut findings = vec![f("a"), f("b"), f("a")];
        dedup(&mut findings);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].summary, "a");
        assert_eq!(findings[1].summary, "b");
    }

    #[test]
    fn unmatched_send_vs_tag_leak_classification() {
        // Tag 5 is never received on rank 1 -> leak; tag 6 is received
        // once but sent twice -> unmatched send.
        let checked = run_checked(2, Threads, Settings::default(), |comm| async move {
            if comm.rank() == 0 {
                comm.send(&[1u8], 1, 5);
                comm.send(&[2u8], 1, 6);
                comm.send(&[3u8], 1, 6);
            } else {
                let mut buf = [0u8];
                mp::block_on(comm.recv_async(&mut buf, 0, 6));
            }
            mp::block_on(comm.barrier_async());
        });
        let findings = analyze(&checked.log);
        assert!(findings
            .iter()
            .any(|f| f.class == FindingClass::TagLeak && f.summary.contains("tag 0x5")));
        assert!(findings
            .iter()
            .any(|f| f.class == FindingClass::UnmatchedSend && f.summary.contains("tag 0x6")));
    }
}
