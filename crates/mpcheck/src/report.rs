//! The structured finding report: classes, findings, and the
//! `mpcheck-report-v3` JSON rendering (serde-free, mirroring the
//! harness's `hpcbench-record-v1` emitter).
//!
//! A v3 document carries `schema`, `runs`, `events`, `dropped`,
//! `schedules` (the explorer's [`ScheduleStats`], or null) and
//! `findings`, each with `class`, `ranks`, `summary`, `detail` and an
//! embedded replayable `counterexample` (or null). The CLI writes it and
//! CI archives it; no program reads it back. v3 is v2 without the
//! run-level `seeds` and per-finding `seed` of the retired seeded sampler.

use std::fmt::Write as _;

use mp::check::RunLog;

use crate::json;

/// Schema identifier written into every report document.
pub(crate) const REPORT_SCHEMA: &str = "mpcheck-report-v3";

/// The misuse classes the analyses diagnose.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingClass {
    /// A wait-for cycle (or global stall) among blocked ranks.
    Deadlock,
    /// Ranks disagreed on the collective call sequence: different
    /// operation at the same call index, or mismatched root/shape.
    CollectiveDivergence,
    /// Messages still queued unmatched at finalize whose receiver did
    /// receive on that (comm, tag) — a count mismatch.
    UnmatchedSend,
    /// Messages queued at finalize on a (comm, tag) the receiver never
    /// received on at all — the tag (or communicator) leaked.
    TagLeak,
    /// A wildcard receive whose match depended on arrival order — two or
    /// more candidate lanes were nonempty at match time, or matching
    /// diverged across explored schedules.
    WildcardRace,
    /// A rank panicked for a reason other than deadlock poisoning.
    RankPanic,
}

impl FindingClass {
    /// Stable identifier used in JSON output.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FindingClass::Deadlock => "deadlock",
            FindingClass::CollectiveDivergence => "collective-divergence",
            FindingClass::UnmatchedSend => "unmatched-send",
            FindingClass::TagLeak => "tag-leak",
            FindingClass::WildcardRace => "wildcard-race",
            FindingClass::RankPanic => "rank-panic",
        }
    }
}

impl std::fmt::Display for FindingClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnosed problem.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The misuse class.
    pub class: FindingClass,
    /// World ranks involved (cycle members, diverging ranks, ...).
    pub ranks: Vec<usize>,
    /// One-line description. Deliberately free of run and schedule
    /// numbers so that rediscoveries of the same bug across runs or
    /// schedules deduplicate; the schedule that surfaced it is in
    /// [`counterexample`](Finding::counterexample).
    pub summary: String,
    /// Multi-line evidence (cycle listing, per-rank call sites,
    /// pending-message inventory).
    pub detail: String,
    /// A replayable `hpcbench-schedule-v1` document reproducing the
    /// finding, when it came from the schedule explorer.
    pub counterexample: Option<String>,
}

impl Finding {
    /// A finding with only the required fields set.
    pub(crate) fn new(
        class: FindingClass,
        ranks: Vec<usize>,
        summary: String,
        detail: String,
    ) -> Finding {
        Finding {
            class,
            ranks,
            summary,
            detail,
            counterexample: None,
        }
    }

    /// The finding for a rank that panicked with `msg` (for a reason other
    /// than deadlock poisoning).
    pub(crate) fn rank_panic(rank: usize, msg: &str) -> Finding {
        let summary = format!("rank {rank} panicked");
        Finding::new(FindingClass::RankPanic, vec![rank], summary, msg.into())
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ranks: Vec<String> = self.ranks.iter().map(|r| r.to_string()).collect();
        write!(
            f,
            "[{}] ranks {{{}}}: {}",
            self.class,
            ranks.join(", "),
            self.summary
        )?;
        if self.counterexample.is_some() {
            write!(f, " [replayable]")?;
        }
        for line in self.detail.lines() {
            write!(f, "\n    {line}")?;
        }
        Ok(())
    }
}

/// Schedule-exploration accounting, present when the report came from
/// the DPOR explorer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Complete schedules executed.
    pub visited: u64,
    /// Alternative branches that existed but were provably redundant
    /// (persistent-set / sleep-set pruning) and were never run.
    pub pruned: u64,
    /// Branches skipped by the bounded-preemption fallback.
    pub bounded_skips: u64,
    /// Whether the schedule space was explored exhaustively (no budget
    /// exhaustion, no bound skips).
    pub exhaustive: bool,
}

/// The outcome of a check: every finding across all analyzed runs, plus
/// run accounting.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Deduplicated findings across all runs, in detection order.
    pub findings: Vec<Finding>,
    /// Instrumented runs analyzed.
    pub runs: usize,
    /// Total events recorded across all runs and ranks.
    pub events: u64,
    /// Total events dropped to ring-buffer overflow.
    pub dropped: u64,
    /// Exploration accounting, when the explorer produced this report.
    pub schedules: Option<ScheduleStats>,
}

impl Report {
    /// Whether the check found nothing.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Counts one instrumented world's recorded and dropped events.
    pub(crate) fn count(&mut self, log: &RunLog) {
        self.events += log.events.iter().map(|v| v.len() as u64).sum::<u64>();
        self.dropped += log.dropped.iter().sum::<u64>();
    }

    /// Renders the report as an `mpcheck-report-v3` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\n  \"schema\": \"{REPORT_SCHEMA}\",");
        let _ = writeln!(out, "  \"runs\": {},", self.runs);
        let _ = writeln!(out, "  \"events\": {},", self.events);
        let _ = writeln!(out, "  \"dropped\": {},", self.dropped);
        match &self.schedules {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "  \"schedules\": {{\"visited\": {}, \"pruned\": {}, \
                     \"bounded_skips\": {}, \"exhaustive\": {}}},",
                    s.visited, s.pruned, s.bounded_skips, s.exhaustive
                );
            }
            None => out.push_str("  \"schedules\": null,\n"),
        }
        out.push_str("  \"findings\": [\n");
        for (i, finding) in self.findings.iter().enumerate() {
            let ranks: Vec<String> = finding.ranks.iter().map(|r| r.to_string()).collect();
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            let cx = match &finding.counterexample {
                Some(c) => json::string(c).to_string(),
                None => "null".into(),
            };
            let _ = writeln!(
                out,
                "    {{\"class\": \"{}\", \"ranks\": [{}], \"summary\": {}, \
                 \"detail\": {}, \"counterexample\": {cx}}}{comma}",
                finding.class.name(),
                ranks.join(", "),
                json::string(&finding.summary),
                json::string(&finding.detail),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "mpcheck: {} finding(s) over {} run(s) ({} events, {} dropped)",
            self.findings.len(),
            self.runs,
            self.events,
            self.dropped
        )?;
        if let Some(s) = &self.schedules {
            writeln!(
                f,
                "  schedules: {} visited, {} pruned, {} bound-skipped, {}",
                s.visited,
                s.pruned,
                s.bounded_skips,
                if s.exhaustive {
                    "exhaustive"
                } else {
                    "budget-limited"
                }
            )?;
        }
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn sample() -> Report {
        Report {
            findings: vec![
                Finding {
                    class: FindingClass::Deadlock,
                    ranks: vec![0, 1],
                    summary: "cycle 0 -> 1 -> 0".into(),
                    detail: "rank 0: blocked\nrank 1: blocked".into(),
                    counterexample: Some(
                        "{\"schema\": \"hpcbench-schedule-v1\", \"target\": \"t\", \
                         \"world\": 2, \"decisions\": []}"
                            .into(),
                    ),
                },
                Finding::new(
                    FindingClass::TagLeak,
                    vec![1, 0],
                    "tag 0x5 leaked".into(),
                    String::new(),
                ),
            ],
            runs: 3,
            events: 42,
            dropped: 0,
            schedules: Some(ScheduleStats {
                visited: 7,
                pruned: 3,
                bounded_skips: 0,
                exhaustive: true,
            }),
        }
    }

    #[test]
    fn report_json_is_wellformed() {
        let report = sample();
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"mpcheck-report-v3\""));
        assert!(json.contains("\"class\": \"deadlock\""));
        assert!(json.contains("\"ranks\": [0, 1]"));
        assert!(!json.contains("\"seed"), "v3 has no seed fields");
        assert!(json.contains("\"visited\": 7"));
        assert!(json.contains("\\n"), "newlines must be escaped");
        assert!(!report.clean());
        assert!(Report::default().clean());
    }

    /// What the document says is what the report holds: the schema,
    /// the run accounting, the schedule counts and every finding's class,
    /// ranks, text and counterexample, as `mpcheck::json` reads them.
    #[test]
    fn report_json_parses_to_the_report() {
        let report = sample();
        let doc = json::parse(&report.to_json()).expect("well-formed JSON");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(doc.get("runs").and_then(Value::as_u64), Some(3));
        assert_eq!(doc.get("events").and_then(Value::as_u64), Some(42));
        let schedules = doc.get("schedules").expect("schedules");
        assert_eq!(schedules.get("pruned").and_then(Value::as_u64), Some(3));
        assert_eq!(
            schedules.get("exhaustive").and_then(Value::as_bool),
            Some(true)
        );
        let findings = doc
            .get("findings")
            .and_then(Value::as_arr)
            .expect("findings");
        assert_eq!(findings.len(), report.findings.len());
        for (f, want) in findings.iter().zip(&report.findings) {
            assert_eq!(
                f.get("class").and_then(Value::as_str),
                Some(want.class.name())
            );
            let ranks: Vec<u64> = f
                .get("ranks")
                .and_then(Value::as_arr)
                .expect("ranks")
                .iter()
                .filter_map(Value::as_u64)
                .collect();
            let want_ranks: Vec<u64> = want.ranks.iter().map(|&r| r as u64).collect();
            assert_eq!(ranks, want_ranks);
            assert_eq!(
                f.get("summary").and_then(Value::as_str),
                Some(&*want.summary)
            );
            assert_eq!(f.get("detail").and_then(Value::as_str), Some(&*want.detail));
            assert_eq!(
                f.get("counterexample").and_then(Value::as_str),
                want.counterexample.as_deref()
            );
        }
        // A schedule-free report writes null there.
        let plain = Report {
            schedules: None,
            ..sample()
        };
        let doc = json::parse(&plain.to_json()).expect("well-formed JSON");
        assert!(matches!(doc.get("schedules"), Some(Value::Null)));
    }

    #[test]
    fn display_renders_class_ranks_and_attribution() {
        let finding = Finding {
            class: FindingClass::WildcardRace,
            ranks: vec![2],
            summary: "arrival-order dependent match".into(),
            detail: String::new(),
            counterexample: Some("{}".into()),
        };
        let text = finding.to_string();
        assert!(text.contains("[wildcard-race]"));
        assert!(text.contains("ranks {2}"));
        assert!(text.contains("[replayable]"));
    }
}
