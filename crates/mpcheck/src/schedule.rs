//! Replayable counterexample schedules: the `hpcbench-schedule-v1`
//! trace format.
//!
//! The explorer ([`crate::explore`]) records every scheduling decision a
//! run makes — ready-set picks and wildcard-receive matches — as a flat
//! decision list. Serialized, that list is a complete, machine-checkable
//! recipe for reproducing the run: feed it back through `--replay` and
//! the [`Guided`](crate::explore) controller re-makes exactly the same
//! choices, deterministically, with no random seeds involved.

use std::fmt::Write as _;

use crate::json::{self, Value};

/// Schema identifier written into every schedule file.
pub const SCHEDULE_SCHEMA: &str = "hpcbench-schedule-v1";

/// Which kind of choice point a decision resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionKind {
    /// A ready-set pick: ≥ 2 runnable ranks were queued and the
    /// controller chose which one to poll next. `rank` is the chosen
    /// rank.
    Ready,
    /// A wildcard-receive match: ≥ 2 queued lanes satisfied the filter
    /// and the controller chose which message to match. `rank` is the
    /// receiving rank.
    Wildcard,
}

impl DecisionKind {
    /// Stable identifier used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::Ready => "ready",
            DecisionKind::Wildcard => "wildcard",
        }
    }

    /// Inverse of [`DecisionKind::name`].
    pub fn from_name(name: &str) -> Option<DecisionKind> {
        match name {
            "ready" => Some(DecisionKind::Ready),
            "wildcard" => Some(DecisionKind::Wildcard),
            _ => None,
        }
    }
}

/// One resolved choice point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// What kind of choice this was.
    pub kind: DecisionKind,
    /// For [`DecisionKind::Ready`], the rank that was scheduled; for
    /// [`DecisionKind::Wildcard`], the rank whose receive was matched.
    pub rank: usize,
    /// How many alternatives existed (always ≥ 2 — trivial choice
    /// points are not decisions).
    pub alts: usize,
    /// The alternative taken, `0 ≤ pick < alts`. Pick 0 is always the
    /// FIFO / oldest-first default.
    pub pick: usize,
}

/// A complete recorded schedule for one run of one target program.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Schedule {
    /// What was run (gallery entry or workload label).
    pub target: String,
    /// World size of the (first) `mp` world the run created.
    pub world: usize,
    /// Every choice point the run hit, in execution order.
    pub decisions: Vec<Decision>,
}

impl Schedule {
    /// Renders the schedule as an `hpcbench-schedule-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEDULE_SCHEMA}\",");
        let _ = writeln!(out, "  \"target\": {},", crate::json::string(&self.target));
        let _ = writeln!(out, "  \"world\": {},", self.world);
        out.push_str("  \"decisions\": [\n");
        for (i, d) in self.decisions.iter().enumerate() {
            let comma = if i + 1 < self.decisions.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"kind\": \"{}\", \"rank\": {}, \"alts\": {}, \"pick\": {}}}{comma}",
                d.kind.name(),
                d.rank,
                d.alts,
                d.pick,
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses an `hpcbench-schedule-v1` document.
    pub fn from_json(text: &str) -> Result<Schedule, String> {
        let v = json::parse(text)?;
        match v.get("schema").and_then(Value::as_str) {
            Some(SCHEDULE_SCHEMA) => {}
            other => return Err(format!("not a {SCHEDULE_SCHEMA} document: {other:?}")),
        }
        let target = v
            .get("target")
            .and_then(Value::as_str)
            .ok_or("missing \"target\"")?
            .to_string();
        let world = v
            .get("world")
            .and_then(Value::as_usize)
            .ok_or("missing \"world\"")?;
        let mut decisions = Vec::new();
        for (i, d) in v
            .get("decisions")
            .and_then(Value::as_arr)
            .ok_or("missing \"decisions\"")?
            .iter()
            .enumerate()
        {
            let kind = d
                .get("kind")
                .and_then(Value::as_str)
                .and_then(DecisionKind::from_name)
                .ok_or_else(|| format!("decision {i}: bad \"kind\""))?;
            let rank = d
                .get("rank")
                .and_then(Value::as_usize)
                .ok_or_else(|| format!("decision {i}: bad \"rank\""))?;
            let alts = d
                .get("alts")
                .and_then(Value::as_usize)
                .ok_or_else(|| format!("decision {i}: bad \"alts\""))?;
            let pick = d
                .get("pick")
                .and_then(Value::as_usize)
                .ok_or_else(|| format!("decision {i}: bad \"pick\""))?;
            if pick >= alts {
                return Err(format!(
                    "decision {i}: pick {pick} out of range (alts {alts})"
                ));
            }
            decisions.push(Decision {
                kind,
                rank,
                alts,
                pick,
            });
        }
        Ok(Schedule {
            target,
            world,
            decisions,
        })
    }

    /// The bare pick list, the script a [`Guided`](crate::explore)
    /// controller follows.
    pub fn picks(&self) -> Vec<usize> {
        self.decisions.iter().map(|d| d.pick).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule {
            target: "gallery:wildcard-race".into(),
            world: 3,
            decisions: vec![
                Decision {
                    kind: DecisionKind::Ready,
                    rank: 1,
                    alts: 2,
                    pick: 1,
                },
                Decision {
                    kind: DecisionKind::Wildcard,
                    rank: 0,
                    alts: 2,
                    pick: 0,
                },
            ],
        }
    }

    #[test]
    fn schedule_round_trips_through_json() {
        let s = sample();
        let text = s.to_json();
        assert!(text.contains("\"schema\": \"hpcbench-schedule-v1\""));
        let back = Schedule::from_json(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.picks(), vec![1, 0]);
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_bad_picks() {
        assert!(Schedule::from_json("{\"schema\": \"other\"}").is_err());
        let mut text = sample().to_json();
        text = text.replace("\"pick\": 1", "\"pick\": 7");
        assert!(Schedule::from_json(&text).is_err());
    }

    #[test]
    fn empty_decision_list_is_valid() {
        let s = Schedule {
            target: "t".into(),
            world: 2,
            decisions: Vec::new(),
        };
        assert_eq!(Schedule::from_json(&s.to_json()).unwrap(), s);
    }
}
