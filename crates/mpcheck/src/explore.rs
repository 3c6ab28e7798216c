//! Systematic schedule-space exploration: a DPOR explorer over the
//! cooperative scheduler.
//!
//! Where [`crate::check`] sees the one schedule the host happened to run,
//! this module *enumerates* them. The [`Guided`] controller implements
//! [`mp::ScheduleController`], so every ready-set pick and every
//! wildcard-receive match in a cooperative run becomes a recorded,
//! scriptable decision. The driver ([`explore_with`]) re-runs the target
//! program depth-first over the decision tree, using dynamic
//! partial-order reduction to skip interleavings that are provably
//! equivalent to ones already visited:
//!
//! - **Persistent sets**: a ready-decision's alternatives are explored
//!   only when a race demands it — two steps of different ranks touching
//!   the same mailbox, unordered by happens-before (vector clocks over
//!   program order plus matched send→receive edges). Everything else is
//!   pruned.
//! - **Sleep sets**: alternatives whose subtree has already been
//!   explored are never re-added, so rediscovered races cost nothing.
//! - **Bounded-preemption fallback**: an optional cap on
//!   controller-injected preemptions (non-FIFO ready picks that pull the
//!   schedule away from a still-runnable rank) keeps huge spaces
//!   tractable; skipped branches are counted and the report is marked
//!   non-exhaustive.
//!
//! Wildcard matches are always fully branched — matching a different
//! message is semantically distinct by definition, never equivalent.
//!
//! Every new finding carries a replayable `hpcbench-schedule-v1`
//! counterexample ([`crate::Schedule`]); [`replay_with`] re-executes one
//! deterministically, with no random seeds anywhere in the loop.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::future::Future;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once};

use mp::check::{Event, RunLog, Settings, POISON_MARK};
use mp::{ScheduleController, WildcardCandidate};

use crate::report::{Finding, FindingClass, Report, ScheduleStats};
use crate::schedule::{Decision, DecisionKind, Schedule};
use crate::{analyze, wildcard_orders};

/// Live exploration count, consulted by the process-wide panic hook.
static EXPLORING: AtomicUsize = AtomicUsize::new(0);
/// One-time installation of the poison-silencing hook wrapper.
static HOOK: Once = Once::new();

/// Scoped stderr silencer for the deadlock-poison unwinds the explorer
/// provokes on purpose: visiting a deadlocking schedule space panics
/// once per schedule, and the default hook would print a diagnosis (and
/// backtrace) for every one. While at least one exploration is live,
/// panics whose payload is the poison diagnosis are swallowed; every
/// other panic still reaches the previously installed hook.
struct PoisonSilence;

impl PoisonSilence {
    fn new() -> PoisonSilence {
        HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if EXPLORING.load(Ordering::Relaxed) > 0 {
                    let payload = info.payload();
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied());
                    if msg.is_some_and(|m| m.starts_with(POISON_MARK)) {
                        return;
                    }
                }
                prev(info);
            }));
        });
        EXPLORING.fetch_add(1, Ordering::Relaxed);
        PoisonSilence
    }
}

impl Drop for PoisonSilence {
    fn drop(&mut self) {
        EXPLORING.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Options for a schedule-space exploration.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Maximum number of complete schedules to execute. Hitting the
    /// budget marks the report non-exhaustive.
    pub max_schedules: usize,
    /// Maximum controller-injected preemptions per schedule (`None` =
    /// unbounded). A preemption is a non-FIFO ready pick that moves the
    /// schedule away from a rank that was still runnable. Skipped
    /// branches are counted in [`ScheduleStats::bounded_skips`].
    pub preemption_bound: Option<usize>,
    /// Base run settings.
    pub settings: Settings,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions {
            max_schedules: 256,
            preemption_bound: None,
            settings: Settings::default(),
        }
    }
}

/// What one scripted run produced: every `mp` world's log (a target may
/// create several), plus any rank panics.
pub struct RunOutcome {
    /// One log per instrumented world, in creation order.
    pub logs: Vec<RunLog>,
    /// `(rank, message)` for ranks that panicked (deadlock poison
    /// unwinds excluded).
    pub panics: Vec<(usize, String)>,
}

/// Splits a caught panic payload into the explorer's terms: `None` for
/// a deadlock poison unwind (the diagnosis is already in the run log),
/// `Some((rank, msg))` for a genuine rank panic re-thrown by the coop
/// engine as `"rank N panicked: ..."`.
pub fn classify_panic(msg: &str) -> Option<(usize, String)> {
    if msg.starts_with(POISON_MARK) {
        return None;
    }
    let rest = msg.strip_prefix("rank ")?;
    let (rank, tail) = rest.split_once(" panicked: ")?;
    Some((rank.parse().ok()?, tail.to_string()))
}

/// One recorded decision, with the context the DPOR analysis needs.
#[derive(Clone, Debug)]
struct DecisionRec {
    kind: DecisionKind,
    /// Chosen rank (ready) or receiving rank (wildcard).
    rank: usize,
    alts: usize,
    pick: usize,
    /// Ready-set snapshot (ready decisions only).
    ready: Vec<usize>,
    /// `steps.len()` at decision time: for a ready decision, the index
    /// of the step it schedules.
    at_step: usize,
}

/// One scheduler step (one poll of one rank's task) and its mailbox
/// footprint.
#[derive(Clone, Debug, Default)]
struct StepRec {
    rank: usize,
    /// World segment (increments per `mp` world the target creates;
    /// steps in different worlds never race).
    world: usize,
    /// Mailbox indices this step touched (sends into, matches out of,
    /// receive postings).
    touched: BTreeSet<usize>,
    /// `(receiver, src, comm, tag)` per receive matched during this
    /// step, for happens-before send→receive pairing.
    recvs: Vec<(usize, usize, u32, u32)>,
    /// `(sender, dst, comm, tag)` per send issued during this step.
    sends: Vec<(usize, usize, u32, u32)>,
}

#[derive(Default)]
struct GuidedState {
    script: Vec<usize>,
    decisions: Vec<DecisionRec>,
    steps: Vec<StepRec>,
    /// Current world segment; `note_world` increments it, so the first
    /// world's steps carry segment 1.
    world: usize,
    /// Size of the first world (what the schedule file records).
    world_n: usize,
    strict: bool,
    diverged: Option<String>,
}

/// The scripted controller: follows a pick list over the choice points
/// a run hits (FIFO default beyond the script) and records the complete
/// decision and step trace for the DPOR analysis.
pub struct Guided {
    state: Mutex<GuidedState>,
}

impl Guided {
    /// A lenient controller for exploration: beyond (or outside) the
    /// script it takes the FIFO default.
    pub fn scripted(script: Vec<usize>) -> Guided {
        Guided {
            state: Mutex::new(GuidedState {
                script,
                ..GuidedState::default()
            }),
        }
    }

    /// A strict controller for replay: any divergence from the script
    /// (different alternative count, pick out of range, or leftover
    /// decisions) is recorded and reported by [`replay_with`].
    pub fn replaying(script: Vec<usize>) -> Guided {
        Guided {
            state: Mutex::new(GuidedState {
                script,
                strict: true,
                ..GuidedState::default()
            }),
        }
    }

    /// The decision trace of the completed run, as schedule decisions.
    pub fn trace(&self) -> Vec<Decision> {
        self.state
            .lock()
            .unwrap()
            .decisions
            .iter()
            .map(|d| Decision {
                kind: d.kind,
                rank: d.rank,
                alts: d.alts,
                pick: d.pick,
            })
            .collect()
    }

    /// World size of the first world the run created (0 if none).
    pub fn world_size(&self) -> usize {
        self.state.lock().unwrap().world_n
    }

    /// The divergence message, if a strict replay went off-script.
    pub fn divergence(&self) -> Option<String> {
        self.state.lock().unwrap().diverged.clone()
    }

    fn snapshot(&self) -> (Vec<DecisionRec>, Vec<StepRec>) {
        let st = self.state.lock().unwrap();
        (st.decisions.clone(), st.steps.clone())
    }

    fn decide(&self, kind: DecisionKind, rank: usize, alts: usize, ready: Vec<usize>) -> usize {
        let mut st = self.state.lock().unwrap();
        let index = st.decisions.len();
        let mut pick = st.script.get(index).copied().unwrap_or(0);
        if pick >= alts {
            let note = format!(
                "decision {index}: scripted pick {pick} out of range ({alts} alternatives)"
            );
            if st.strict && st.diverged.is_none() {
                st.diverged = Some(note);
            }
            pick = 0;
        }
        if st.strict && index >= st.script.len() && st.diverged.is_none() {
            st.diverged = Some(format!(
                "decision {index}: run has more choice points than the schedule"
            ));
        }
        let at_step = st.steps.len();
        st.decisions.push(DecisionRec {
            kind,
            rank,
            alts,
            pick,
            ready,
            at_step,
        });
        pick
    }
}

impl ScheduleController for Guided {
    fn pick_ready(&self, ready: &[usize]) -> usize {
        let pick = self.decide(DecisionKind::Ready, 0, ready.len(), ready.to_vec());
        let mut st = self.state.lock().unwrap();
        let last = st.decisions.last_mut().expect("just pushed");
        last.rank = ready[pick];
        drop(st);
        pick
    }

    fn pick_wildcard(&self, rank: usize, candidates: &[WildcardCandidate]) -> usize {
        self.decide(DecisionKind::Wildcard, rank, candidates.len(), Vec::new())
    }

    fn note_step(&self, rank: usize) {
        let mut st = self.state.lock().unwrap();
        let world = st.world;
        st.steps.push(StepRec {
            rank,
            world,
            ..StepRec::default()
        });
    }

    fn note_event(&self, rank: usize, event: &Event) {
        let mut st = self.state.lock().unwrap();
        let Some(step) = st.steps.last_mut() else {
            return;
        };
        match event {
            Event::Send { dst, comm, tag, .. } => {
                step.touched.insert(*dst);
                step.sends.push((rank, *dst, *comm, *tag));
            }
            Event::Recv { src, comm, tag, .. } => {
                // `rank` is the receiver even when the match fires
                // during the sender's poll (an eager send completing a
                // posted receive).
                step.touched.insert(rank);
                step.recvs.push((rank, *src, *comm, *tag));
            }
            _ => {}
        }
    }

    fn note_touch(&self, rank: usize) {
        let mut st = self.state.lock().unwrap();
        if let Some(step) = st.steps.last_mut() {
            step.touched.insert(rank);
        }
    }

    fn note_world(&self, n: usize) {
        let mut st = self.state.lock().unwrap();
        st.world += 1;
        if st.world_n == 0 {
            st.world_n = n;
        }
    }
}

/// One node of the schedule tree under DFS.
struct Node {
    kind: DecisionKind,
    alts: usize,
    /// Ready-set snapshot (ready nodes).
    ready: Vec<usize>,
    /// Rank that was running immediately before this decision, for
    /// preemption counting.
    prev_rank: Option<usize>,
    /// Pick on the current path.
    taken: usize,
    /// Picks whose subtree is fully explored (the sleep set: never
    /// re-entered, however many races re-demand them).
    tried: BTreeSet<usize>,
    /// Picks that must be explored (the persistent set).
    backtrack: BTreeSet<usize>,
}

impl Node {
    /// Whether taking `pick` here preempts: a non-FIFO choice that
    /// moves the schedule away from a still-runnable previous rank.
    fn preempts(&self, pick: usize) -> bool {
        self.kind == DecisionKind::Ready
            && pick != 0
            && self
                .prev_rank
                .is_some_and(|p| self.ready.contains(&p) && self.ready.get(pick) != Some(&p))
    }
}

/// Explores the schedule space of an arbitrary runner. `run_one` must
/// execute the target program once under the given controller (via
/// [`mp::run_controlled_coop`] or [`mp::install_explore`]) and return
/// what it logged; the driver re-invokes it once per schedule.
pub fn explore_with<F>(label: &str, opts: &ExploreOptions, mut run_one: F) -> Report
where
    F: FnMut(Arc<Guided>) -> RunOutcome,
{
    let _quiet = PoisonSilence::new();
    let mut report = Report {
        schedules: Some(ScheduleStats {
            exhaustive: true,
            ..ScheduleStats::default()
        }),
        ..Report::default()
    };
    let mut path: Vec<Node> = Vec::new();
    let mut seen: BTreeSet<(FindingClass, Vec<usize>, String)> = BTreeSet::new();
    // Wildcard match orders of the first clean schedule, for
    // cross-schedule divergence detection: (orders per world per rank).
    let mut reference_orders: Option<Vec<Vec<Vec<usize>>>> = None;
    loop {
        let stats = report.schedules.as_mut().expect("set above");
        if stats.visited >= opts.max_schedules as u64 {
            stats.exhaustive = false;
            break;
        }
        let script: Vec<usize> = path.iter().map(|n| n.taken).collect();
        let guided = Arc::new(Guided::scripted(script));
        let outcome = run_one(Arc::clone(&guided));
        let (decisions, steps) = guided.snapshot();
        let stats = report.schedules.as_mut().expect("set above");
        stats.visited += 1;
        report.runs += 1;
        // The coop engine is deterministic, so a scripted prefix must
        // reproduce the same choice points; guard against a target that
        // breaks that (e.g. one consulting ambient state) by dropping
        // stale nodes rather than mis-attributing races to them.
        if decisions.len() < path.len() {
            path.truncate(decisions.len());
        }
        // Extend the path with the fresh suffix of this run's decisions.
        for rec in decisions.iter().skip(path.len()) {
            let prev_rank = rec
                .at_step
                .checked_sub(1)
                .and_then(|i| steps.get(i))
                .map(|s| s.rank);
            let mut backtrack = BTreeSet::new();
            match rec.kind {
                // Ready alternatives wait for a race to demand them.
                DecisionKind::Ready => {
                    backtrack.insert(rec.pick);
                }
                // Matching a different message is always semantically
                // distinct: branch every wildcard alternative.
                DecisionKind::Wildcard => {
                    backtrack.extend(0..rec.alts);
                }
            }
            path.push(Node {
                kind: rec.kind,
                alts: rec.alts,
                ready: rec.ready.clone(),
                prev_rank,
                taken: rec.pick,
                tried: BTreeSet::new(),
                backtrack,
            });
        }
        // This schedule, replayable.
        let schedule = Schedule {
            target: label.to_string(),
            world: guided.world_size(),
            decisions: guided.trace(),
        };
        // Findings of this run; new ones ship the counterexample.
        let mut run_findings = Vec::new();
        for log in &outcome.logs {
            report.count(log);
            run_findings.extend(analyze::analyze(log));
        }
        for (rank, msg) in &outcome.panics {
            run_findings.push(Finding::rank_panic(*rank, msg));
        }
        let clean =
            outcome.panics.is_empty() && outcome.logs.iter().all(|log| log.deadlock.is_none());
        if clean {
            let orders: Vec<Vec<Vec<usize>>> = outcome.logs.iter().map(wildcard_orders).collect();
            match &reference_orders {
                None => reference_orders = Some(orders),
                Some(reference) => {
                    for (w, (ours, theirs)) in orders.iter().zip(reference).enumerate() {
                        for rank in 0..ours.len().max(theirs.len()) {
                            let a = theirs.get(rank).map(Vec::as_slice).unwrap_or(&[]);
                            let b = ours.get(rank).map(Vec::as_slice).unwrap_or(&[]);
                            if a != b {
                                run_findings.push(Finding::new(
                                    FindingClass::WildcardRace,
                                    vec![rank],
                                    format!(
                                        "wildcard matching on rank {rank} depends on the \
                                         schedule: matched source order differs across \
                                         explored interleavings"
                                    ),
                                    format!(
                                        "world {w}: one interleaving matched sources {a:?}, \
                                         another matched {b:?}"
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
        for mut finding in run_findings {
            let key = (
                finding.class,
                finding.ranks.clone(),
                finding.summary.clone(),
            );
            if seen.insert(key) {
                finding.counterexample = Some(schedule.to_json());
                report.findings.push(finding);
            }
        }
        // DPOR race analysis: add backtrack picks the races demand.
        add_backtracks(&mut path, &decisions, &steps);
        // Retire the leaf and advance to the next unexplored branch.
        let mut advanced = false;
        while let Some(d) = path.len().checked_sub(1) {
            let taken = path[d].taken;
            path[d].tried.insert(taken);
            let next = loop {
                let candidate = path[d]
                    .backtrack
                    .iter()
                    .copied()
                    .find(|p| !path[d].tried.contains(p));
                let Some(p) = candidate else { break None };
                let bound_ok = match opts.preemption_bound {
                    None => true,
                    Some(bound) => {
                        let inherited: usize = path[..d]
                            .iter()
                            .map(|n| usize::from(n.preempts(n.taken)))
                            .sum();
                        inherited + usize::from(path[d].preempts(p)) <= bound
                    }
                };
                if bound_ok {
                    break Some(p);
                }
                path[d].tried.insert(p);
                let stats = report.schedules.as_mut().expect("set above");
                stats.bounded_skips += 1;
                stats.exhaustive = false;
            };
            if let Some(p) = next {
                path[d].taken = p;
                path.truncate(d + 1);
                advanced = true;
                break;
            }
            let node = path.pop().expect("nonempty");
            let stats = report.schedules.as_mut().expect("set above");
            stats.pruned += (node.alts - node.tried.len()) as u64;
        }
        if !advanced {
            break;
        }
    }
    crate::analyze::dedup(&mut report.findings);
    report
}

/// Explores an async SPMD closure (the gallery entry point): runs it
/// under [`mp::run_controlled_coop`] once per schedule.
pub fn explore<R, F, Fut>(n: usize, label: &str, opts: &ExploreOptions, f: F) -> Report
where
    F: Fn(mp::Comm) -> Fut,
    Fut: Future<Output = R>,
{
    explore_with(label, opts, |guided| {
        let checked = mp::run_controlled_coop(n, opts.settings.clone(), guided, &f);
        RunOutcome {
            logs: vec![checked.log],
            panics: checked.panics,
        }
    })
}

/// Replays one recorded schedule through an arbitrary runner, strictly:
/// the run must hit exactly the recorded choice points. Returns the
/// findings of that single run (counterexamples re-attached), or an
/// error describing the divergence.
pub fn replay_with<F>(schedule: &Schedule, mut run_one: F) -> Result<Report, String>
where
    F: FnMut(Arc<Guided>) -> RunOutcome,
{
    let _quiet = PoisonSilence::new();
    let guided = Arc::new(Guided::replaying(schedule.picks()));
    let outcome = run_one(Arc::clone(&guided));
    if let Some(divergence) = guided.divergence() {
        return Err(format!(
            "schedule for {:?} did not replay: {divergence}",
            schedule.target
        ));
    }
    let replayed = guided.trace();
    if replayed.len() < schedule.decisions.len() {
        return Err(format!(
            "schedule for {:?} did not replay: run hit {} choice point(s), schedule has {}",
            schedule.target,
            replayed.len(),
            schedule.decisions.len()
        ));
    }
    let mut report = Report {
        runs: 1,
        ..Report::default()
    };
    for log in &outcome.logs {
        report.count(log);
        report.findings.extend(analyze::analyze(log));
    }
    for (rank, msg) in &outcome.panics {
        report.findings.push(Finding::rank_panic(*rank, msg));
    }
    for finding in &mut report.findings {
        finding.counterexample = Some(schedule.to_json());
    }
    crate::analyze::dedup(&mut report.findings);
    Ok(report)
}

/// Replays one recorded schedule against an async SPMD closure.
pub fn replay<R, F, Fut>(schedule: &Schedule, settings: Settings, f: F) -> Result<Report, String>
where
    F: Fn(mp::Comm) -> Fut,
    Fut: Future<Output = R>,
{
    let n = schedule.world;
    replay_with(schedule, |guided| {
        let checked = mp::run_controlled_coop(n, settings.clone(), guided, &f);
        RunOutcome {
            logs: vec![checked.log],
            panics: checked.panics,
        }
    })
}

/// The DPOR core: finds racing step pairs in the just-executed trace
/// and adds the alternatives that would reorder them to the governing
/// decisions' backtrack sets.
fn add_backtracks(path: &mut [Node], decisions: &[DecisionRec], steps: &[StepRec]) {
    // Ready decision governing each step (the decision whose pick
    // scheduled it), and the latest decision at-or-before each step.
    let mut decision_at: BTreeMap<usize, usize> = BTreeMap::new();
    for (d, rec) in decisions.iter().enumerate() {
        if rec.kind == DecisionKind::Ready {
            decision_at.insert(rec.at_step, d);
        }
    }
    let clocks = vector_clocks(steps);
    for j in 0..steps.len() {
        for i in 0..j {
            if steps[i].world != steps[j].world
                || steps[i].rank == steps[j].rank
                || steps[i].touched.is_disjoint(&steps[j].touched)
            {
                continue;
            }
            // Happens-before check: step i is ordered before j when j's
            // clock has seen i's tick on i's rank.
            let hb = clocks[j]
                .get(steps[i].rank)
                .is_some_and(|&seen| seen >= clocks[i][steps[i].rank]);
            if hb {
                continue;
            }
            // A race: try scheduling j's rank at (or before) step i.
            let target = match decision_at.get(&i) {
                Some(&d) => Some((d, true)),
                // No choice point exactly at i: back off to the latest
                // earlier one and branch it fully (conservative).
                None => decision_at.range(..i).next_back().map(|(_, &d)| (d, false)),
            };
            let Some((d, exact)) = target else { continue };
            let node = &mut path[d];
            let alt = if exact {
                node.ready.iter().position(|&r| r == steps[j].rank)
            } else {
                None
            };
            match alt {
                Some(pos) => {
                    node.backtrack.insert(pos);
                }
                None => {
                    node.backtrack.extend(0..node.alts);
                }
            }
        }
    }
}

/// Per-step vector clocks over program order (per rank, per world) plus
/// matched send→receive edges, paired per lane in FIFO order.
fn vector_clocks(steps: &[StepRec]) -> Vec<Vec<u64>> {
    let n = steps.iter().map(|s| s.rank + 1).max().unwrap_or(0);
    // Current clock per (world, rank).
    let mut current: BTreeMap<(usize, usize), Vec<u64>> = BTreeMap::new();
    // Unmatched send steps per (world, sender, receiver, comm, tag).
    let mut lanes: BTreeMap<(usize, usize, usize, u32, u32), VecDeque<usize>> = BTreeMap::new();
    let mut clocks = Vec::with_capacity(steps.len());
    for (j, step) in steps.iter().enumerate() {
        let mut clock = current
            .get(&(step.world, step.rank))
            .cloned()
            .unwrap_or_else(|| vec![0; n]);
        for &(receiver, src, comm, tag) in &step.recvs {
            let lane = (step.world, src, receiver, comm, tag);
            if let Some(sender_step) = lanes.get_mut(&lane).and_then(VecDeque::pop_front) {
                let sent: &Vec<u64> = &clocks[sender_step];
                for (c, s) in clock.iter_mut().zip(sent) {
                    *c = (*c).max(*s);
                }
            }
        }
        clock[step.rank] += 1;
        for &(sender, dst, comm, tag) in &step.sends {
            lanes
                .entry((step.world, sender, dst, comm, tag))
                .or_default()
                .push_back(j);
        }
        current.insert((step.world, step.rank), clock.clone());
        clocks.push(clock);
    }
    clocks
}
