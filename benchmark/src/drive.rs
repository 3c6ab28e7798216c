//! The parent side: runs each workload in fresh child processes of this
//! same executable, pools what they report, prints every metric by name
//! with its unit, and ends with the one-line JSON result.

use std::process::{Command, Stdio};
use std::time::Duration;

use harness::Stopwatch;
use mpcheck::json::{parse, Value};

use crate::cells::WorkloadId;
use crate::child::artefact_dir;
use crate::host;
use crate::json::Json;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::{best, median, quartiles, spread};

/// Child processes of one untraced run. Each sets up from scratch and runs
/// its passes in cell orders of its own, so the run's `setup_s` is the best
/// and its `peak_rss_mb` the median of this many independent samples, and
/// the timed passes pool over this many process images.
const CHILDREN: usize = 5;

/// Runs per set of the A/A check, each with another seed.
const AA_RUNS: u64 = 10;

/// A child that runs longer than this is killed and the run fails: a
/// breach is a failed workload, never a wedged host.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// How a run is sized.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes per run.
    pub seconds: f64,
    /// One child, one timed pass.
    pub smoke: bool,
}

/// The outcome of one run of one workload.
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells failed.
    pub failed: u64,
    /// Metric name, value and unit, in the spec's order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The run's last stdout line, as the contract words it.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} was not reported"))
            .1
    }
}

/// Runs one child to completion and parses its result line.
fn run_child(
    id: WorkloadId,
    seed: u64,
    process: usize,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", id.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--process", &process.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if traced {
        cmd.arg("--traced");
    }
    if smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
    let clock = Stopwatch::start();
    // The child prints one line of a few KB at the very end, which fits the
    // pipe, so it is enough to read after the child has ended.
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("wait for child: {e}"))?
        {
            Some(status) => break status,
            None if clock.elapsed_secs() > CHILD_TIMEOUT.as_secs_f64() => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{}: child exceeded {CHILD_TIMEOUT:?} and was killed",
                    id.name()
                ));
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let output = child
        .wait_with_output()
        .map_err(|e| format!("read child: {e}"))?;
    if !status.success() {
        return Err(format!("{}: child ended with {status}", id.name()));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().ok_or("child printed no result")?;
    parse(line).map_err(|e| format!("child result {line:?}: {e}"))
}

fn nums(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    let items = v
        .get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("child result lacks list {key:?}"))?;
    items
        .iter()
        .map(|item| match item {
            Value::Num(x) => Ok(*x),
            other => Err(format!("child result {key:?} holds {other:?}")),
        })
        .collect()
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::Num(x)) => Ok(*x),
        other => Err(format!("child result lacks number {key:?}: {other:?}")),
    }
}

/// One untraced run: the end-to-end metrics.
pub fn run_untraced(id: WorkloadId, args: RunArgs) -> Result<RunResult, String> {
    let children = if args.smoke { 1 } else { CHILDREN };
    let (mut walls, mut setups, mut rss, mut digests) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    for process in 0..children {
        let v = run_child(
            id,
            args.seed,
            process,
            args.seconds / children as f64,
            false,
            args.smoke,
        )?;
        walls.extend(nums(&v, "walls")?);
        setups.push(num(&v, "setup_s")?);
        rss.push(num(&v, "peak_rss_mb")?);
        attempted += num(&v, "attempted")? as u64;
        failed += num(&v, "failed")? as u64;
        digests.push(v.get("records_digest").cloned());
    }
    // One seed, so one set of inputs: every child must have produced the
    // same records.
    if digests.iter().any(|d| d != &digests[0]) {
        eprintln!(
            "benchmark: {}: records differ between processes of one seed",
            id.name()
        );
        failed += 1;
    }
    if walls.len() >= 2 {
        let [q1, q2, q3] = quartiles(&walls);
        println!(
            "{}: {} timed passes in {children} processes, pass time quartiles {q1:.4} {q2:.4} {q3:.4} s, \
             set-up median {:.4} s, peak RSS {:.1} to {:.1} MB",
            id.name(),
            walls.len(),
            median(&setups),
            best(&rss),
            rss.iter().copied().fold(0.0, f64::max),
        );
    }
    let value_of = |name: &str| match name {
        "wall_s" => best(&walls),
        "setup_s" => best(&setups),
        "peak_rss_mb" => median(&rss),
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, value_of(m.name), m.unit))
            .collect(),
    })
}

/// One traced run: the per-layer metrics.
pub fn run_traced(id: WorkloadId, args: RunArgs) -> Result<RunResult, String> {
    let v = run_child(id, args.seed, 0, args.seconds, true, args.smoke)?;
    let metrics = v.get("metrics").ok_or("child result lacks metrics")?;
    let failed = num(&v, "failed")? as u64;
    if let Some(file) = v.get("trace_file").and_then(Value::as_str) {
        println!("{}: trace written to {file}", id.name());
    }
    Ok(RunResult {
        correct: failed == 0,
        attempted: num(&v, "attempted")? as u64,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| Ok((m.name, num(metrics, m.name)?, m.unit)))
            .collect::<Result<_, String>>()?,
    })
}

/// Prints `workload name value unit` for every metric of a run.
pub fn print_metrics(id: WorkloadId, result: &RunResult) {
    for (name, value, unit) in &result.metrics {
        println!("{} {name} {value} {unit}", id.name());
    }
    let share = result.failed as f64 / result.attempted.max(1) as f64;
    println!(
        "{} fail_frac {share} ratio ({} of {})",
        id.name(),
        result.failed,
        result.attempted
    );
}

/// The contract's single run: one workload, traced or not, metrics by name
/// and the JSON result as the last line. Returns the process exit code.
pub fn run_one(id: WorkloadId, args: RunArgs, traced: bool) -> i32 {
    let result = if traced {
        run_traced(id, args)
    } else {
        run_untraced(id, args)
    };
    match result {
        Ok(result) => {
            print_metrics(id, &result);
            println!("{}", result.to_json().render());
            0
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            1
        }
    }
}

/// Every workload, untraced then traced; writes `results.json` beside the
/// traces. Exits non-zero if any cell failed.
pub fn run_all(args: RunArgs) -> i32 {
    println!("host {}", host::facts().to_json().render());
    println!("seed {}", args.seed);
    let mut failed_any = false;
    let mut doc = Vec::new();
    for id in WorkloadId::ALL {
        let mut runs = vec![("end_to_end", run_untraced(id, args))];
        if !args.smoke {
            runs.push(("per_layer", run_traced(id, args)));
        }
        let mut sections = Vec::new();
        for (section, result) in runs {
            match result {
                Ok(result) => {
                    print_metrics(id, &result);
                    failed_any |= !result.correct;
                    sections.push((section, result.to_json()));
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    failed_any = true;
                }
            }
        }
        doc.push((id.name(), Json::obj(sections)));
    }
    let results = Json::obj([
        ("schema", Json::str("hpcbench-benchmark-results-v1")),
        ("seed", Json::Num(args.seed as f64)),
        ("host", host::facts().to_json()),
        ("workloads", Json::obj(doc)),
    ]);
    let file = artefact_dir().join("results.json");
    match std::fs::create_dir_all(artefact_dir())
        .and_then(|()| std::fs::write(&file, results.pretty()))
    {
        Ok(()) => println!("results written to {}", file.display()),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", file.display()),
    }
    i32::from(failed_any)
}

/// By how much `b` is worse than `a`, as a share of `a`.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The A/A check: two sets of [`AA_RUNS`] untraced runs per workload, each
/// run with another seed, on unchanged code. Per end-to-end metric and
/// workload it prints both medians, how much worse the second is, both
/// spreads (interquartile distance over the median) and the bound; it fails
/// when a spread exceeds the bound or the medians differ by more than it,
/// in either direction. One traced run per set checks that every exact
/// count and digest repeats.
pub fn run_aa(args: RunArgs) -> i32 {
    println!("host {}", host::facts().to_json().render());
    let mut ok = true;
    println!("workload metric median_a median_b worse_by spread_a spread_b bound verdict");
    for id in WorkloadId::ALL {
        let mut sets: Vec<Vec<RunResult>> = Vec::new();
        let mut exact: Vec<Vec<(&'static str, f64)>> = Vec::new();
        for _ in 0..2 {
            let mut set = Vec::new();
            for run in 0..AA_RUNS {
                let seeded = RunArgs {
                    seed: args.seed + run,
                    ..args
                };
                match run_untraced(id, seeded) {
                    Ok(result) => {
                        ok &= result.correct;
                        set.push(result);
                    }
                    Err(e) => {
                        eprintln!("benchmark: {e}");
                        return 1;
                    }
                }
            }
            sets.push(set);
            match run_traced(id, args) {
                Ok(result) => {
                    ok &= result.correct;
                    exact.push(
                        PER_LAYER
                            .iter()
                            .filter(|m| m.exact())
                            .map(|m| (m.name, result.value(m.name)))
                            .collect(),
                    );
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return 1;
                }
            }
        }
        for m in END_TO_END {
            let values =
                |set: &[RunResult]| set.iter().map(|r| r.value(m.name)).collect::<Vec<_>>();
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let worse = worsening(ma, mb, m.better);
            let (sa, sb) = (spread(&a), spread(&b));
            let pass = sa <= m.bound && sb <= m.bound && worse.abs() <= m.bound;
            ok &= pass;
            println!(
                "{} {} {ma:.4} {mb:.4} {worse:+.4} {sa:.4} {sb:.4} {} {}",
                id.name(),
                m.name,
                m.bound,
                if pass { "ok" } else { "FAIL" }
            );
        }
        let same = exact[0] == exact[1];
        ok &= same;
        println!(
            "{} exact counts and digests ({}) {}",
            id.name(),
            exact[0].len(),
            if same { "identical" } else { "DIFFER" }
        );
        if !same {
            for (x, y) in exact[0].iter().zip(&exact[1]).filter(|(x, y)| x != y) {
                println!("{} {} {} vs {}", id.name(), x.0, x.1, y.1);
            }
        }
    }
    println!("A/A {}", if ok { "passed" } else { "FAILED" });
    i32::from(!ok)
}
