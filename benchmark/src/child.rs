//! One workload in one process: set-up, a warm pass, timed passes back to
//! back (a single-client closed loop), output checks — and, in a traced
//! run, extra passes with spans on plus the layer probes. The result goes
//! to the parent as one JSON line on stdout.

use std::path::PathBuf;

use harness::{Mode, Stopwatch};

use crate::cells::{WorkloadId, VIRTUAL_SUITE};
use crate::host;
use crate::json::Json;
use crate::probes;
use crate::spec::PER_LAYER;
use crate::stats::{best, median};
use crate::trace::{self, Tracer};
use crate::workloads::{check_pass, run_pass, setup, Inputs, PassOutput, Verdict};

/// What the child was asked to do.
pub struct ChildArgs {
    /// The workload.
    pub id: WorkloadId,
    /// Input seed.
    pub seed: u64,
    /// Which of the run's child processes this is.
    pub process: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Traced run: spans, probes and per-layer metrics.
    pub traced: bool,
    /// Fewest timed passes, whatever `seconds` says.
    pub min_passes: usize,
}

/// Where build products and run artefacts live: cargo's target directory.
pub fn artefact_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

/// Timed passes and their checks.
struct Timed {
    walls: Vec<f64>,
    attempted: usize,
    failed: usize,
    /// Values of the figure-of-merit records, one list per [`MERITS`] row.
    merits: [Vec<f64>; MERITS.len()],
}

/// Native records whose values are reported as figures of merit (only
/// `native_kernels` produces them).
const MERITS: [(&str, &str); 4] = [
    ("hpcc.hpl_gflops", "G-HPL"),
    ("hpcc.dgemm_gflops", "EP-DGEMM"),
    ("hpcc.fft_gflops", "G-FFT"),
    ("hpcc.stream_triad_gbs", "EP-STREAM-triad"),
];

fn record_value(out: &PassOutput, benchmark: &str) -> Option<f64> {
    out.cells
        .iter()
        .flatten()
        .flatten()
        .find(|r| r.benchmark == benchmark && r.mode == Mode::Native)
        .map(|r| r.value)
}

/// Counts one checked pass; outputs that differ from the warm pass's (same
/// seed, so same inputs) count as one more failure.
fn tally(timed: &mut Timed, verdict: &Verdict, reference: &Verdict) {
    timed.attempted += verdict.attempted;
    timed.failed += verdict.failed;
    if verdict.records_digest != reference.records_digest || verdict.figures != reference.figures {
        eprintln!(
            "benchmark: outputs differ between passes of one seed: {verdict:?} vs {reference:?}"
        );
        timed.failed += 1;
    }
}

/// Runs untraced passes, numbered from 1 (the warm pass is 0), until
/// `seconds` are used (at least `min_passes`).
fn timed_passes(inputs: &Inputs, reference: &Verdict, seconds: f64, min_passes: usize) -> Timed {
    let mut timed = Timed {
        walls: Vec::new(),
        attempted: 0,
        failed: 0,
        merits: Default::default(),
    };
    let clock = Stopwatch::start();
    loop {
        let out = run_pass(inputs, timed.walls.len() as u64 + 1, &mut Tracer::off());
        timed.walls.push(out.wall_s);
        for (values, (_, record)) in timed.merits.iter_mut().zip(MERITS) {
            values.extend(record_value(&out, record));
        }
        tally(&mut timed, &check_pass(inputs, &out), reference);
        // Stop when the next pass would overrun the budget by more than it
        // would underrun it.
        let next = clock.elapsed_secs() + 0.5 * median(&timed.walls);
        if timed.walls.len() >= min_passes && next > seconds {
            return timed;
        }
    }
}

/// Set-up and the warm pass; `setup_s` is read when the warm pass ends.
/// Returns the inputs, the warm pass's checked outputs (the reference every
/// later pass must match) and the set-up time.
fn warm_up(args: &ChildArgs, start: &Stopwatch) -> (Inputs, Verdict, f64) {
    let scratch = artefact_dir().join(format!("scratch-{}", std::process::id()));
    let inputs = setup(args.id, args.seed, args.process, &scratch);
    let warm = run_pass(&inputs, 0, &mut Tracer::off());
    let setup_s = start.elapsed_secs();
    let reference = check_pass(&inputs, &warm);
    (inputs, reference, setup_s)
}

/// The untraced run: end-to-end numbers only.
fn untraced(args: &ChildArgs, start: &Stopwatch) -> Json {
    let (inputs, reference, setup_s) = warm_up(args, start);
    let mut timed = timed_passes(&inputs, &reference, args.seconds, args.min_passes);
    timed.attempted += reference.attempted;
    timed.failed += reference.failed;
    let _ = std::fs::remove_dir_all(&inputs.scratch);
    Json::obj([
        ("setup_s", Json::Num(setup_s)),
        (
            "walls",
            Json::Arr(timed.walls.iter().map(|&w| Json::Num(w)).collect()),
        ),
        ("peak_rss_mb", Json::Num(host::peak_rss_mb().unwrap_or(0.0))),
        ("attempted", Json::Num(timed.attempted as f64)),
        ("failed", Json::Num(timed.failed as f64)),
        (
            "records_digest",
            reference
                .records_digest
                .map_or(Json::Null, |d| Json::Num(d as f64)),
        ),
    ])
}

/// Share of the budget a traced run spends on untraced passes first (they
/// are the baseline the traced pass is compared against).
const TRACED_BASELINE_SHARE: f64 = 0.4;

/// Traced passes per traced run.
const TRACED_PASSES: u64 = 3;

/// The traced run: per-layer numbers only.
fn traced(args: &ChildArgs, start: &Stopwatch) -> Json {
    let (inputs, reference, _) = warm_up(args, start);
    let mut timed = timed_passes(
        &inputs,
        &reference,
        args.seconds * TRACED_BASELINE_SHARE,
        args.min_passes.max(3),
    );
    timed.attempted += reference.attempted;
    timed.failed += reference.failed;

    // Traced passes, each under its own tracer and each followed by an
    // untraced pass in the same cell order, so both kinds do the same work
    // in the same stretch of host noise. The fastest traced pass is kept;
    // tracing cost is the fastest traced over the fastest of the
    // interleaved untraced passes.
    let mut traced_passes: Vec<(PassOutput, Verdict, Tracer)> = Vec::new();
    let mut interleaved = Vec::new();
    let first = timed.walls.len() as u64 + 1;
    for pass in first..first + TRACED_PASSES {
        let mut tracer = Tracer::on();
        let out = run_pass(&inputs, pass, &mut tracer);
        let verdict = check_pass(&inputs, &out);
        tally(&mut timed, &verdict, &reference);
        traced_passes.push((out, verdict, tracer));
        let plain = run_pass(&inputs, pass, &mut Tracer::off());
        tally(&mut timed, &check_pass(&inputs, &plain), &reference);
        interleaved.push(plain.wall_s);
    }
    traced_passes.sort_by(|a, b| a.0.wall_s.total_cmp(&b.0.wall_s));
    let (out, verdict, tracer) = traced_passes.swap_remove(0);
    let trace_overhead = out.wall_s / best(&interleaved) - 1.0;
    timed.walls.extend(interleaved);

    // The probes are traced apart from the pass, under a root of their own.
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let mut probe_tracer = Tracer::on();
    probe_tracer.span("bench", "probes", |t| {
        // virt_highrank's scaling exponent: one pass at twice the ranks
        // over the fastest pass; 1.0 is linear in the rank count.
        let mut scale_exp = 0.0;
        if args.id == WorkloadId::VirtHighrank {
            let mut doubled = setup(args.id, args.seed, args.process, &inputs.scratch);
            for c in &mut doubled.cells {
                c.procs *= 2;
            }
            let big = t.span("mp.virt", "probe:virt_scale", |_| {
                run_pass(&doubled, 0, &mut Tracer::off())
            });
            // Another world size gives other records, so only its checks
            // count.
            let checked = check_pass(&doubled, &big);
            timed.attempted += checked.attempted;
            timed.failed += checked.failed;
            scale_exp = (big.wall_s / best(&timed.walls)).log2();
        }
        values.push(("virt.scale_exp", scale_exp));
        values.extend(probes::run_all(t));
    });
    let _ = std::fs::remove_dir_all(&inputs.scratch);

    let spans = tracer.spans();
    let named = |prefix: &str| trace::total_named(spans, prefix);
    let layers = trace::layer_self_times(spans);
    let pass_self = trace::self_times(spans)[0];
    values.extend([
        ("hpcc.hpl_s", named("cell:G-HPL/")),
        ("hpcc.ptrans_s", named("cell:G-PTRANS/")),
        ("hpcc.randomaccess_s", named("cell:G-RandomAccess/")),
        ("hpcc.stream_s", named("cell:EP-STREAM/")),
        ("hpcc.fft_s", named("cell:G-FFT/")),
        ("hpcc.dgemm_s", named("cell:EP-DGEMM/")),
        (
            "hpcc.virtual_components_s",
            named(&format!("cell:{VIRTUAL_SUITE}/")),
        ),
        ("virt.cell_s_pingpong", named("cell:PingPong/virtual/")),
        ("virt.cell_s_barrier", named("cell:Barrier/virtual/")),
        ("virt.cell_s_bcast", named("cell:Bcast/virtual/")),
        ("virt.cell_s_allreduce", named("cell:Allreduce/virtual/")),
        ("imb.cells_s", layers.get("imb").copied().unwrap_or(0.0)),
        ("harness.plan_execute_s", named("plan.execute")),
        ("harness.records_json_s", named("records_json")),
        ("harness.plan_records", verdict.records as f64),
        ("core.write_all_s", named("write_all")),
        (
            "core.figures_files",
            verdict.figures.map_or(0.0, |f| f.1 as f64),
        ),
        (
            "core.figures_bytes",
            verdict.figures.map_or(0.0, |f| f.2 as f64),
        ),
        (
            "sim.figures_digest53",
            verdict.figures.map_or(0.0, |f| f.0 as f64),
        ),
        ("bench.trace_overhead_frac", trace_overhead),
        ("bench.root_self_frac", pass_self / spans[0].secs()),
        ("bench.traced_pass_s", out.wall_s),
        ("bench.untraced_passes", timed.walls.len() as f64),
    ]);
    let digest = verdict.records_digest.map_or(0.0, |d| d as f64);
    let simulated = args.id == WorkloadId::SimPaper;
    values.push(("sim.records_digest53", if simulated { digest } else { 0.0 }));
    values.push((
        "virt.records_digest53",
        if simulated { 0.0 } else { digest },
    ));
    for (&(metric, _), samples) in MERITS.iter().zip(&timed.merits) {
        // Rates: the best pass is the largest value.
        values.push((metric, samples.iter().copied().fold(0.0, f64::max)));
    }

    let counts: Vec<(String, f64)> = values
        .iter()
        .filter(|(name, _)| PER_LAYER.iter().any(|m| m.name == *name && m.exact()))
        .map(|&(name, v)| (name.to_string(), v))
        .collect();
    let file = artefact_dir().join(format!("trace-{}.json", args.id.name()));
    let doc = trace::trace_json(
        args.id.name(),
        args.seed,
        spans,
        probe_tracer.spans(),
        &counts,
    );
    if let Err(e) =
        std::fs::create_dir_all(artefact_dir()).and_then(|()| std::fs::write(&file, doc.pretty()))
    {
        eprintln!("benchmark: cannot write {}: {e}", file.display());
        timed.failed += 1;
    }

    Json::obj([
        (
            "metrics",
            Json::obj(PER_LAYER.iter().map(|m| {
                let value = values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name))
                    .1;
                (m.name, Json::Num(value))
            })),
        ),
        ("attempted", Json::Num(timed.attempted as f64)),
        ("failed", Json::Num(timed.failed as f64)),
        ("trace_file", Json::str(file.display().to_string())),
    ])
}

/// Runs the child and prints its result line.
pub fn run(args: &ChildArgs, start: &Stopwatch) {
    let result = if args.traced {
        traced(args, start)
    } else {
        untraced(args, start)
    };
    println!("{}", result.render());
}
