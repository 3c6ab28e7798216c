//! The five workloads: set-up (registry, machine models, seeded cells) and
//! one pass, with a span around every call into the stack. Everything is
//! reached through public functions of the crates; nothing here looks
//! inside them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use harness::{records_json, Mode, Record, Registry, Runner, Stopwatch};
use hpcbench::figures::FigureConfig;
use hpcbench::output::{write_all, OutputConfig};
use hpcc::suite::{Component, SuiteConfig};
use machines::Machine;
use simnet::units::MIB;

use crate::cells::{cells_for, machines_for, pass_order, Cell, Work, WorkloadId, SIM_MAX_PROCS};
use crate::trace::Tracer;

/// Sizes of the `native_kernels` components: HPL, DGEMM, FFT and STREAM
/// each take 0.15 to 0.3 s of a pass of about 1.1 s. Each STREAM array is
/// 64 MiB; whether that exceeds four times the host's last-level cache is
/// reported with the run (`kernels.stream_array_per_llc` probes 32 MiB).
pub const NATIVE_KERNELS_CONFIG: SuiteConfig = SuiteConfig {
    hpl_n: 1792,
    hpl_nb: 64,
    ptrans_n: 2048,
    ra_log2_size: 21,
    stream_len: 1 << 23,
    fft_log2_n: 21,
    dgemm_n: 1536,
    ring_bytes: 100_000,
    hpl_2d: false,
};

/// Everything set-up produces: what a pass needs and nothing it must
/// rebuild.
pub struct Inputs {
    /// Which workload this is.
    pub id: WorkloadId,
    /// The workspace's registry of all 19 entries.
    pub registry: Registry,
    /// The machine models the cells index into.
    pub machines: Vec<Machine>,
    /// The seed and which of the run's processes this is: with the pass
    /// number they give each pass its cell order.
    pub seed: u64,
    /// See `seed`.
    pub process: u64,
    /// The cells of one pass, in canonical order at their seeded sizes.
    pub cells: Vec<Cell>,
    /// Repetition policy of the registry cells.
    pub runner: Runner,
    /// Where `sim_paper` writes its figure tree.
    pub scratch: PathBuf,
}

/// Builds a workload's inputs from the seed.
pub fn setup(id: WorkloadId, seed: u64, process: u64, scratch: &Path) -> Inputs {
    // One thread per rank everywhere: the plain single-thread baseline.
    smp::pool::set_process_threads(1);
    // Load the per-host tuning table now, so the passes never pay for it.
    let _ = smp::tune::tuned();
    let registry = hpcbench::registry();
    let machines = machines_for(id);
    let cells = cells_for(id, seed, &registry, &machines);
    let runner = match id {
        WorkloadId::SimPaper | WorkloadId::NativeMp => Runner::standard(),
        WorkloadId::VirtHighrank => Runner::fixed(1),
        WorkloadId::VirtPayload => Runner::fixed(2),
        WorkloadId::NativeKernels => Runner::fixed(1),
    };
    Inputs {
        id,
        seed,
        process,
        registry,
        machines,
        cells,
        runner,
        scratch: scratch.to_path_buf(),
    }
}

/// What one pass produced, before it is checked.
pub struct PassOutput {
    /// Wall time of the pass: cells, figure tree and record serialisation.
    pub wall_s: f64,
    /// Per cell, in canonical order: its records, or `None` if it panicked.
    pub cells: Vec<Option<Vec<Record>>>,
    /// The records document of the pass, records in canonical order.
    pub records_json: String,
    /// Whether `write_all` succeeded (`sim_paper` only; true elsewhere).
    pub figures_ok: bool,
}

fn run_cell(inputs: &Inputs, cell: &Cell) -> Vec<Record> {
    match cell.work {
        Work::Registry(mode) => {
            let machine = (mode != Mode::Native).then(|| &inputs.machines[cell.machine]);
            inputs
                .registry
                .get(cell.name)
                .expect("cells name registry entries")
                .run(mode, &inputs.runner, machine, cell.procs, cell.bytes)
                .expect("cells are admissible")
        }
        Work::VirtualSuite => hpcc::virtual_run::run_virtual_components(
            &inputs.machines[cell.machine],
            cell.procs,
            &SuiteConfig::small(cell.procs),
            &Component::ALL,
        ),
        Work::NativeComponent(c) => {
            hpcc::suite::run_component_native(cell.procs, c, &NATIVE_KERNELS_CONFIG)
        }
    }
}

/// The figure-tree configuration of `sim_paper`.
fn output_config(dir: &Path) -> OutputConfig {
    OutputConfig {
        out_dir: dir.to_path_buf(),
        figures: FigureConfig {
            max_procs: SIM_MAX_PROCS,
            imb_bytes: MIB,
            ..FigureConfig::default()
        },
        // The extension studies grow past 100 GB; they are not the paper.
        with_extensions: false,
        verbose: false,
    }
}

/// Runs pass number `pass`, which fixes the order of its cells. A
/// panicking cell is caught and reported as failed, so one bad cell costs
/// one cell, not the run.
pub fn run_pass(inputs: &Inputs, pass: u64, tracer: &mut Tracer) -> PassOutput {
    let clock = Stopwatch::start();
    let mut cells: Vec<Option<Vec<Record>>> = vec![None; inputs.cells.len()];
    let mut json = String::new();
    let mut figures_ok = true;
    tracer.span("bench", "pass", |t| {
        t.span("harness", "plan.execute", |t| {
            // No two passes of a run share an order, in whichever of its
            // processes they run.
            let pass = inputs.process << 32 | pass;
            for idx in pass_order(inputs.seed, pass, inputs.cells.len()) {
                let cell = &inputs.cells[idx];
                cells[idx] = t.span(cell.layer, &cell.label, |_| {
                    catch_unwind(AssertUnwindSafe(|| run_cell(inputs, cell))).ok()
                });
            }
        });
        if inputs.id == WorkloadId::SimPaper {
            figures_ok = t.span("core", "write_all", |_| {
                write_all(&output_config(&inputs.scratch)).is_ok()
            });
        }
        json = t.span("harness", "records_json", |_| {
            let flat: Vec<Record> = cells.iter().flatten().flatten().copied().collect();
            records_json(&flat)
        });
    });
    PassOutput {
        wall_s: clock.elapsed_secs(),
        cells,
        records_json: json,
        figures_ok,
    }
}

/// 64-bit FNV-1a, folded to 53 bits so the digest is exact as a JSON number.
pub fn digest53(chunks: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in chunk.as_ref() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Chunk boundary, so ["ab", "c"] and ["a", "bc"] differ.
        h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 53)) & ((1 << 53) - 1)
}

/// Digest, file count and byte count of a written figure tree.
pub fn tree_digest(dir: &Path) -> std::io::Result<(u64, usize, u64)> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    names.sort();
    let mut chunks: Vec<Vec<u8>> = Vec::new();
    let mut bytes = 0u64;
    for path in &names {
        let body = std::fs::read(path)?;
        bytes += body.len() as u64;
        let name = path.file_name().expect("directory entries have names");
        chunks.push(name.to_string_lossy().into_owned().into_bytes());
        chunks.push(body);
    }
    Ok((digest53(&chunks), names.len(), bytes))
}

/// The checked outcome of one pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Verdict {
    /// Cells run, plus one for the figure tree where there is one.
    pub attempted: usize,
    /// Cells that panicked or returned a record with `passed == false`
    /// (HPL's scaled residual >= 16, G-FFT's error >= 1e-10, a failed
    /// verification of any other component), plus a failed `write_all`.
    pub failed: usize,
    /// Records produced.
    pub records: usize,
    /// Digest of the records document; only simulated and virtual passes
    /// have one, native records carry wall-clock timings.
    pub records_digest: Option<u64>,
    /// Digest, files and bytes of the figure tree (`sim_paper`).
    pub figures: Option<(u64, usize, u64)>,
}

/// Checks a pass's outputs.
pub fn check_pass(inputs: &Inputs, out: &PassOutput) -> Verdict {
    let mut v = Verdict {
        attempted: out.cells.len(),
        ..Verdict::default()
    };
    for records in &out.cells {
        match records {
            Some(recs) if !recs.is_empty() && recs.iter().all(|r| r.passed) => {}
            _ => v.failed += 1,
        }
        v.records += records.as_ref().map_or(0, Vec::len);
    }
    let deterministic = !matches!(inputs.id, WorkloadId::NativeKernels | WorkloadId::NativeMp);
    if deterministic {
        v.records_digest = Some(digest53([&out.records_json]));
    }
    if inputs.id == WorkloadId::SimPaper {
        v.attempted += 1;
        match tree_digest(&inputs.scratch) {
            Ok(tree) if out.figures_ok => v.figures = Some(tree),
            _ => v.failed += 1,
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_content_and_chunking() {
        assert_eq!(digest53(["abc"]), digest53(["abc"]));
        assert_ne!(digest53(["abc"]), digest53(["abd"]));
        assert_ne!(digest53(["ab", "c"]), digest53(["a", "bc"]));
        assert!(digest53(["x"]) < (1 << 53));
    }

    #[test]
    fn a_failed_record_or_a_panicked_cell_counts_as_failed() {
        let scratch = std::env::temp_dir();
        let inputs = setup(WorkloadId::VirtHighrank, 1, 0, &scratch);
        let ok = inputs
            .registry
            .get("PingPong")
            .unwrap()
            .run(
                Mode::Simulated,
                &inputs.runner,
                Some(&inputs.machines[0]),
                2,
                Some(8),
            )
            .unwrap();
        let mut bad = ok.clone();
        bad[0].passed = false;
        let out = PassOutput {
            wall_s: 1.0,
            cells: vec![Some(ok), Some(bad), None, Some(Vec::new())],
            records_json: String::new(),
            figures_ok: true,
        };
        let v = check_pass(&inputs, &out);
        assert_eq!((v.attempted, v.failed, v.records), (4, 3, 2));
        assert!(v.records_digest.is_some());
    }
}
