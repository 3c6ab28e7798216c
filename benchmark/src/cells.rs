//! Input generation: `--seed` to the list of cells one pass runs. The
//! seed reaches nothing outside this file — the stack under test only ever
//! sees the generated cells.

use harness::{Mode, Registry, Suite};
use hpcc::suite::Component;
use machines::Machine;
use simnet::units::{KIB, MIB};

/// The five workloads, by their fixed names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// Simulated paper campaign plus figure regeneration.
    SimPaper,
    /// Virtual IMB slice at thousands of cooperative ranks, 1 KiB.
    VirtHighrank,
    /// Virtual IMB and HPCC at few ranks with MiB messages.
    VirtPayload,
    /// Native HPCC components on one rank, one thread.
    NativeKernels,
    /// Native IMB on two OS threads.
    NativeMp,
}

impl WorkloadId {
    /// All workloads, in reporting order.
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::SimPaper,
        WorkloadId::VirtHighrank,
        WorkloadId::VirtPayload,
        WorkloadId::NativeKernels,
        WorkloadId::NativeMp,
    ];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::SimPaper => "sim_paper",
            WorkloadId::VirtHighrank => "virt_highrank",
            WorkloadId::VirtPayload => "virt_payload",
            WorkloadId::NativeKernels => "native_kernels",
            WorkloadId::NativeMp => "native_mp",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Largest simulated CPU count of `sim_paper` (grid and figures alike).
/// At 256 a pass takes 2.9 s, too long for eight passes in a run.
pub const SIM_MAX_PROCS: usize = 128;
/// Cooperative ranks per `virt_highrank` cell.
pub const HIGHRANK_PROCS: usize = 2048;
/// Message size of the `virt_highrank` cells.
pub const HIGHRANK_BYTES: u64 = KIB;
/// The four benchmarks of the `campaign --high-rank` slice.
pub const HIGHRANK_BENCHMARKS: [&str; 4] = ["PingPong", "Barrier", "Bcast", "Allreduce"];
/// Ranks of the `virt_payload` IMB cells.
pub const PAYLOAD_PROCS: usize = 16;
/// Nominal message sizes of the `virt_payload` IMB cells.
pub const PAYLOAD_BYTES: [u64; 2] = [64 * KIB, MIB];
/// Rank counts of the `virt_payload` whole-suite HPCC cells.
pub const PAYLOAD_SUITE_PROCS: [usize; 2] = [8, 16];
/// Nominal message sizes of `native_mp`.
pub const NATIVE_MP_BYTES: [u64; 5] = [8, KIB, 64 * KIB, MIB, 4 * MIB];
/// Name of the whole-suite virtual HPCC cell (not a registry entry: the
/// registry runs one component per world, this cell runs all seven in one).
pub const VIRTUAL_SUITE: &str = "HPCC-suite";

/// What one cell calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Work {
    /// The registry entry `name`, in this mode.
    Registry(Mode),
    /// `hpcc::virtual_run::run_virtual_components` over all components.
    VirtualSuite,
    /// `hpcc::suite::run_component_native` at the benchmark's own sizes.
    NativeComponent(Component),
}

/// One unit of a pass: a (workload entry, machine, ranks, bytes) point.
/// A workload's cells are kept in canonical order, the order their records
/// are hashed in.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Registry name of the entry, or [`VIRTUAL_SUITE`].
    pub name: &'static str,
    /// What the cell calls.
    pub work: Work,
    /// Index into the workload's machine list (0 for native cells).
    pub machine: usize,
    /// World size.
    pub procs: usize,
    /// Message size before the seed's jitter; `None` for unsized entries.
    pub nominal: Option<u64>,
    /// Message size the cell runs at.
    pub bytes: Option<u64>,
    /// The layer the call enters (`imb` or `hpcc`).
    pub layer: &'static str,
    /// Span name: `cell:<entry>/<mode>/p<procs>/<bytes>`.
    pub label: String,
}

/// splitmix64: the workspace's usual seeded generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The machine models a workload prices against (empty for native ones).
pub fn machines_for(id: WorkloadId) -> Vec<Machine> {
    match id {
        WorkloadId::SimPaper => machines::systems::all_variants(),
        WorkloadId::VirtHighrank => vec![machines::systems::exascale_cluster()],
        WorkloadId::VirtPayload => vec![machines::systems::dell_xeon()],
        WorkloadId::NativeKernels | WorkloadId::NativeMp => Vec::new(),
    }
}

/// Mixed into the seed, so the benchmark's streams differ from any the
/// stack under test draws from the same number.
const SEED_SALT: u64 = 0x6870_6362_656e_6368; // "hpcbench"

/// The cells of `id`, in canonical order, at the sizes `seed` gives them:
/// for `virt_payload` and `native_mp` the seed moves each large cell a
/// little off its nominal size (see [`jitter`]); `sim_paper` keeps the
/// paper's exact 1 MiB. The order they run in is [`pass_order`]'s.
pub fn cells_for(
    id: WorkloadId,
    seed: u64,
    registry: &Registry,
    machines: &[Machine],
) -> Vec<Cell> {
    let mut cells = canonical_cells(id, registry, machines);
    if matches!(id, WorkloadId::VirtPayload | WorkloadId::NativeMp) {
        jitter(&mut cells, &mut Rng::new(seed ^ SEED_SALT));
    }
    for c in &mut cells {
        c.label = label(c);
    }
    cells
}

/// The order (indices into the canonical list) in which pass number `pass`
/// of a run with `seed` visits its `cells` cells: a Fisher–Yates shuffle of
/// its own for every pass.
///
/// Every pass gets another order because the order decides what the
/// allocator still holds when the largest cell runs: with one order per
/// seed, `native_kernels` peaked at 247 or 323 MB and `native_mp` at 44, 48
/// or 52 MB depending on the seed alone. Over the orders of all its passes
/// a process reaches the same peak whatever the seed.
pub fn pass_order(seed: u64, pass: u64, cells: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ SEED_SALT ^ pass.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut order: Vec<usize> = (0..cells).collect();
    rng.shuffle(&mut order);
    order
}

fn label(c: &Cell) -> String {
    let mode = match c.work {
        Work::Registry(mode) => mode.as_str(),
        Work::VirtualSuite => "virtual",
        Work::NativeComponent(_) => "native",
    };
    let bytes = c.bytes.map_or_else(|| "-".to_string(), |b| b.to_string());
    format!("cell:{}/{mode}/p{}/{bytes}", c.name, c.procs)
}

fn layer_of(suite: Suite) -> &'static str {
    match suite {
        Suite::Hpcc => "hpcc",
        Suite::Imb => "imb",
    }
}

/// The sizes an entry runs at: every listed size, or once when unsized.
fn sizes_for(sized: bool, sizes: &[u64]) -> Vec<Option<u64>> {
    if sized {
        sizes.iter().copied().map(Some).collect()
    } else {
        vec![None]
    }
}

fn canonical_cells(id: WorkloadId, registry: &Registry, machines: &[Machine]) -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();
    let mut push = |name, work, machine, procs, nominal: Option<u64>, layer| {
        cells.push(Cell {
            name,
            work,
            machine,
            procs,
            nominal,
            bytes: nominal,
            layer,
            label: String::new(),
        });
    };
    let imb_entries = || registry.suite(Suite::Imb).map(|w| w.meta);
    match id {
        WorkloadId::SimPaper => {
            // `campaign`'s paper plan: every entry x every machine variant
            // x powers of two from 2 up to the installation (capped) x the
            // paper's 1 MiB.
            for w in registry.iter() {
                for (mi, m) in machines.iter().enumerate() {
                    let mut p = 2;
                    while p <= m.max_cpus.min(SIM_MAX_PROCS) {
                        let bytes = w.meta.sized.then_some(MIB);
                        let layer = layer_of(w.meta.suite);
                        push(
                            w.meta.name,
                            Work::Registry(Mode::Simulated),
                            mi,
                            p,
                            bytes,
                            layer,
                        );
                        p *= 2;
                    }
                }
            }
        }
        WorkloadId::VirtHighrank => {
            for name in HIGHRANK_BENCHMARKS {
                let meta = registry.get(name).expect("an IMB entry").meta;
                let bytes = meta.sized.then_some(HIGHRANK_BYTES);
                push(
                    meta.name,
                    Work::Registry(Mode::Virtual),
                    0,
                    HIGHRANK_PROCS,
                    bytes,
                    "imb",
                );
            }
        }
        WorkloadId::VirtPayload => {
            for meta in imb_entries() {
                for bytes in sizes_for(meta.sized, &PAYLOAD_BYTES) {
                    let work = Work::Registry(Mode::Virtual);
                    push(meta.name, work, 0, PAYLOAD_PROCS, bytes, "imb");
                }
            }
            for p in PAYLOAD_SUITE_PROCS {
                push(VIRTUAL_SUITE, Work::VirtualSuite, 0, p, None, "hpcc");
            }
        }
        WorkloadId::NativeKernels => {
            for c in Component::ALL {
                if c != Component::RandomRing {
                    push(c.name(), Work::NativeComponent(c), 0, 1, None, "hpcc");
                }
            }
        }
        WorkloadId::NativeMp => {
            for meta in imb_entries() {
                for bytes in sizes_for(meta.sized, &NATIVE_MP_BYTES) {
                    push(meta.name, Work::Registry(Mode::Native), 0, 2, bytes, "imb");
                }
            }
        }
    }
    // As `RunPlan::execute` does, leave out the grid points an entry does
    // not admit (too few ranks, not a power of two, no closure for the mode).
    cells.retain(|c| match c.work {
        Work::Registry(mode) => {
            let w = registry.get(c.name).expect("cells name registry entries");
            w.supports(mode) && w.meta.admits(c.procs, mode)
        }
        Work::VirtualSuite | Work::NativeComponent(_) => true,
    });
    cells
}

/// Jittered sizes are rounded to this many bytes, so that no seed flips
/// which algorithm a collective picks (allreduce's long-message path needs a
/// word count divisible by the world's power of two).
const JITTER_ALIGN: u64 = 256;

/// Smallest nominal size the seed moves; below it a cell runs at exactly
/// its nominal size (the offsets would not survive the rounding).
const JITTER_FROM: u64 = MIB;

/// Largest offset from the nominal size, as a share of it. Small on
/// purpose: three MiB-sized all-to-all cells make up most of a
/// `virt_payload` pass and set its peak RSS, so the size the seed deals
/// them reads as run-to-run noise between seeds (at 1/32, 3 % of RSS).
/// 1/64 still keeps every seed off the power-of-two sizes.
const JITTER_SHARE: f64 = 1.0 / 64.0;

/// Moves every cell of at least [`JITTER_FROM`] off its nominal size by up
/// to [`JITTER_SHARE`]. The cells sharing one nominal size get evenly
/// spaced offsets in a seeded order, so every seed runs the same multiset
/// of sizes.
fn jitter(cells: &mut [Cell], rng: &mut Rng) {
    let mut nominals: Vec<u64> = cells.iter().filter_map(|c| c.nominal).collect();
    nominals.sort_unstable();
    nominals.dedup();
    for nominal in nominals.into_iter().filter(|&n| n >= JITTER_FROM) {
        let mut group: Vec<usize> = (0..cells.len())
            .filter(|&i| cells[i].nominal == Some(nominal))
            .collect();
        rng.shuffle(&mut group);
        let k = group.len() as f64;
        for (slot, i) in group.into_iter().enumerate() {
            // Off-centre by a quarter step, so no slot lands on the nominal
            // (power-of-two) size itself.
            let offset = JITTER_SHARE * (2.0 * (slot as f64 + 0.25) / k - 1.0);
            let bytes = (nominal as f64 * (1.0 + offset)).round() as u64;
            cells[i].bytes = Some(bytes / JITTER_ALIGN * JITTER_ALIGN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(id: WorkloadId, seed: u64) -> Vec<Cell> {
        let registry = hpcbench::registry();
        cells_for(id, seed, &registry, &machines_for(id))
    }

    #[test]
    fn same_seed_gives_the_same_cells_and_orders() {
        for id in WorkloadId::ALL {
            assert_eq!(generate(id, 7), generate(id, 7), "{}", id.name());
        }
        assert_eq!(pass_order(7, 3, 56), pass_order(7, 3, 56));
    }

    #[test]
    fn another_seed_or_pass_reorders_the_same_nominal_cells() {
        for id in WorkloadId::ALL {
            let nominal = |seed| {
                generate(id, seed)
                    .into_iter()
                    .map(|c| (c.name, c.machine, c.procs, c.nominal))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                nominal(1),
                nominal(2),
                "{}: nominal cells are fixed",
                id.name()
            );
            let n = nominal(1).len();
            assert_ne!(pass_order(1, 0, n), pass_order(2, 0, n), "{}", id.name());
            assert_ne!(pass_order(1, 0, n), pass_order(1, 1, n), "{}", id.name());
            let mut sorted = pass_order(1, 0, n);
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "a permutation");
        }
    }

    #[test]
    fn jitter_keeps_the_multiset_of_sizes_and_the_alignment() {
        for id in [WorkloadId::VirtPayload, WorkloadId::NativeMp] {
            let (a, b) = (generate(id, 1), generate(id, 2));
            let sizes = |cells: &[Cell]| {
                let mut s: Vec<_> = cells.iter().map(|c| (c.nominal, c.bytes)).collect();
                s.sort();
                s
            };
            assert_eq!(sizes(&a), sizes(&b), "{}", id.name());
            let in_place = |cells: &[Cell]| cells.iter().map(|c| c.bytes).collect::<Vec<_>>();
            assert_ne!(
                in_place(&a),
                in_place(&b),
                "{}: sizes move between cells",
                id.name()
            );
            for c in &a {
                let (Some(n), Some(b)) = (c.nominal, c.bytes) else {
                    continue;
                };
                if n < JITTER_FROM {
                    assert_eq!(b, n, "small sizes stay exact");
                } else {
                    assert_eq!(b % JITTER_ALIGN, 0, "{c:?}");
                    assert!(!b.is_power_of_two(), "{c:?}");
                    let off = b as f64 / n as f64 - 1.0;
                    assert!(off.abs() <= JITTER_SHARE, "{c:?}");
                }
            }
        }
    }

    #[test]
    fn unjittered_workloads_keep_nominal_sizes() {
        for id in [
            WorkloadId::SimPaper,
            WorkloadId::VirtHighrank,
            WorkloadId::NativeKernels,
        ] {
            assert!(generate(id, 3).iter().all(|c| c.bytes == c.nominal));
        }
    }

    #[test]
    fn grid_points_an_entry_does_not_admit_are_left_out() {
        use harness::{MetricKind, Workload, WorkloadMeta};
        let meta = |name, min_procs| WorkloadMeta {
            name,
            suite: Suite::Imb,
            metric: MetricKind::TimeUs,
            min_procs,
            pow2_procs: false,
            sized: false,
        };
        let mut registry = Registry::new();
        registry.register(Workload::new(meta("needs-four", 4)).simulated(|_, _, _| Vec::new()));
        registry.register(Workload::new(meta("no-closure", 2)));
        let machines = machines_for(WorkloadId::SimPaper);
        let cells = cells_for(WorkloadId::SimPaper, 1, &registry, &machines);
        assert!(!cells.is_empty());
        assert!(cells.iter().all(|c| c.name == "needs-four" && c.procs >= 4));
    }

    #[test]
    fn cell_counts_are_the_documented_ones() {
        let count = |id| generate(id, 0).len();
        // 19 entries x (7 + 7 + 4 + 6 + 7 + 7 + 7) proc counts: powers of
        // two from 2 to 128, fewer on the 16- and 64-CPU Cray X1 modes.
        assert_eq!(count(WorkloadId::SimPaper), 19 * 45);
        assert_eq!(count(WorkloadId::VirtHighrank), 4);
        // 11 sized x 2 sizes + Barrier + 2 suite cells.
        assert_eq!(count(WorkloadId::VirtPayload), 25);
        assert_eq!(count(WorkloadId::NativeKernels), 6);
        // 11 sized x 5 sizes + Barrier.
        assert_eq!(count(WorkloadId::NativeMp), 56);
    }
}
