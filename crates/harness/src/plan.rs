//! The campaign driver: a [`RunPlan`] describes {machines x modes x
//! workloads x proc counts x message sizes} and executes it against a
//! [`Registry`](crate::Registry), producing one unified record stream.
//! One plan regenerates the inputs for every paper table and figure.

use machines::Machine;
use mp::Backend;

use crate::record::{Mode, Record};
use crate::runner::Runner;
use crate::workload::{Registry, Workload, WorkloadMeta};

/// A per-workload grid function: called with the machine (`None` in
/// native mode) and the workload's metadata.
pub type GridFn = dyn Fn(Option<&Machine>, &WorkloadMeta) -> Vec<usize> + Send + Sync;

/// Visitor over the plan's (workload, mode, machine, procs, bytes) grid
/// points, in deterministic execution order (see `RunPlan::walk`).
type GridVisitor<'a> = dyn FnMut(&Workload, Mode, Option<&Machine>, usize, Option<u64>) + 'a;

/// The processor counts a plan sweeps.
pub enum ProcGrid {
    /// One explicit list, shared by every workload and machine (capped
    /// at each machine's installation size).
    List(Vec<usize>),
    /// A per-workload grid: this is how the figure campaign reproduces
    /// the paper's per-machine grids.
    PerWorkload(Box<GridFn>),
    /// Powers of two from the workload's minimum rank count through the
    /// given ceiling — the high-rank scaling axis the cooperative rank
    /// scheduler opened up (virtual worlds are tasks, not OS threads, so
    /// the ceiling can sit orders of magnitude past the host's thread
    /// budget). Entries above a machine's installation size are still
    /// skipped by the plan as usual.
    Pow2Through(usize),
}

impl ProcGrid {
    /// Convenience constructor for the closure variant.
    pub fn per_workload(
        f: impl Fn(Option<&Machine>, &WorkloadMeta) -> Vec<usize> + Send + Sync + 'static,
    ) -> ProcGrid {
        ProcGrid::PerWorkload(Box::new(f))
    }

    fn resolve(&self, machine: Option<&Machine>, meta: &WorkloadMeta) -> Vec<usize> {
        match self {
            ProcGrid::List(list) => list.clone(),
            ProcGrid::PerWorkload(f) => f(machine, meta),
            ProcGrid::Pow2Through(cap) => {
                let mut grid = Vec::new();
                let mut p = meta.min_procs.max(2).next_power_of_two();
                while p <= *cap {
                    grid.push(p);
                    p *= 2;
                }
                grid
            }
        }
    }
}

/// One native-mode grid cell of a plan: the unit of work a
/// multi-process backend ships to a worker fleet. Simulated and virtual
/// execution are deterministic model evaluation and always run
/// in-process, so only native cells are enumerated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// The workload's registry name.
    pub workload: &'static str,
    /// World size (rank count) for this cell.
    pub procs: usize,
    /// Message size, `None` for unsized workloads.
    pub bytes: Option<u64>,
}

/// A full campaign description: which workloads to run, in which modes,
/// on which machines, at which scales.
pub struct RunPlan {
    /// The transport backend native measurements run over. `Local` is
    /// the seed path ([`RunPlan::execute`] runs every rank as a thread
    /// of this process); `Tcp` marks the plan's native cells as
    /// destined for a worker fleet, which a driver launches per cell
    /// through [`RunPlan::execute_lines`] (the harness cannot spawn the
    /// fleet itself — only the driver binary knows its own executable).
    pub backend: Backend,
    /// Execution modes, in order.
    pub modes: Vec<Mode>,
    /// Machine models for the simulated and virtual modes (ignored by
    /// native execution, which runs on the host).
    pub machines: Vec<Machine>,
    /// Processor counts.
    pub procs: ProcGrid,
    /// Message sizes for sized workloads (unsized workloads run once per
    /// proc count regardless).
    pub bytes: Vec<u64>,
    /// Workload-name filter; `None` runs the whole registry.
    pub workloads: Option<Vec<&'static str>>,
    /// The runner (warm-up + repetition policy) shared by every
    /// measurement.
    pub runner: Runner,
}

impl RunPlan {
    /// The high-rank virtual slice: real benchmark code at `procs`
    /// cooperative ranks on the exascale extension model — worlds far past
    /// the host's OS-thread budget. Barrier and the rooted collectives keep
    /// per-rank state O(bytes), so even 100k-rank worlds fit on one host.
    pub fn high_rank(procs: usize) -> RunPlan {
        RunPlan {
            backend: Backend::Local,
            modes: vec![Mode::Virtual],
            machines: vec![machines::systems::exascale_cluster()],
            procs: ProcGrid::List(vec![procs]),
            bytes: vec![1024],
            workloads: Some(vec!["PingPong", "Barrier", "Bcast", "Allreduce"]),
            runner: Runner::fixed(1),
        }
    }

    /// Executes the plan, returning every record it produced, in
    /// deterministic (workload, mode, machine, procs, bytes) order.
    ///
    /// Requires [`Backend::Local`]: native measurements run in-process,
    /// every rank a thread. Multi-process plans go through
    /// [`RunPlan::execute_lines`] with a fleet runner instead.
    pub fn execute(&self, registry: &Registry) -> Vec<Record> {
        assert_eq!(
            self.backend,
            Backend::Local,
            "execute() runs native cells in-process; drive a {} plan \
             through execute_lines() with a per-cell fleet runner",
            self.backend
        );
        let mut out = Vec::new();
        self.walk(registry, &mut |workload, mode, machine, p, bytes| {
            if let Some(recs) = workload.run(mode, &self.runner, machine, p, bytes) {
                out.extend(recs);
            }
        });
        out
    }

    /// Visits every (workload, mode, machine, procs, bytes) grid point of
    /// the plan, in the deterministic execution order. Admissibility
    /// (min_procs, pow2, closure presence) is the visitor's concern —
    /// `Workload::run` already gates on it.
    fn walk(&self, registry: &Registry, visit: &mut GridVisitor<'_>) {
        for workload in registry.iter() {
            if let Some(filter) = &self.workloads {
                if !filter.contains(&workload.meta.name) {
                    continue;
                }
            }
            for &mode in &self.modes {
                match mode {
                    Mode::Native => {
                        for p in self.procs.resolve(None, &workload.meta) {
                            for bytes in self.bytes_for(&workload.meta) {
                                visit(workload, mode, None, p, bytes);
                            }
                        }
                    }
                    Mode::Simulated | Mode::Virtual => {
                        for machine in &self.machines {
                            for p in self.procs.resolve(Some(machine), &workload.meta) {
                                if p > machine.max_cpus {
                                    continue;
                                }
                                for bytes in self.bytes_for(&workload.meta) {
                                    visit(workload, mode, Some(machine), p, bytes);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Executes the plan as a JSON-line stream, delegating every native
    /// cell to `native` (which returns the cell's record lines — for a
    /// multi-process backend, the canonical lines emitted by the worker
    /// hosting rank 0). Simulated and virtual records are produced
    /// in-process, exactly as [`RunPlan::execute`] would, and serialised
    /// with [`Record::to_json`]; the interleaving matches `execute`'s
    /// record order line for line, which is what the local-vs-tcp parity
    /// check rests on.
    pub fn execute_lines(
        &self,
        registry: &Registry,
        native: impl Fn(&Cell) -> Vec<String>,
    ) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(registry, &mut |w, mode, machine, p, bytes| {
            if mode == Mode::Native {
                if w.supports(mode) && w.meta.admits(p, mode) {
                    out.extend(native(&Cell {
                        workload: w.meta.name,
                        procs: p,
                        bytes,
                    }));
                }
            } else if let Some(recs) = w.run(mode, &self.runner, machine, p, bytes) {
                out.extend(recs.iter().map(Record::to_json));
            }
        });
        out
    }

    /// Executes the plan with `mpcheck` instrumentation installed on the
    /// calling thread: every native-mode `mp::run` a workload performs is
    /// verified as it runs (live wait-for-graph deadlock detection) and
    /// its communication trace is linted afterwards. Simulated and
    /// virtual execution are unaffected — they are already deterministic.
    ///
    /// Returns the records plus the accumulated verification report. A
    /// detected deadlock panics out of the plan with the full cycle
    /// diagnosis as the message; a deadlocked campaign cannot continue.
    pub fn execute_checked(
        &self,
        registry: &Registry,
        settings: mpcheck::Settings,
    ) -> (Vec<Record>, mpcheck::Report) {
        let session = mpcheck::Session::begin(settings);
        let records = self.execute(registry);
        (records, session.finish())
    }

    fn bytes_for(&self, meta: &WorkloadMeta) -> Vec<Option<u64>> {
        if meta.sized {
            if self.bytes.is_empty() {
                vec![None]
            } else {
                self.bytes.iter().map(|&b| Some(b)).collect()
            }
        } else {
            vec![None]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MetricKind, Stats, Suite};
    use crate::workload::Workload;

    fn reg() -> Registry {
        let mut reg = Registry::new();
        let rec = |name: &'static str, mode: Mode, machine: &'static str, p: usize, b| Record {
            benchmark: name,
            suite: Suite::Imb,
            mode,
            machine,
            procs: p,
            threads: 1,
            bytes: b,
            metric: MetricKind::TimeUs,
            value: 1.0,
            stats: Stats::deterministic(1.0),
            passed: true,
        };
        reg.register(
            Workload::new(WorkloadMeta {
                name: "sized",
                suite: Suite::Imb,
                metric: MetricKind::TimeUs,
                min_procs: 2,
                pow2_procs: false,
                sized: true,
            })
            .native(move |_, p, b| vec![rec("sized", Mode::Native, "host", p, b)])
            .simulated(move |m, p, b| vec![rec("sized", Mode::Simulated, m.name, p, b)]),
        );
        reg.register(
            Workload::new(WorkloadMeta {
                name: "unsized",
                suite: Suite::Imb,
                metric: MetricKind::TimeUs,
                min_procs: 1,
                pow2_procs: false,
                sized: false,
            })
            .native(move |_, p, b| vec![rec("unsized", Mode::Native, "host", p, b)]),
        );
        reg
    }

    #[test]
    fn plan_crosses_workloads_modes_procs_and_bytes() {
        let plan = RunPlan {
            backend: Backend::Local,
            modes: vec![Mode::Native, Mode::Simulated],
            machines: vec![machines::systems::dell_xeon()],
            procs: ProcGrid::List(vec![2, 4]),
            bytes: vec![256, 1024],
            workloads: None,
            runner: Runner::smoke(),
        };
        let records = plan.execute(&reg());
        // sized: native 2 procs x 2 bytes + sim 2 procs x 2 bytes = 8;
        // unsized: native 2 procs x 1 (no sim closure) = 2.
        assert_eq!(records.len(), 10);
        assert!(records.iter().any(|r| r.mode == Mode::Simulated));
        assert!(records
            .iter()
            .filter(|r| r.benchmark == "unsized")
            .all(|r| r.bytes.is_none()));
    }

    #[test]
    fn plan_caps_at_installation_size_and_filters() {
        let mut x1 = machines::systems::cray_x1_msp();
        x1.max_cpus = 2;
        let plan = RunPlan {
            backend: Backend::Local,
            modes: vec![Mode::Simulated],
            machines: vec![x1],
            procs: ProcGrid::List(vec![2, 64]),
            bytes: vec![64],
            workloads: Some(vec!["sized"]),
            runner: Runner::smoke(),
        };
        let records = plan.execute(&reg());
        assert_eq!(
            records.len(),
            1,
            "p=64 exceeds max_cpus, 'unsized' filtered"
        );
        assert_eq!(records[0].procs, 2);
    }

    #[test]
    fn pow2_grid_climbs_from_min_procs_to_the_cap() {
        let plan = RunPlan {
            backend: Backend::Local,
            modes: vec![Mode::Simulated],
            machines: vec![machines::systems::dell_xeon()],
            procs: ProcGrid::Pow2Through(16),
            bytes: vec![64],
            workloads: Some(vec!["sized"]),
            runner: Runner::smoke(),
        };
        let records = plan.execute(&reg());
        // "sized" has min_procs = 2, so the axis is 2, 4, 8, 16.
        let procs: Vec<usize> = records.iter().map(|r| r.procs).collect();
        assert_eq!(procs, vec![2, 4, 8, 16]);
        // The cap can sit far above any installation: the plan still
        // skips entries past max_cpus instead of failing.
        let mut small = machines::systems::dell_xeon();
        small.max_cpus = 4;
        let capped = RunPlan {
            backend: Backend::Local,
            modes: vec![Mode::Simulated],
            machines: vec![small],
            procs: ProcGrid::Pow2Through(1 << 20),
            bytes: vec![64],
            workloads: Some(vec!["sized"]),
            runner: Runner::smoke(),
        };
        let procs: Vec<usize> = capped.execute(&reg()).iter().map(|r| r.procs).collect();
        assert_eq!(procs, vec![2, 4]);
    }

    #[test]
    fn execute_checked_verifies_native_runs() {
        let mut reg = Registry::new();
        reg.register(
            Workload::new(WorkloadMeta {
                name: "chk",
                suite: Suite::Imb,
                metric: MetricKind::TimeUs,
                min_procs: 2,
                pow2_procs: false,
                sized: false,
            })
            .native(|_, p, _| {
                mp::run(p, |comm| comm.barrier());
                vec![Record {
                    benchmark: "chk",
                    suite: Suite::Imb,
                    mode: Mode::Native,
                    machine: "host",
                    procs: p,
                    threads: 1,
                    bytes: None,
                    metric: MetricKind::TimeUs,
                    value: 1.0,
                    stats: Stats::deterministic(1.0),
                    passed: true,
                }]
            }),
        );
        let plan = RunPlan {
            backend: Backend::Local,
            modes: vec![Mode::Native],
            machines: vec![],
            procs: ProcGrid::List(vec![2]),
            bytes: vec![],
            workloads: None,
            runner: Runner::smoke(),
        };
        let (records, report) = plan.execute_checked(&reg, mpcheck::Settings::default());
        assert_eq!(records.len(), 1);
        assert_eq!(report.runs, 1, "the native mp::run must be instrumented");
        assert!(report.clean(), "unexpected findings:\n{report}");
        assert!(report.events > 0);
    }

    #[test]
    fn execute_lines_matches_execute_order_exactly() {
        let mk = |backend| RunPlan {
            backend,
            modes: vec![Mode::Native, Mode::Simulated],
            machines: vec![machines::systems::dell_xeon()],
            // "sized" does not admit p = 1 (min_procs 2): that cell must
            // reach neither the in-process run nor the fleet.
            procs: ProcGrid::List(vec![1, 2]),
            bytes: vec![256, 1024],
            workloads: None,
            runner: Runner::smoke(),
        };
        let registry = reg();
        let direct: Vec<String> = mk(Backend::Local)
            .execute(&registry)
            .iter()
            .map(Record::to_json)
            .collect();
        // The delegated stream, with the "fleet" running cells through
        // the very same registry in-process, must interleave native and
        // simulated lines identically.
        let plan = mk(Backend::Tcp);
        let runner = plan.runner;
        let delegated = plan.execute_lines(&registry, |cell| {
            let w = registry.get(cell.workload).expect("cell names an entry");
            w.run(Mode::Native, &runner, None, cell.procs, cell.bytes)
                .expect("native cells are admissible")
                .iter()
                .map(Record::to_json)
                .collect()
        });
        assert_eq!(delegated, direct);
    }

    #[test]
    #[should_panic(expected = "execute_lines")]
    fn execute_rejects_multiprocess_backends() {
        let plan = RunPlan {
            backend: Backend::Tcp,
            modes: vec![Mode::Simulated],
            machines: vec![machines::systems::dell_xeon()],
            procs: ProcGrid::List(vec![2]),
            bytes: vec![64],
            workloads: None,
            runner: Runner::smoke(),
        };
        plan.execute(&reg());
    }

    #[test]
    fn per_workload_grids_see_the_machine() {
        let plan = RunPlan {
            backend: Backend::Local,
            modes: vec![Mode::Simulated],
            machines: vec![machines::systems::dell_xeon()],
            procs: ProcGrid::per_workload(|m, _| {
                assert!(m.is_some());
                vec![4]
            }),
            bytes: vec![64],
            workloads: Some(vec!["sized"]),
            runner: Runner::smoke(),
        };
        assert_eq!(plan.execute(&reg()).len(), 1);
    }
}
