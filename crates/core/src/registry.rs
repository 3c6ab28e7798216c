//! The workspace's workload registry: one [`Workload`] entry per HPCC
//! component and per IMB benchmark, wiring each to its native, simulated
//! and virtual execution paths. This is the single dispatch table behind
//! the campaign driver, the figure regeneration and the `benchmark/` package —
//! the per-crate dispatch it replaces lived in `hpcc::suite`,
//! `hpcc::sim`, `imb::native`, `imb::sim` and `imb::virtual_run`.

use harness::{Registry, Suite, Workload, WorkloadMeta};
use hpcc::suite::{Component, SuiteConfig};

/// Builds the full registry: 7 HPCC components + 12 IMB benchmarks,
/// every entry supporting all three execution modes.
///
/// Native and virtual HPCC components run at the in-process scale of
/// [`SuiteConfig::small`]; simulated components use the paper-scale
/// closed-form models. IMB entries thread the runner's repetition policy
/// through every mode that times a loop.
pub fn registry() -> Registry {
    let mut reg = Registry::new();

    for c in Component::ALL {
        reg.register(
            Workload::new(WorkloadMeta {
                name: c.name(),
                suite: Suite::Hpcc,
                metric: c.metric(),
                min_procs: 1,
                pow2_procs: c.pow2_procs(),
                sized: false,
            })
            .native(move |_runner, p, _| {
                hpcc::suite::run_component_native(p, c, &SuiteConfig::small(p))
            })
            .simulated(move |m, p, _| hpcc::sim::component_records(m, p, c))
            .virtual_mode(move |_runner, m, p, _| {
                hpcc::virtual_run::run_virtual_components(m, p, &SuiteConfig::small(p), &[c])
            }),
        );
    }

    for b in imb::Benchmark::ALL {
        reg.register(
            Workload::new(WorkloadMeta {
                name: b.name(),
                suite: Suite::Imb,
                metric: b.metric(),
                min_procs: b.min_procs(),
                pow2_procs: false,
                sized: b.sized(),
            })
            .native(move |runner, p, bytes| {
                vec![imb::native::run_native_with(
                    b,
                    p,
                    bytes.unwrap_or(0),
                    runner,
                )]
            })
            .simulated(move |m, p, bytes| vec![imb::sim::simulate(m, b, p, bytes.unwrap_or(0))])
            .virtual_mode(move |runner, m, p, bytes| {
                vec![imb::run_virtual_with(m, b, p, bytes.unwrap_or(0), runner)]
            }),
        );
    }

    reg
}

/// The registry's HPCC workload names, in presentation order.
pub fn hpcc_names() -> Vec<&'static str> {
    Component::ALL.iter().map(|c| c.name()).collect()
}

/// The registry's IMB workload names, in presentation order.
pub fn imb_names() -> Vec<&'static str> {
    imb::Benchmark::ALL.iter().map(|b| b.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{Mode, ProcGrid, RunPlan, Runner};

    #[test]
    fn registry_has_every_workload() {
        let reg = registry();
        assert_eq!(reg.len(), 19, "7 HPCC + 12 IMB");
        assert_eq!(reg.suite(Suite::Hpcc).count(), 7);
        assert_eq!(reg.suite(Suite::Imb).count(), 12);
    }

    #[test]
    fn simulated_imb_entry_matches_direct_simulation() {
        let reg = registry();
        let m = machines::systems::dell_xeon();
        let w = reg.get("Alltoall").unwrap();
        let recs = w
            .run(
                Mode::Simulated,
                &Runner::standard(),
                Some(&m),
                8,
                Some(1 << 20),
            )
            .unwrap();
        let direct = imb::sim::simulate(&m, imb::Benchmark::Alltoall, 8, 1 << 20);
        assert_eq!(recs[0].value, direct.value);
        assert_eq!(recs[0].identity(), direct.identity());
    }

    #[test]
    fn simulated_hpcc_plan_reproduces_the_summary() {
        let reg = registry();
        let m = machines::systems::nec_sx8();
        let plan = RunPlan {
            backend: harness::Backend::Local,
            modes: vec![Mode::Simulated],
            machines: vec![m.clone()],
            procs: ProcGrid::List(vec![64]),
            bytes: vec![],
            workloads: Some(hpcc_names()),
            runner: Runner::standard(),
        };
        let records = plan.execute(&reg);
        let from_plan = hpcc::HpccSummary::from_records(&records);
        let direct = hpcc::sim::summary(&m, 64);
        assert_eq!(from_plan.ghpl, direct.ghpl);
        assert_eq!(from_plan.ptrans, direct.ptrans);
        assert_eq!(from_plan.gups, direct.gups);
        assert_eq!(from_plan.gfft, direct.gfft);
        assert_eq!(from_plan.ring_bw, direct.ring_bw);
        assert_eq!(from_plan.ring_latency_us, direct.ring_latency_us);
        assert_eq!(from_plan.cpus, 64);
    }
}
