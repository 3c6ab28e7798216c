//! The paper's architecture tables as data: Table 1 (SGI Altix BX2
//! parameters) and Table 2 (system characteristics of the five platforms).
//! The figure harness prints these verbatim so the reproduction covers
//! every table in the paper.

use crate::model::SystemClass;

/// One row of Table 1: "Architecture parameters of SGI Altix BX2".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Table1Row {
    /// Parameter name as printed in the paper.
    pub characteristic: &'static str,
    /// Value for the SGI Altix BX2 installation.
    pub value: &'static str,
}

/// Table 1 of the paper.
pub const TABLE1: &[Table1Row] = &[
    Table1Row {
        characteristic: "Clock (GHz)",
        value: "1.6",
    },
    Table1Row {
        characteristic: "C-Bricks",
        value: "64",
    },
    Table1Row {
        characteristic: "IX-Bricks",
        value: "4",
    },
    Table1Row {
        characteristic: "Routers",
        value: "128",
    },
    Table1Row {
        characteristic: "Meta Routers",
        value: "48",
    },
    Table1Row {
        characteristic: "CPUs",
        value: "512",
    },
    Table1Row {
        characteristic: "L3-cache (MB)",
        value: "9",
    },
    Table1Row {
        characteristic: "Memory (Tb)",
        value: "1",
    },
    Table1Row {
        characteristic: "R-bricks",
        value: "48",
    },
];

/// One row of Table 2: "System characteristics of the five computing
/// platforms".
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Platform name.
    pub platform: &'static str,
    /// Scalar or vector.
    pub class: SystemClass,
    /// CPUs per node.
    pub cpus_per_node: usize,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Peak Gflop/s per node.
    pub peak_per_node: f64,
    /// Network name.
    pub network: &'static str,
    /// Network topology as named in the paper.
    pub network_topology: &'static str,
    /// Operating system.
    pub operating_system: &'static str,
    /// Installation site.
    pub location: &'static str,
    /// Processor vendor.
    pub processor_vendor: &'static str,
    /// System vendor.
    pub system_vendor: &'static str,
}

/// Table 2 of the paper.
pub fn table2() -> Vec<Table2Row> {
    vec![
        Table2Row {
            platform: "SGI Altix BX2",
            class: SystemClass::Scalar,
            cpus_per_node: 2,
            clock_ghz: 1.6,
            peak_per_node: 12.8,
            network: "NUMALINK4",
            network_topology: "Fat-tree",
            operating_system: "Linux (Suse)",
            location: "NASA (USA)",
            processor_vendor: "Intel",
            system_vendor: "SGI",
        },
        Table2Row {
            platform: "Cray X1",
            class: SystemClass::Vector,
            cpus_per_node: 4,
            clock_ghz: 0.8,
            peak_per_node: 12.8,
            network: "Proprietary",
            network_topology: "4D-hypercube",
            operating_system: "UNICOS",
            location: "NASA (USA)",
            processor_vendor: "Cray",
            system_vendor: "Cray",
        },
        Table2Row {
            platform: "Cray Opteron Cluster",
            class: SystemClass::Scalar,
            cpus_per_node: 2,
            clock_ghz: 2.0,
            peak_per_node: 8.0,
            network: "Myrinet",
            network_topology: "Flat-tree",
            operating_system: "Linux (Redhat)",
            location: "NASA (USA)",
            processor_vendor: "AMD",
            system_vendor: "Cray",
        },
        Table2Row {
            platform: "Dell Xeon Cluster",
            class: SystemClass::Scalar,
            cpus_per_node: 2,
            clock_ghz: 3.6,
            peak_per_node: 14.4,
            network: "InfiniBand",
            network_topology: "Flat-tree",
            operating_system: "Linux (Redhat)",
            location: "NCSA (USA)",
            processor_vendor: "Intel",
            system_vendor: "Dell",
        },
        Table2Row {
            platform: "NEC SX-8",
            class: SystemClass::Vector,
            cpus_per_node: 8,
            clock_ghz: 2.0,
            peak_per_node: 128.0,
            network: "IXS",
            network_topology: "Multi-stage Crossbar",
            operating_system: "Super-UX",
            location: "HLRS (Germany)",
            processor_vendor: "NEC",
            system_vendor: "NEC",
        },
    ]
}

/// Cross-checks a machine model against its Table 2 row; returns the
/// matching row.
#[cfg(test)]
fn table2_row_for(machine: &crate::model::Machine) -> Option<Table2Row> {
    table2()
        .into_iter()
        .find(|r| machine.name.starts_with(r.platform))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::paper_systems;

    #[test]
    fn table1_has_nine_rows() {
        assert_eq!(TABLE1.len(), 9);
        assert_eq!(TABLE1[5].characteristic, "CPUs");
        assert_eq!(TABLE1[5].value, "512");
    }

    #[test]
    fn table2_matches_machine_models() {
        for m in paper_systems() {
            let row = table2_row_for(&m).unwrap_or_else(|| panic!("no Table 2 row for {}", m.name));
            assert_eq!(m.node.cpus, row.cpus_per_node, "{}", m.name);
            // Table 2 prints the Cray X1's *per-MSP* peak (12.8 Gflop/s)
            // in its "Peak/node" column; every other row is a true node
            // aggregate.
            let table_peak = if row.platform == "Cray X1" {
                m.node.peak_gflops
            } else {
                m.node.peak_gflops * m.node.cpus as f64
            };
            assert!(
                (table_peak - row.peak_per_node).abs() < 1e-9,
                "{}: peak/node mismatch",
                m.name
            );
            assert_eq!(m.class, row.class, "{}", m.name);
        }
    }

    #[test]
    fn table2_has_five_platforms() {
        assert_eq!(table2().len(), 5);
    }
}
