//! Host CPU topology detection: the core budget the pool sizing divides
//! among ranks, and the CPU model a measurement reports.

use std::sync::OnceLock;

/// The host's CPU model and core budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostTopo {
    /// CPU model string (`model name` from `/proc/cpuinfo`, or
    /// "unknown-cpu" when undetectable).
    pub model: String,
    /// Logical CPUs available to this process.
    pub online_cpus: usize,
}

/// Detects the host topology once per process.
pub fn detect() -> &'static HostTopo {
    static TOPO: OnceLock<HostTopo> = OnceLock::new();
    TOPO.get_or_init(|| HostTopo {
        model: cpu_model().unwrap_or_else(|| "unknown-cpu".to_string()),
        online_cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    })
}

/// First `model name` line of `/proc/cpuinfo` (Linux); `None` elsewhere.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    for line in info.lines() {
        if let Some(rest) = line.strip_prefix("model name") {
            return Some(rest.trim_start_matches([' ', '\t', ':']).trim().to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_positive() {
        let a = detect();
        let b = detect();
        assert_eq!(a, b);
        assert!(a.online_cpus >= 1);
    }
}
