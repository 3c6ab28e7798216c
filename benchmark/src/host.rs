//! Facts about the host, printed with every run so a number is never read
//! without the machine it came from.

use std::sync::OnceLock;

use crate::json::Json;

/// What is recorded about the host.
#[derive(Clone, Debug)]
pub struct HostFacts {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Per-level cache sizes in bytes from sysfs, as `(level, type, bytes)`.
    pub caches: Vec<(u32, String, u64)>,
}

impl HostFacts {
    /// Size of the largest-level data or unified cache, 0 when sysfs shows
    /// none.
    pub fn llc_bytes(&self) -> u64 {
        self.caches
            .iter()
            .filter(|(_, kind, _)| kind != "Instruction")
            .max_by_key(|(level, _, _)| *level)
            .map_or(0, |(_, _, bytes)| *bytes)
    }

    /// The facts as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            (
                "caches",
                Json::Arr(
                    self.caches
                        .iter()
                        .map(|(level, kind, bytes)| {
                            Json::obj([
                                ("level", Json::Num(f64::from(*level))),
                                ("type", Json::str(kind)),
                                ("bytes", Json::Num(*bytes as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("rustc", Json::str(rustc_version())),
            (
                "release_profile",
                Json::str("codegen-units=1 lto=thin target-cpu=native (root .cargo/config.toml)"),
            ),
            // With one CPU, the two-thread native numbers measure
            // oversubscription, not the runtime.
            ("native_validated", Json::Bool(self.nproc >= 2)),
        ])
    }
}

/// Parses a sysfs cache size such as `2048K` or `32M`.
fn parse_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, unit) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * unit)
}

fn read_caches() -> Vec<(u32, String, u64)> {
    let mut caches = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| std::fs::read_to_string(format!("{dir}/{file}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if let (Ok(level), Some(bytes)) = (level.trim().parse(), parse_size(&size)) {
            caches.push((level, kind.trim().to_string(), bytes));
        }
    }
    caches
}

/// The host's facts, gathered once per process.
pub fn facts() -> &'static HostFacts {
    static FACTS: OnceLock<HostFacts> = OnceLock::new();
    FACTS.get_or_init(|| {
        let topo = smp::topo::detect();
        HostFacts {
            nproc: topo.online_cpus,
            cpu_model: topo.model.clone(),
            caches: read_caches(),
        }
    })
}

/// `rustc --version`, or "unknown" when the compiler is not on the path.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Peak resident set of this process so far (`VmHWM`), in MB; `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_size("266240K"), Some(266_240 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("big"), None);
    }

    #[test]
    fn llc_is_the_highest_level_data_cache() {
        let facts = HostFacts {
            nproc: 2,
            cpu_model: "x".into(),
            caches: vec![
                (1, "Data".into(), 48 << 10),
                (1, "Instruction".into(), 32 << 10),
                (2, "Unified".into(), 2 << 20),
                (3, "Unified".into(), 32 << 20),
            ],
        };
        assert_eq!(facts.llc_bytes(), 32 << 20);
    }
}
