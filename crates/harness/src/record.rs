//! The unified result schema: one [`Record`] per measurement, shared by
//! both suites (HPCC, IMB), all three execution modes (native threads,
//! simulated machines, virtual cluster) and every consumer (campaign
//! driver, figure regeneration, the `benchmark/` package).

use std::fmt;
use std::fmt::Write as _;

use mpcheck::json;

/// Which benchmark suite a workload belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// HPC Challenge (HPL, PTRANS, RandomAccess, STREAM, FFT, DGEMM,
    /// Random-Ring).
    Hpcc,
    /// Intel MPI Benchmarks 2.3.
    Imb,
}

impl Suite {
    /// Lower-case identifier used in the JSON emission.
    pub fn as_str(self) -> &'static str {
        match self {
            Suite::Hpcc => "hpcc",
            Suite::Imb => "imb",
        }
    }
}

/// How a measurement was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Real execution on host threads, wall-clock timing.
    Native,
    /// Closed-form / schedule-replay pricing on a machine model.
    Simulated,
    /// The real benchmark code executed on a modelled machine under
    /// virtual clocks (`mp::run_virtual_coop`).
    Virtual,
}

impl Mode {
    /// All modes, in presentation order.
    pub const ALL: [Mode; 3] = [Mode::Native, Mode::Simulated, Mode::Virtual];

    /// Lower-case identifier used in the JSON emission.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Native => "native",
            Mode::Simulated => "simulated",
            Mode::Virtual => "virtual",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a record's headline `value` measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Time per call, microseconds (smaller is better).
    TimeUs,
    /// Transfer bandwidth, MB/s.
    BandwidthMBs,
    /// Compute rate, Gflop/s.
    RateGflops,
    /// Memory/network rate, GB/s.
    RateGBs,
    /// Random-update rate, GUP/s.
    RateGups,
    /// One-way latency, microseconds.
    LatencyUs,
}

impl MetricKind {
    /// The unit string for this metric kind.
    pub fn unit(self) -> &'static str {
        match self {
            MetricKind::TimeUs => "us",
            MetricKind::BandwidthMBs => "MB/s",
            MetricKind::RateGflops => "Gflop/s",
            MetricKind::RateGBs => "GB/s",
            MetricKind::RateGups => "GUP/s",
            MetricKind::LatencyUs => "us",
        }
    }
}

/// IMB-2.3-style timing statistics: minimum / mean / maximum of the
/// per-rank average call time, plus the repetition count they average
/// over. Best-of is defined as the minimum, per HPCC/STREAM convention.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Timed repetitions behind each per-rank average.
    pub repetitions: usize,
    /// Minimum per-rank average time, microseconds.
    pub t_min_us: f64,
    /// Mean per-rank average time, microseconds.
    pub t_avg_us: f64,
    /// Maximum per-rank average time, microseconds (IMB's figure metric).
    pub t_max_us: f64,
}

impl Stats {
    /// Statistics of a deterministic (model-priced) measurement:
    /// min = avg = max, one repetition.
    pub fn deterministic(t_us: f64) -> Stats {
        Stats {
            repetitions: 1,
            t_min_us: t_us,
            t_avg_us: t_us,
            t_max_us: t_us,
        }
    }

    /// Statistics across per-rank average times (already averaged over
    /// `repetitions` calls each). Empty input yields all-zero stats.
    pub fn across(per_rank_us: &[f64], repetitions: usize) -> Stats {
        if per_rank_us.is_empty() {
            return Stats {
                repetitions,
                t_min_us: 0.0,
                t_avg_us: 0.0,
                t_max_us: 0.0,
            };
        }
        let t_min = per_rank_us.iter().copied().fold(f64::INFINITY, f64::min);
        let t_max = per_rank_us.iter().copied().fold(0.0f64, f64::max);
        let t_avg = per_rank_us.iter().sum::<f64>() / per_rank_us.len() as f64;
        Stats {
            repetitions,
            t_min_us: t_min,
            t_avg_us: t_avg,
            t_max_us: t_max,
        }
    }

    /// Best-of time (the minimum), microseconds.
    pub fn best_of_us(&self) -> f64 {
        self.t_min_us
    }

    /// The defining invariant: t_min <= t_avg <= t_max.
    pub fn is_ordered(&self) -> bool {
        self.t_min_us <= self.t_avg_us && self.t_avg_us <= self.t_max_us
    }
}

/// One structured measurement: benchmark identity (what ran, where, how)
/// plus its statistics and headline value. This replaces the per-crate
/// `Measurement` / summary-field plumbing that previously existed in
/// `imb::native`, `imb::sim`, `imb::virtual_run` and `hpcc::suite`.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// Benchmark name ("PingPong", "G-HPL", "EP-STREAM-triad", ...).
    pub benchmark: &'static str,
    /// Which suite the benchmark belongs to.
    pub suite: Suite,
    /// How the measurement was produced.
    pub mode: Mode,
    /// Machine name (a `machines::Machine::name`, or "host" for native).
    pub machine: &'static str,
    /// Number of processes.
    pub procs: usize,
    /// Worker threads per rank (1 = pure message-passing; >1 = hybrid
    /// SMP ranks fanning kernels out over a per-rank pool).
    pub threads: usize,
    /// Message size in bytes; `None` for unsized workloads.
    pub bytes: Option<u64>,
    /// What `value` measures.
    pub metric: MetricKind,
    /// The headline value, in `metric.unit()`.
    pub value: f64,
    /// Timing statistics.
    pub stats: Stats,
    /// Whether the benchmark's built-in verification passed.
    pub passed: bool,
}

impl Record {
    /// Minimum per-rank average time, microseconds.
    pub fn t_min_us(&self) -> f64 {
        self.stats.t_min_us
    }

    /// Mean per-rank average time, microseconds.
    pub fn t_avg_us(&self) -> f64 {
        self.stats.t_avg_us
    }

    /// Maximum per-rank average time, microseconds.
    pub fn t_max_us(&self) -> f64 {
        self.stats.t_max_us
    }

    /// Bandwidth in MB/s, if this record measures one.
    pub fn bandwidth_mbs(&self) -> Option<f64> {
        (self.metric == MetricKind::BandwidthMBs).then_some(self.value)
    }

    /// The identity fields that name a measurement independently of the
    /// execution mode: (benchmark, suite, procs, bytes). Two runs of the
    /// same workload entry in different modes must agree on these.
    pub fn identity(&self) -> (&'static str, Suite, usize, Option<u64>) {
        (self.benchmark, self.suite, self.procs, self.bytes)
    }

    /// One JSON object for this record (serde-free).
    pub fn to_json(&self) -> String {
        let bytes = match self.bytes {
            Some(b) => b.to_string(),
            None => "null".into(),
        };
        format!(
            "{{ \"benchmark\": {}, \"suite\": {}, \"mode\": {}, \
             \"machine\": {}, \"procs\": {}, \"threads\": {}, \"bytes\": {}, \
             \"metric\": \"{}\", \"value\": {:.6}, \"unit\": \"{}\", \
             \"repetitions\": {}, \"t_min_us\": {:.6}, \"t_avg_us\": {:.6}, \
             \"t_max_us\": {:.6}, \"passed\": {} }}",
            json::string(self.benchmark),
            json::string(self.suite.as_str()),
            json::string(self.mode.as_str()),
            json::string(self.machine),
            self.procs,
            self.threads,
            bytes,
            self.metric.unit(),
            self.value,
            self.metric.unit(),
            self.stats.repetitions,
            self.stats.t_min_us,
            self.stats.t_avg_us,
            self.stats.t_max_us,
            self.passed,
        )
    }
}

/// Serialises a record stream as one JSON document (serde-free), the
/// unified artifact the campaign driver writes.
pub fn records_json(records: &[Record]) -> String {
    let mut out = String::from("{\n  \"schema\": \"hpcbench-record-v1\",\n  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", r.to_json());
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serialises an already-rendered record-line stream (one JSON object
/// per entry, as produced by [`Record::to_json`]) into the same unified
/// document as [`records_json`]. This is the assembly path for
/// multi-process campaigns, where native records arrive as canonical
/// JSON lines from worker fleets rather than as in-process [`Record`]s.
pub fn records_json_from_lines(lines: &[String]) -> String {
    let mut out = String::from("{\n  \"schema\": \"hpcbench-record-v1\",\n  \"records\": [\n");
    for (i, line) in lines.iter().enumerate() {
        let comma = if i + 1 < lines.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", line.trim());
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Record {
        Record {
            benchmark: "PingPong",
            suite: Suite::Imb,
            mode: Mode::Native,
            machine: "host",
            procs: 2,
            threads: 1,
            bytes: Some(1024),
            metric: MetricKind::BandwidthMBs,
            value: 123.4,
            stats: Stats::across(&[1.0, 2.0, 3.0], 10),
            passed: true,
        }
    }

    #[test]
    fn stats_across_orders_min_avg_max() {
        let s = Stats::across(&[3.0, 1.0, 2.0], 7);
        assert_eq!(s.t_min_us, 1.0);
        assert_eq!(s.t_avg_us, 2.0);
        assert_eq!(s.t_max_us, 3.0);
        assert_eq!(s.repetitions, 7);
        assert!(s.is_ordered());
        assert_eq!(s.best_of_us(), s.t_min_us);
    }

    #[test]
    fn deterministic_stats_collapse() {
        let s = Stats::deterministic(5.5);
        assert_eq!(s.t_min_us, s.t_max_us);
        assert_eq!(s.t_avg_us, 5.5);
        assert!(s.is_ordered());
    }

    #[test]
    fn record_accessors() {
        let r = rec();
        assert_eq!(r.t_min_us(), 1.0);
        assert_eq!(r.t_max_us(), 3.0);
        assert_eq!(r.bandwidth_mbs(), Some(123.4));
        assert_eq!(r.identity(), ("PingPong", Suite::Imb, 2, Some(1024)));
    }

    #[test]
    fn json_emission_is_wellformed() {
        let json = records_json(&[rec(), rec()]);
        assert!(json.contains("\"schema\": \"hpcbench-record-v1\""));
        assert!(json.contains("\"benchmark\": \"PingPong\""));
        assert!(json.contains("\"bytes\": 1024"));
        assert!(json.contains("\"threads\": 1"));
        assert_eq!(json.matches("\"mode\": \"native\"").count(), 2);
        // Unsized records serialise bytes as null.
        let mut r = rec();
        r.bytes = None;
        assert!(r.to_json().contains("\"bytes\": null"));
    }

    #[test]
    fn line_assembly_matches_record_assembly() {
        let records = [rec(), rec()];
        let lines: Vec<String> = records.iter().map(Record::to_json).collect();
        assert_eq!(records_json_from_lines(&lines), records_json(&records));
        assert_eq!(
            records_json_from_lines(&[]),
            records_json(&[]),
            "empty streams agree too"
        );
    }

    /// Names come from callers (`examples/custom_machine.rs` builds its
    /// own machine): whatever they hold, the line stays one JSON object.
    #[test]
    fn names_with_quotes_and_backslashes_round_trip() {
        let mut r = rec();
        r.machine = "a\"b\\c";
        let parsed = json::parse(&r.to_json()).expect("a record line is JSON");
        let machine = parsed.get("machine").and_then(|m| m.as_str());
        assert_eq!(machine, Some(r.machine));
    }

    #[test]
    fn time_metric_has_no_bandwidth() {
        let mut r = rec();
        r.metric = MetricKind::TimeUs;
        assert_eq!(r.bandwidth_mbs(), None);
    }
}
