//! The persistent per-host tuning table.
//!
//! The autotuner (`bench` crate's `tune` binary) sweeps the kernel
//! parameter space on a host and persists the winners here, keyed by
//! [`crate::topo::host_key`] — the same table-driven pattern the FFT
//! engine uses for its twiddle tables, lifted to a file so the sweep
//! survives the process. Kernels load the host's entry transparently
//! through [`tuned`]; the table is the one source of a kernel parameter.
//!
//! # File format (versioned)
//!
//! ```text
//! hpcbench-tune-v1
//! host <topology-key>
//! threads 2
//! dgemm_mc 64
//! dgemm_nc 256
//! dgemm_kc 256
//! fft_l1_block 1024
//! fft_l2_block 32768
//! hpl_nb 32
//! hpl_lookahead 1
//! end
//! ```
//!
//! A table whose version line does not match is *stale*: it is ignored
//! with a warning and the built-in defaults apply, so a format change
//! can never feed a kernel garbage parameters. Unknown keys inside a
//! host block are ignored (forward compatibility); malformed lines make
//! the whole table invalid (a corrupt table should be conspicuous, not
//! silently half-applied).

use std::fmt;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

/// The version stamp every table leads with.
pub const TUNE_VERSION: &str = "hpcbench-tune-v1";

/// Default tuning-table filename, read from the working directory when
/// `HPCB_TUNE_FILE` is unset.
pub const DEFAULT_TUNE_FILE: &str = "TUNE.hpcc";

/// One host's tuned kernel parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuned {
    /// Worker threads per rank (pool sizing default).
    pub threads: usize,
    /// DGEMM macro-block rows (multiple of the 8-row microkernel).
    pub dgemm_mc: usize,
    /// DGEMM macro-block columns (multiple of the 8-column microkernel).
    pub dgemm_nc: usize,
    /// DGEMM macro-block depth.
    pub dgemm_kc: usize,
    /// FFT L1-resident block, complex elements (power of two).
    pub fft_l1_block: usize,
    /// FFT L2-resident block, complex elements (power of two).
    pub fft_l2_block: usize,
    /// HPL panel width.
    pub hpl_nb: usize,
    /// Whether HPL factors panel k+1 concurrently with the trailing
    /// update of panel k.
    pub hpl_lookahead: bool,
}

impl Default for Tuned {
    /// The untuned baseline: the constants the kernels shipped with.
    fn default() -> Tuned {
        Tuned {
            threads: 1,
            // The A pack (`mc x kc`, 128 KiB) is L2-resident; the B pack
            // (`kc x nc`) is 512 KiB.
            dgemm_mc: 64,
            dgemm_nc: 256,
            dgemm_kc: 256,
            // Two `f64` planes of 1024 elements are 16 KiB, inside L1d
            // alongside the small-stage twiddle packs; an L2 block's
            // planes are 512 KiB plus streamed twiddle packs.
            fft_l1_block: 1024,
            fft_l2_block: 1 << 15,
            hpl_nb: 32,
            hpl_lookahead: true,
        }
    }
}

impl Tuned {
    /// Clamps every parameter into its valid domain: positive, DGEMM
    /// blocks rounded up to microkernel multiples (8), FFT blocks to
    /// powers of two >= 64. A table entry can therefore never drive a
    /// kernel out of its preconditions, no matter what was persisted.
    pub fn sanitized(mut self) -> Tuned {
        fn mult8(v: usize) -> usize {
            v.max(8).div_ceil(8) * 8
        }
        self.threads = self.threads.clamp(1, 1024);
        self.dgemm_mc = mult8(self.dgemm_mc);
        self.dgemm_nc = mult8(self.dgemm_nc);
        self.dgemm_kc = self.dgemm_kc.clamp(8, 1 << 20);
        self.fft_l1_block = self.fft_l1_block.clamp(64, 1 << 24).next_power_of_two();
        self.fft_l2_block = self
            .fft_l2_block
            .clamp(self.fft_l1_block, 1 << 26)
            .next_power_of_two();
        self.hpl_nb = self.hpl_nb.clamp(1, 4096);
        self
    }
}

/// Why a tuning table failed to load.
#[derive(Debug)]
pub enum TuneError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The version line does not match [`TUNE_VERSION`] (stale table).
    Stale(String),
    /// A line inside the table could not be parsed.
    Parse(String),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Io(e) => write!(f, "cannot read tuning table: {e}"),
            TuneError::Stale(v) => write!(
                f,
                "stale tuning table version {v:?} (expected {TUNE_VERSION:?}); re-run the tuner"
            ),
            TuneError::Parse(line) => write!(f, "corrupt tuning table line: {line:?}"),
        }
    }
}

/// The on-disk table: tuned parameters for every host that ran the
/// autotuner against this file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuneTable {
    entries: Vec<(String, Tuned)>,
}

impl TuneTable {
    /// An empty table.
    pub fn new() -> TuneTable {
        TuneTable::default()
    }

    /// The tuned parameters for `host_key`, if present (sanitized).
    pub fn get(&self, host_key: &str) -> Option<Tuned> {
        self.entries
            .iter()
            .find(|(k, _)| k == host_key)
            .map(|(_, t)| t.sanitized())
    }

    /// Inserts or replaces the entry for `host_key`.
    pub fn set(&mut self, host_key: &str, tuned: Tuned) {
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| k == host_key) {
            e.1 = tuned;
        } else {
            self.entries.push((host_key.to_string(), tuned));
        }
    }

    /// Number of host entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parses a table from its textual form.
    pub fn parse(text: &str) -> Result<TuneTable, TuneError> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        match lines.next() {
            Some(v) if v == TUNE_VERSION => {}
            other => return Err(TuneError::Stale(other.unwrap_or("").to_string())),
        }
        let mut table = TuneTable::new();
        let mut current: Option<(String, Tuned)> = None;
        for line in lines {
            if let Some(key) = line.strip_prefix("host ") {
                if current.is_some() {
                    return Err(TuneError::Parse(line.to_string()));
                }
                current = Some((key.trim().to_string(), Tuned::default()));
            } else if line == "end" {
                let (key, tuned) = current
                    .take()
                    .ok_or_else(|| TuneError::Parse(line.to_string()))?;
                table.set(&key, tuned);
            } else {
                let (k, v) = line
                    .split_once(' ')
                    .ok_or_else(|| TuneError::Parse(line.to_string()))?;
                let t = &mut current
                    .as_mut()
                    .ok_or_else(|| TuneError::Parse(line.to_string()))?
                    .1;
                let parse = |v: &str| -> Result<usize, TuneError> {
                    v.trim()
                        .parse()
                        .map_err(|_| TuneError::Parse(line.to_string()))
                };
                match k {
                    "threads" => t.threads = parse(v)?,
                    "dgemm_mc" => t.dgemm_mc = parse(v)?,
                    "dgemm_nc" => t.dgemm_nc = parse(v)?,
                    "dgemm_kc" => t.dgemm_kc = parse(v)?,
                    "fft_l1_block" => t.fft_l1_block = parse(v)?,
                    "fft_l2_block" => t.fft_l2_block = parse(v)?,
                    "hpl_nb" => t.hpl_nb = parse(v)?,
                    "hpl_lookahead" => t.hpl_lookahead = parse(v)? != 0,
                    // Unknown keys are skipped: a newer tuner may write
                    // parameters this build does not know about.
                    _ => {}
                }
            }
        }
        if current.is_some() {
            return Err(TuneError::Parse("unterminated host block".to_string()));
        }
        Ok(table)
    }

    /// Renders the table in its on-disk textual form.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(TUNE_VERSION);
        out.push('\n');
        for (key, t) in &self.entries {
            let _ = write!(
                out,
                "host {key}\nthreads {}\ndgemm_mc {}\ndgemm_nc {}\ndgemm_kc {}\n\
                 fft_l1_block {}\nfft_l2_block {}\nhpl_nb {}\nhpl_lookahead {}\nend\n",
                t.threads,
                t.dgemm_mc,
                t.dgemm_nc,
                t.dgemm_kc,
                t.fft_l1_block,
                t.fft_l2_block,
                t.hpl_nb,
                u8::from(t.hpl_lookahead),
            );
        }
        out
    }

    /// Loads a table from `path`.
    pub fn load(path: &Path) -> Result<TuneTable, TuneError> {
        let text = std::fs::read_to_string(path).map_err(TuneError::Io)?;
        TuneTable::parse(&text)
    }

    /// Persists the table to `path`.
    pub fn store(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// The tuning-table path this process reads: `HPCB_TUNE_FILE` if set,
/// else [`DEFAULT_TUNE_FILE`] in the working directory.
pub fn tune_file_path() -> std::path::PathBuf {
    std::env::var("HPCB_TUNE_FILE")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from(DEFAULT_TUNE_FILE))
}

/// The tuned parameters for this host, loaded once per process:
/// the tuning table's entry for [`crate::topo::host_key`] when present
/// (a missing file simply means untuned defaults; a stale or corrupt
/// table warns on stderr and falls back to defaults).
pub fn tuned() -> &'static Tuned {
    static TUNED: OnceLock<Tuned> = OnceLock::new();
    TUNED.get_or_init(|| {
        let path = tune_file_path();
        match TuneTable::load(&path) {
            Ok(table) => table.get(&crate::topo::host_key()).unwrap_or_default(),
            Err(TuneError::Io(_)) => Tuned::default(), // untuned host: silent
            Err(e) => {
                eprintln!(
                    "hpcbench: ignoring tuning table {}: {e}; using built-in defaults",
                    path.display()
                );
                Tuned::default()
            }
        }
    })
}

/// A candidate parameter set installed by the autotuner while it times
/// one trial. `None` (the normal state) means [`current`] serves the
/// persisted per-host entry.
static TRIAL: Mutex<Option<Tuned>> = Mutex::new(None);

/// Installs (or clears) a trial parameter set. Only the autotuner
/// calls this — it is process-wide, so trials must not run while
/// benchmark ranks are active.
pub fn set_trial(t: Option<Tuned>) {
    *TRIAL.lock().unwrap() = t.map(Tuned::sanitized);
}

/// The parameters kernels should use right now: the autotuner's trial
/// set if one is installed, else the persisted per-host entry from
/// [`tuned`]. Kernels read this at each macro-level entry (once per
/// GEMM / FFT / HPL run), so a sweep can retune between calls.
pub fn current() -> Tuned {
    TRIAL.lock().unwrap().unwrap_or_else(|| *tuned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tuned {
        Tuned {
            threads: 2,
            dgemm_mc: 128,
            dgemm_nc: 512,
            dgemm_kc: 192,
            fft_l1_block: 2048,
            fft_l2_block: 1 << 16,
            hpl_nb: 64,
            hpl_lookahead: false,
        }
    }

    #[test]
    fn round_trips_through_text() {
        let mut table = TuneTable::new();
        table.set("hostA/cpus4", sample());
        table.set("hostB/cpus1", Tuned::default());
        let parsed = TuneTable::parse(&table.render()).unwrap();
        assert_eq!(parsed, table);
        assert_eq!(parsed.get("hostA/cpus4"), Some(sample().sanitized()));
    }

    #[test]
    fn round_trips_through_a_file() {
        let dir = std::env::temp_dir().join("hpcb-tune-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table-roundtrip");
        let mut table = TuneTable::new();
        table.set("k", sample());
        table.store(&path).unwrap();
        let reloaded = TuneTable::load(&path).unwrap();
        assert_eq!(reloaded.get("k"), Some(sample().sanitized()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_version_is_rejected() {
        let text = "hpcbench-tune-v0\nhost k\nend\n";
        match TuneTable::parse(text) {
            Err(TuneError::Stale(v)) => assert_eq!(v, "hpcbench-tune-v0"),
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_lines_are_rejected() {
        for text in [
            "hpcbench-tune-v1\ngarbage-no-space\n",
            "hpcbench-tune-v1\nthreads 2\n", // key outside a host block
            "hpcbench-tune-v1\nhost k\nthreads banana\nend\n",
            "hpcbench-tune-v1\nhost k\nthreads 2\n", // unterminated
        ] {
            assert!(
                matches!(TuneTable::parse(text), Err(TuneError::Parse(_))),
                "{text:?}"
            );
        }
    }

    #[test]
    fn unknown_keys_are_forward_compatible() {
        let text = "hpcbench-tune-v1\nhost k\nthreads 3\nfuture_param 99\nend\n";
        let table = TuneTable::parse(text).unwrap();
        assert_eq!(table.get("k").unwrap().threads, 3);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = TuneTable::load(Path::new("/nonexistent/hpcb-tune")).unwrap_err();
        assert!(matches!(err, TuneError::Io(_)));
    }

    #[test]
    fn sanitize_clamps_into_valid_domains() {
        let t = Tuned {
            threads: 0,
            dgemm_mc: 3,
            dgemm_nc: 9,
            dgemm_kc: 0,
            fft_l1_block: 100,
            fft_l2_block: 1,
            hpl_nb: 0,
            hpl_lookahead: true,
        }
        .sanitized();
        assert_eq!(t.threads, 1);
        assert_eq!(t.dgemm_mc, 8);
        assert_eq!(t.dgemm_nc, 16);
        assert_eq!(t.dgemm_kc, 8);
        assert_eq!(t.fft_l1_block, 128);
        assert!(t.fft_l2_block >= t.fft_l1_block);
        assert!(t.fft_l2_block.is_power_of_two());
        assert_eq!(t.hpl_nb, 1);
    }
}
