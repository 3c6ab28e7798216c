//! Corrupt / stale tuning tables must never feed the kernels garbage:
//! the transparent loader warns on stderr and falls back to the
//! built-in defaults.
//!
//! One test function: `smp::tuned()` latches once per process, so the
//! bad table must be installed before the first access in this binary.

use smp::tune::{TuneError, TuneTable, Tuned};

#[test]
fn stale_or_corrupt_table_falls_back_to_defaults() {
    let dir = std::env::temp_dir().join("hpcb-tune-fallback");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("table-{}", std::process::id()));

    // A stale-version table is rejected by the parser outright...
    std::fs::write(&path, "hpcbench-tune-v0\nhost k\nend\n").unwrap();
    assert!(matches!(TuneTable::load(&path), Err(TuneError::Stale(_))));
    // ...and so is a structurally corrupt current-version one.
    std::fs::write(&path, "hpcbench-tune-v1\nhost k\nthreads banana\nend\n").unwrap();
    assert!(matches!(TuneTable::load(&path), Err(TuneError::Parse(_))));

    // The process-wide loader pointed at the corrupt table serves the
    // built-in defaults instead of half-applied garbage.
    std::env::set_var("HPCB_TUNE_FILE", &path);
    assert_eq!(*smp::tuned(), Tuned::default());
    assert_eq!(smp::tuned_now(), Tuned::default());

    std::fs::remove_file(&path).ok();
}
