//! Process launcher: forks/execs the worker processes of a multi-process
//! world and wires its topology through the environment.
//!
//! The launcher is the `mpirun` of this runtime. It creates a fresh
//! session directory (on `/dev/shm` when the host has one, so address
//! files and worker logs are memory-backed), then spawns `nprocs`
//! copies of a worker program, giving process `i` the standard variable
//! set — `MP_WORLD_SIZE`, `MP_NPROCS`, `MP_PROC=i` and `MP_WORLD_DIR`;
//! process `i` hosts the `i`-th contiguous block of ranks. A worker calls
//! [`transport::init_from_env`](super::init_from_env) at startup and
//! then runs the same `mp::run` calls as every sibling.
//!
//! Each worker's stdout/stderr goes to a log file in the session
//! directory; [`Fleet::wait`] collects exit statuses with a watchdog (a
//! worker that dies takes the whole fleet down after a short grace
//! period instead of hanging the launcher on a world that can never
//! finish) and returns statuses and captured logs.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Watchdog poll interval while waiting on children.
const WAIT_POLL: Duration = Duration::from_millis(20);

/// Grace period for remaining workers once one has failed.
const FAIL_GRACE: Duration = Duration::from_secs(2);

/// Builder for a multi-process world launch.
#[derive(Clone, Debug)]
pub struct Launcher {
    world: usize,
    nprocs: usize,
    program: PathBuf,
    args: Vec<String>,
    envs: Vec<(String, String)>,
    timeout: Duration,
}

impl Launcher {
    /// A launcher for `nprocs` copies of `program` hosting a `world`-rank
    /// world over tcp. Refuses `nprocs < 2`: one process is `mp::run`.
    pub fn new(world: usize, nprocs: usize, program: impl Into<PathBuf>) -> Launcher {
        assert!(world > 0, "an SPMD world needs at least one rank");
        assert!(
            nprocs >= 2,
            "mp launcher: {nprocs} process(es): {}",
            super::FLEET_RULE
        );
        Launcher {
            world,
            nprocs,
            program: program.into(),
            args: Vec::new(),
            envs: Vec::new(),
            timeout: Duration::from_secs(300),
        }
    }

    /// Appends a command-line argument passed to every worker.
    pub fn arg(mut self, a: impl Into<String>) -> Launcher {
        self.args.push(a.into());
        self
    }

    /// Sets an environment variable on every worker (on top of the
    /// launcher's own `MP_*` wiring).
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Launcher {
        self.envs.push((key.into(), value.into()));
        self
    }

    /// Overall fleet deadline for [`Fleet::wait`] (default 300 s).
    pub fn timeout(mut self, timeout: Duration) -> Launcher {
        self.timeout = timeout;
        self
    }

    /// Creates the session directory and spawns the worker processes.
    pub fn spawn(&self) -> Fleet {
        let dir = session_dir();
        let mut children = Vec::with_capacity(self.nprocs);
        let mut logs = Vec::with_capacity(self.nprocs);
        for proc in 0..self.nprocs {
            let out_path = dir.join(format!("proc-{proc}.out"));
            let err_path = dir.join(format!("proc-{proc}.err"));
            let out = std::fs::File::create(&out_path)
                .unwrap_or_else(|e| panic!("mp launcher: create {}: {e}", out_path.display()));
            let err = std::fs::File::create(&err_path)
                .unwrap_or_else(|e| panic!("mp launcher: create {}: {e}", err_path.display()));
            let mut cmd = Command::new(&self.program);
            cmd.args(&self.args)
                .env(super::ENV_WORLD_SIZE, self.world.to_string())
                .env(super::ENV_NPROCS, self.nprocs.to_string())
                .env(super::ENV_PROC, proc.to_string())
                .env(super::ENV_WORLD_DIR, &dir)
                .stdin(Stdio::null())
                .stdout(Stdio::from(out))
                .stderr(Stdio::from(err));
            for (k, v) in &self.envs {
                cmd.env(k, v);
            }
            match cmd.spawn() {
                Ok(child) => {
                    children.push(Some(child));
                    logs.push((out_path, err_path));
                }
                Err(e) => {
                    // Kill what already started before failing the launch.
                    for c in children.iter_mut().flatten() {
                        let _ = c.kill();
                    }
                    let _ = std::fs::remove_dir_all(&dir);
                    panic!(
                        "mp launcher: cannot spawn worker {proc} ({}): {e}",
                        self.program.display()
                    );
                }
            }
        }
        Fleet {
            dir,
            children,
            logs,
            timeout: self.timeout,
        }
    }

    /// Convenience: spawn, wait, and panic with full logs unless every
    /// worker exits cleanly. Returns the per-process outcomes.
    pub fn run(&self) -> FleetOutcome {
        let outcome = self.spawn().wait();
        outcome.expect_success();
        outcome
    }
}

/// A fresh, uniquely named session directory, memory-backed when the
/// host offers `/dev/shm`.
fn session_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let root = if Path::new("/dev/shm").is_dir() {
        PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };
    let dir = root.join(format!(
        "mp-world-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("mp launcher: cannot create {}: {e}", dir.display()));
    dir
}

/// A running fleet of worker processes.
pub struct Fleet {
    dir: PathBuf,
    children: Vec<Option<Child>>,
    logs: Vec<(PathBuf, PathBuf)>,
    timeout: Duration,
}

/// Exit status and captured output of one worker.
#[derive(Clone, Debug)]
pub struct ProcOutcome {
    /// The worker's process index.
    pub proc: usize,
    /// Exit code, when the worker exited on its own (`None`: killed by
    /// the watchdog or by a signal).
    pub status: Option<i32>,
    /// Captured stdout.
    pub stdout: String,
    /// Captured stderr.
    pub stderr: String,
}

/// What became of a fleet.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// Per-process outcomes, indexed by process.
    pub procs: Vec<ProcOutcome>,
    /// Whether the fleet hit the overall deadline.
    pub timed_out: bool,
}

impl FleetOutcome {
    /// Whether every worker exited with status 0.
    pub fn success(&self) -> bool {
        !self.timed_out && self.procs.iter().all(|p| p.status == Some(0))
    }

    /// Panics with every worker's status and stderr unless the fleet
    /// succeeded.
    pub(crate) fn expect_success(&self) {
        if self.success() {
            return;
        }
        let mut report = String::from("mp launcher: fleet failed\n");
        if self.timed_out {
            report.push_str("  (overall deadline exceeded)\n");
        }
        for p in &self.procs {
            report.push_str(&format!(
                "  proc {}: status {:?}\n--- stderr ---\n{}\n--- stdout ---\n{}\n",
                p.proc,
                p.status,
                p.stderr.trim_end(),
                p.stdout.trim_end()
            ));
        }
        panic!("{report}");
    }
}

impl Fleet {
    /// Waits for every worker with a watchdog: when one worker fails,
    /// the rest get `FAIL_GRACE` to finish (they may be unwinding from
    /// the same poison) and are then killed; when the overall deadline
    /// passes, everything is killed. Collects logs and removes the
    /// session directory.
    pub fn wait(mut self) -> FleetOutcome {
        let n = self.children.len();
        let mut status: Vec<Option<Option<i32>>> = vec![None; n]; // outer None = running
        let mut waited = Duration::ZERO;
        let mut grace: Option<Duration> = None;
        let mut timed_out = false;
        loop {
            let mut running = 0;
            for (i, slot) in self.children.iter_mut().enumerate() {
                let Some(child) = slot else { continue };
                match child.try_wait() {
                    Ok(Some(st)) => {
                        status[i] = Some(st.code());
                        *slot = None;
                        if st.code() != Some(0) && grace.is_none() {
                            grace = Some(Duration::ZERO);
                        }
                    }
                    Ok(None) => running += 1,
                    Err(e) => panic!("mp launcher: wait on worker {i} failed: {e}"),
                }
            }
            if running == 0 {
                break;
            }
            let kill_all = match &mut grace {
                Some(g) if *g >= FAIL_GRACE => true,
                Some(g) => {
                    *g += WAIT_POLL;
                    false
                }
                None => false,
            };
            if waited >= self.timeout {
                timed_out = true;
            }
            if kill_all || timed_out {
                for slot in self.children.iter_mut() {
                    if let Some(child) = slot {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    *slot = None;
                }
                // Killed workers keep their outer `None` -> status None.
                for st in status.iter_mut() {
                    st.get_or_insert(None);
                }
                break;
            }
            std::thread::sleep(WAIT_POLL);
            waited += WAIT_POLL;
        }
        let procs = (0..n)
            .map(|i| ProcOutcome {
                proc: i,
                status: status[i].flatten(),
                stdout: std::fs::read_to_string(&self.logs[i].0).unwrap_or_default(),
                stderr: std::fs::read_to_string(&self.logs[i].1).unwrap_or_default(),
            })
            .collect();
        let _ = std::fs::remove_dir_all(&self.dir);
        FleetOutcome { procs, timed_out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_dirs_are_unique_and_created() {
        let a = session_dir();
        let b = session_dir();
        assert_ne!(a, b);
        assert!(a.is_dir() && b.is_dir());
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn fleet_of_shells_succeeds_and_captures_output() {
        let outcome = Launcher::new(2, 2, "/bin/sh")
            .arg("-c")
            .arg("echo proc $MP_PROC of $MP_NPROCS world $MP_WORLD_SIZE")
            .timeout(Duration::from_secs(30))
            .run();
        assert!(outcome.success());
        assert_eq!(outcome.procs.len(), 2);
        assert!(outcome.procs[0].stdout.contains("proc 0 of 2 world 2"));
        assert!(outcome.procs[1].stdout.contains("proc 1 of 2 world 2"));
    }

    #[test]
    fn failing_worker_fails_the_fleet() {
        let outcome = Launcher::new(2, 2, "/bin/sh")
            .arg("-c")
            .arg("if [ \"$MP_PROC\" = 1 ]; then echo doomed >&2; exit 3; fi")
            .timeout(Duration::from_secs(30))
            .spawn()
            .wait();
        assert!(!outcome.success());
        assert_eq!(outcome.procs[1].status, Some(3));
        assert!(outcome.procs[1].stderr.contains("doomed"));
    }

    #[test]
    #[should_panic(expected = "a fleet has at least two processes (one process is `mp::run`)")]
    fn a_one_process_fleet_is_refused_by_name() {
        let _ = Launcher::new(2, 1, "/bin/sh");
    }
}
