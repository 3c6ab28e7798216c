//! TCP transport: length-prefixed socket framing so a world can span
//! hosts (loopback in CI).
//!
//! # Connection setup
//!
//! Every process binds a listener (`MP_TCP_BIND`, default `127.0.0.1:0`)
//! and publishes its actual address. Two publication modes:
//!
//! * **Directory rendezvous** (single host, the launcher default): each
//!   process writes `tcp-{me}.addr` into the shared session directory —
//!   atomically, via write-to-temp + rename — and peers poll for it.
//! * **Static peer list** (multi-host): `MP_TCP_PEERS` carries one
//!   `host:port` per process; every process binds its own entry and no
//!   files are exchanged.
//!
//! One connection per *unordered* process pair: the higher-index process
//! connects to the lower's listener and opens with a `Hello` frame naming
//! itself, so the acceptor knows which peer each socket is. Both sides
//! give up at [`CONNECT_TIMEOUT`], naming the peers that never showed (or,
//! for a connection that never sent its `Hello`, the waiting process).
//! Send and receive directions share the socket; TCP gives FIFO per
//! direction, which is all the epoch protocol needs.
//!
//! A reader thread per connection decodes frames off the stream and
//! feeds one process-wide channel; `recv` is just a timed pop. Writers
//! share per-peer `Mutex<TcpStream>` handles with `TCP_NODELAY` set —
//! benchmark frames must not sit in Nagle buffers.

use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use parking_lot::Mutex;

use super::wire::{read_frame, Frame, FrameKind};
use super::Transport;

/// How long connection setup may take before the world is declared dead.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(60);

/// Polling interval while waiting for a peer's address file / listener.
const CONNECT_SLEEP: Duration = Duration::from_millis(10);

/// The address file process `p` publishes under directory rendezvous.
fn addr_path(dir: &Path, p: usize) -> PathBuf {
    dir.join(format!("tcp-{p}.addr"))
}

/// The socket-backed transport (see the module docs).
pub(crate) struct TcpTransport {
    /// Outbound stream per peer (`None` at our own index).
    writers: Vec<Option<Mutex<TcpStream>>>,
    /// All reader threads feed this channel; `Receiver` is single-consumer
    /// and not `Sync`, so the session's pump takes it through a mutex.
    rx: Mutex<mpsc::Receiver<Frame>>,
}

impl TcpTransport {
    /// Establishes the full mesh for process `me` of `nprocs`, publishing
    /// and resolving addresses through `dir` (or `MP_TCP_PEERS`).
    pub(crate) fn connect(dir: &Path, me: usize, nprocs: usize) -> TcpTransport {
        Self::connect_within(dir, me, nprocs, CONNECT_TIMEOUT)
    }

    /// [`connect`](Self::connect) with the setup deadline as a parameter:
    /// dialling a lower-index peer and waiting for a higher-index one to
    /// dial both give up after `timeout`.
    fn connect_within(dir: &Path, me: usize, nprocs: usize, timeout: Duration) -> TcpTransport {
        let peers_env = std::env::var(super::ENV_TCP_PEERS).ok();
        let static_peers: Option<Vec<String>> = peers_env.map(|v| {
            let list: Vec<String> = v.split(',').map(|s| s.trim().to_string()).collect();
            assert_eq!(
                list.len(),
                nprocs,
                "mp tcp: {} must list one host:port per process",
                super::ENV_TCP_PEERS
            );
            list
        });
        let bind_addr = match (&static_peers, std::env::var(super::ENV_TCP_BIND).ok()) {
            (_, Some(explicit)) => explicit,
            (Some(peers), None) => peers[me].clone(),
            (None, None) => "127.0.0.1:0".to_string(),
        };
        let listener = TcpListener::bind(&bind_addr)
            .unwrap_or_else(|e| panic!("mp tcp: cannot bind {bind_addr}: {e}"));
        let local = listener
            .local_addr()
            .expect("a bound listener has an address");
        if static_peers.is_none() {
            publish_addr(dir, me, &local.to_string());
        }
        let (tx, rx) = mpsc::channel::<Frame>();
        let mut writers: Vec<Option<Mutex<TcpStream>>> = (0..nprocs).map(|_| None).collect();
        // Lower-index peers: we dial them.
        for p in 0..me {
            let addr = match &static_peers {
                Some(peers) => peers[p].clone(),
                None => wait_addr(dir, p, timeout),
            };
            let mut stream = dial(&addr, p, timeout);
            let hello = Frame::control(FrameKind::Hello, 0, me as u32);
            super::wire::write_frame(&mut stream, &hello)
                .unwrap_or_else(|e| panic!("mp tcp: hello to proc {p} failed: {e}"));
            spawn_reader(p, stream.try_clone().expect("clone stream"), tx.clone());
            writers[p] = Some(Mutex::new(stream));
        }
        // Higher-index peers: they dial us; Hello tells us who is who. The
        // listener is polled, not blocked on, so a peer that died before
        // dialling ends setup at the deadline instead of hanging it.
        listener
            .set_nonblocking(true)
            .unwrap_or_else(|e| panic!("mp tcp: cannot poll the listener on {local}: {e}"));
        let mut waited = Duration::ZERO;
        let mut missing: Vec<usize> = (me + 1..nprocs).collect();
        while !missing.is_empty() {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if waited >= timeout {
                        panic!(
                            "mp tcp: proc {me}: no connection from proc(s) {missing:?} within \
                             {timeout:?}"
                        );
                    }
                    std::thread::sleep(CONNECT_SLEEP);
                    waited += CONNECT_SLEEP;
                    continue;
                }
                Err(e) => panic!("mp tcp: accept on {local} failed: {e}"),
            };
            // Some platforms hand the listener's mode down to the socket.
            stream
                .set_nonblocking(false)
                .unwrap_or_else(|e| panic!("mp tcp: cannot block on an accepted socket: {e}"));
            stream.set_nodelay(true).ok();
            let mut reader = stream.try_clone().expect("clone stream");
            // A socket that connects and never says who it is must not hold
            // setup past the deadline either: the read for its Hello gets
            // what is left of it. The reader thread then blocks untimed.
            let left = timeout.saturating_sub(waited).max(CONNECT_SLEEP);
            reader
                .set_read_timeout(Some(left))
                .unwrap_or_else(|e| panic!("mp tcp: cannot time the hello read: {e}"));
            let hello = match read_frame(&mut reader) {
                Ok(hello) => hello.expect("peer closed before hello"),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    panic!("mp tcp: proc {me}: a connection sent no hello within {timeout:?}")
                }
                Err(e) => panic!("mp tcp: reading hello failed: {e}"),
            };
            reader
                .set_read_timeout(None)
                .unwrap_or_else(|e| panic!("mp tcp: cannot untime the socket: {e}"));
            assert_eq!(hello.kind, FrameKind::Hello, "first frame must be Hello");
            let p = hello.src_proc as usize;
            assert!(
                missing.contains(&p),
                "mp tcp: unexpected hello from proc {p}"
            );
            missing.retain(|&q| q != p);
            spawn_reader(p, reader, tx.clone());
            writers[p] = Some(Mutex::new(stream));
        }
        TcpTransport {
            writers,
            rx: Mutex::new(rx),
        }
    }
}

/// Publishes `addr` as process `p`'s listener address: write to a temp
/// name, then rename — readers only ever see a complete file.
fn publish_addr(dir: &Path, p: usize, addr: &str) {
    let tmp = dir.join(format!(".tcp-{p}.addr.tmp"));
    std::fs::write(&tmp, addr)
        .unwrap_or_else(|e| panic!("mp tcp: cannot write {}: {e}", tmp.display()));
    let fin = addr_path(dir, p);
    std::fs::rename(&tmp, &fin)
        .unwrap_or_else(|e| panic!("mp tcp: cannot publish {}: {e}", fin.display()));
}

/// Polls for peer `p`'s address file.
fn wait_addr(dir: &Path, p: usize, timeout: Duration) -> String {
    let path = addr_path(dir, p);
    let mut waited = Duration::ZERO;
    loop {
        if let Ok(addr) = std::fs::read_to_string(&path) {
            return addr;
        }
        if waited >= timeout {
            panic!(
                "mp tcp: peer {p} never published {} — did its process start?",
                path.display()
            );
        }
        std::thread::sleep(CONNECT_SLEEP);
        waited += CONNECT_SLEEP;
    }
}

/// Dials `addr`, retrying while the peer's listener may still be coming
/// up (the address is published after bind, but a slow accept loop or a
/// SYN-queue hiccup still warrants patience).
fn dial(addr: &str, p: usize, timeout: Duration) -> TcpStream {
    let mut waited = Duration::ZERO;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return stream;
            }
            Err(e) => {
                if waited >= timeout {
                    panic!("mp tcp: cannot connect to proc {p} at {addr}: {e}");
                }
                std::thread::sleep(CONNECT_SLEEP);
                waited += CONNECT_SLEEP;
            }
        }
    }
}

/// One reader thread per connection: decode frames, feed the shared
/// channel, exit on clean EOF or an explicit `Shutdown`.
fn spawn_reader(peer: usize, mut stream: TcpStream, tx: mpsc::Sender<Frame>) {
    std::thread::Builder::new()
        .name(format!("mp-tcp-read-{peer}"))
        .spawn(move || loop {
            match read_frame(&mut stream) {
                Ok(Some(frame)) => {
                    if frame.kind == FrameKind::Shutdown {
                        return;
                    }
                    if tx.send(frame).is_err() {
                        return; // transport dropped; nothing to feed
                    }
                }
                Ok(None) => return, // clean EOF: peer exited
                Err(_) => return,   // reset mid-frame: peer died; the
                                     // flush-barrier timeout reports it
            }
        })
        .expect("mp tcp: cannot spawn a reader thread");
}

impl Transport for TcpTransport {
    fn send(&self, dst_proc: usize, frame: &Frame) {
        let stream = self.writers[dst_proc]
            .as_ref()
            .unwrap_or_else(|| panic!("mp tcp: send to self (proc {dst_proc})"));
        let bytes = frame.encode();
        stream
            .lock()
            .write_all(&bytes)
            .unwrap_or_else(|e| panic!("mp tcp: send to proc {dst_proc} failed: {e}"));
    }

    fn recv(&self, timeout: Duration) -> Option<Frame> {
        self.rx.lock().recv_timeout(timeout).ok()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Best-effort graceful teardown so peer readers exit without an
        // error path; process exit would close the sockets anyway.
        for (p, w) in self.writers.iter().enumerate() {
            if let Some(stream) = w {
                let bye = Frame::control(FrameKind::Shutdown, 0, p as u32);
                let _ = stream.lock().write_all(&bye.encode());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mp-tcp-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    /// Both endpoints inside one process (distinct transports), loopback.
    #[test]
    fn loopback_pair_exchanges_frames() {
        let dir = tmpdir("pair");
        let d0 = dir.clone();
        let t0 = std::thread::spawn(move || TcpTransport::connect(&d0, 0, 2));
        let t1 = TcpTransport::connect(&dir, 1, 2);
        let t0 = t0.join().expect("proc 0 side connects");
        let mut f = Frame::control(FrameKind::Data, 1, 0);
        f.a = 42;
        f.payload = (0..100_000).map(|i| i as u8).collect();
        t0.send(1, &f);
        let got = t1.recv(Duration::from_secs(10)).expect("frame arrives");
        assert_eq!(got, f);
        // And the reverse direction over the same connection.
        let mut g = Frame::control(FrameKind::Data, 1, 1);
        g.b = 7;
        t1.send(0, &g);
        assert_eq!(t0.recv(Duration::from_secs(10)).expect("reply"), g);
        assert!(t0.recv(Duration::from_millis(5)).is_none());
        // FIFO per ordered pair, the property the flush barrier rests on.
        for i in 0..10u64 {
            let mut f = Frame::control(FrameKind::Data, 1, 0);
            f.a = i;
            f.payload = vec![i as u8; i as usize * 37];
            t0.send(1, &f);
        }
        for i in 0..10u64 {
            let got = t1.recv(Duration::from_secs(10)).expect("frame arrives");
            assert_eq!((got.a, got.payload.len()), (i, i as usize * 37));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Peers that never start end setup at the deadline, by name — not in
    /// a hang that only the launcher's watchdog ends, with no peer named.
    #[test]
    fn accept_side_gives_up_at_the_deadline_naming_the_missing_peers() {
        let dir = tmpdir("accept");
        let setup = || TcpTransport::connect_within(&dir, 0, 3, Duration::from_millis(200));
        let err = std::panic::catch_unwind(setup)
            .err()
            .expect("no peer ever dials");
        assert_eq!(
            crate::runtime::panic_message(&*err),
            "mp tcp: proc 0: no connection from proc(s) [1, 2] within 200ms"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A connection that never says who it is ends setup at the deadline,
    /// by name, instead of holding the read for its `Hello` forever.
    #[test]
    fn a_silent_connection_gives_up_at_the_deadline_naming_the_proc() {
        let dir = tmpdir("silent");
        let d0 = dir.clone();
        let setup = std::thread::spawn(move || {
            std::panic::catch_unwind(move || {
                TcpTransport::connect_within(&d0, 0, 2, Duration::from_millis(500))
            })
        });
        let addr = wait_addr(&dir, 0, Duration::from_secs(10));
        let _silent = TcpStream::connect(addr.trim()).expect("proc 0 listens");
        let err = setup
            .join()
            .expect("the setup thread returns")
            .err()
            .expect("the silent peer never says hello");
        assert_eq!(
            crate::runtime::panic_message(&*err),
            "mp tcp: proc 0: a connection sent no hello within 500ms"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
