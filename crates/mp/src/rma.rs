//! One-sided communication (MPI-2 RMA): windows, `put`/`get`/`accumulate`
//! and the three synchronisation schemes of the MPI-2 standard — fence,
//! post-start-complete-wait (PSCW) and passive-target lock/unlock.
//!
//! The paper's conclusion plans exactly this study: "we also plan to
//! include ... one-sided (GET/PUT) MPI communication functions with three
//! synchronization schemes". Section 2.4 motivates it: "MPI-2 ... provides
//! one-sided communication (Get and Put) to access data from a remote
//! processor without involving it ... Semantics of one-sided communication
//! can be done using remote direct memory access (RDMA)".
//!
//! Like RDMA hardware, `put`/`get` here access the target's exposed memory
//! directly (no target-side message processing); synchronisation epochs
//! order those accesses exactly as MPI-2 requires.
//!
//! Under virtual execution each access is priced as the traffic an RDMA
//! NIC sends (a no-op natively): a put one transfer, a get a request and
//! its reply, an accumulate a put and the target's fold, a lock a request
//! and grant, an unlock a notification. Fences and PSCW tokens are
//! messages. The epoch calls that wait are awaitable, so one epoch body
//! runs on rank threads (through [`block_on`](crate::block_on)) and as a
//! cooperative task alike.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::comm::Comm;
use crate::datatype::{decode_into, encode_into, Word};
use crate::msg::Tag;
use crate::payload::Payload;
use crate::reduce::{Numeric, Op};

/// Exposed memory regions, one per communicator rank (indexed by the rank
/// in the window's communicator, not the world), shared the way registered
/// RDMA buffers are.
struct WindowStorage {
    regions: Vec<RwLock<Vec<u8>>>,
    /// Passive-target exclusive locks (MPI_Win_lock semantics).
    locks: Vec<Mutex<()>>,
}

/// This rank's handle to a window created over a communicator.
///
/// Created collectively with [`Window::create`]; every access must happen
/// inside an epoch opened by one of the three synchronisation schemes:
///
/// * [`fence`](Window::fence) — active target, collective;
/// * [`start`](Window::start)/[`complete`](Window::complete) +
///   [`post`](Window::post)/[`wait`](Window::wait) — active target,
///   generalised (PSCW);
/// * [`lock`](Window::lock), unlocked when its [`WindowGuard`] drops —
///   passive target.
pub struct Window<'c> {
    comm: &'c Comm,
    storage: Arc<WindowStorage>,
    my_words: usize,
    word_size: usize,
    /// Dedicated tags for the PSCW handshakes, fixed at creation so that
    /// `post`/`start` and `complete`/`wait` pair up across ranks
    /// regardless of how many epochs each rank has run.
    post_tag: Tag,
    complete_tag: Tag,
}

impl<'c> Window<'c> {
    /// Collectively creates a window exposing `local_words` words of type
    /// `T` on every rank (initialised to zero). All ranks must call with
    /// equal `local_words`.
    pub async fn create<T: Word>(comm: &'c Comm, local_words: usize) -> Window<'c> {
        let n = comm.size();
        let bytes = local_words * T::SIZE;
        // Exchange a creation token so all ranks agree on sizes.
        let mut sizes = vec![0u64; n];
        comm.allgather_async(&[bytes as u64], &mut sizes).await;
        assert!(
            sizes.iter().all(|&s| s == bytes as u64),
            "all ranks must expose equally sized windows"
        );
        // RDMA registration equivalent: the first member to arrive
        // allocates the exposed regions into the runtime's shared
        // rendezvous slot; the others pick it up without waiting.
        let storage = comm.rendezvous_storage(|| {
            Arc::new(WindowStorage {
                regions: (0..n).map(|_| RwLock::new(vec![0u8; bytes])).collect(),
                locks: (0..n).map(|_| Mutex::new(())).collect(),
            })
        });
        let post_tag = comm.next_coll_tag();
        let complete_tag = comm.next_coll_tag();
        Window {
            comm,
            storage,
            my_words: local_words,
            word_size: T::SIZE,
            post_tag,
            complete_tag,
        }
    }

    fn check<T: Word>(&self, target: usize, offset_words: usize, len_words: usize) {
        assert_eq!(T::SIZE, self.word_size, "window datatype mismatch");
        assert!(target < self.comm.size(), "target rank out of range");
        assert!(
            offset_words + len_words <= self.my_words,
            "RMA access beyond window bounds: {offset_words}+{len_words} > {}",
            self.my_words
        );
    }

    /// One-sided write: stores `data` into `target`'s window at
    /// `offset_words`. The target is not involved.
    pub fn put<T: Word>(&self, data: &[T], target: usize, offset_words: usize) {
        self.check::<T>(target, offset_words, data.len());
        let mut region = self.storage.regions[target].write();
        let off = offset_words * T::SIZE;
        encode_into(data, &mut region[off..off + data.len() * T::SIZE]);
        one_way(self.comm, target, (data.len() * T::SIZE) as u64);
    }

    /// One-sided read: loads from `target`'s window at `offset_words`
    /// into `out`.
    pub fn get<T: Word>(&self, out: &mut [T], target: usize, offset_words: usize) {
        self.check::<T>(target, offset_words, out.len());
        let region = self.storage.regions[target].read();
        let off = offset_words * T::SIZE;
        decode_into(&region[off..off + out.len() * T::SIZE], out);
        round_trip(self.comm, target, 8, (out.len() * T::SIZE) as u64);
    }

    /// One-sided atomic reduction: `target_window[offset..] = op(window,
    /// data)` element-wise (MPI_Accumulate). The write lock makes the
    /// whole update atomic with respect to other accumulates.
    pub fn accumulate<T: Numeric>(&self, data: &[T], target: usize, offset_words: usize, op: Op) {
        self.check::<T>(target, offset_words, data.len());
        let mut region = self.storage.regions[target].write();
        let off = offset_words * T::SIZE;
        let mut current = vec![T::zero(); data.len()];
        decode_into(&region[off..off + data.len() * T::SIZE], &mut current);
        op.fold_into(&mut current, data);
        encode_into(&current, &mut region[off..off + data.len() * T::SIZE]);
        let bytes = data.len() * T::SIZE;
        one_way(self.comm, target, bytes as u64);
        self.comm.v_stream(1.5 * bytes as f64);
    }

    // ------------------------------------------------------------------
    // Scheme 1: fence (active target, collective)
    // ------------------------------------------------------------------

    /// Collective fence: closes the previous access/exposure epoch and
    /// opens the next (MPI_Win_fence). All RMA issued before the fence is
    /// complete at every rank when it returns.
    pub async fn fence(&self) {
        self.comm.barrier_async().await;
    }

    // ------------------------------------------------------------------
    // Scheme 2: post-start-complete-wait (active target, generalised)
    // ------------------------------------------------------------------

    /// Opens an access epoch to the `targets` group (MPI_Win_start):
    /// waits until each target has posted its exposure epoch. When ranks
    /// are mutually origin and target, call [`post`](Window::post)
    /// *before* `start`, as MPI programs must.
    pub async fn start(&self, targets: &[usize]) {
        for &t in targets {
            self.comm.recv_payload_async(t, self.post_tag).await;
        }
    }

    /// Closes the access epoch (MPI_Win_complete): notifies each target
    /// that this origin's accesses are done.
    pub fn complete(&self, targets: &[usize]) {
        for &t in targets {
            self.signal(t, self.complete_tag);
        }
    }

    /// Opens an exposure epoch for the `origins` group (MPI_Win_post).
    /// Non-blocking.
    pub fn post(&self, origins: &[usize]) {
        for &o in origins {
            self.signal(o, self.post_tag);
        }
    }

    /// Closes the exposure epoch (MPI_Win_wait): waits until every origin
    /// has completed.
    pub async fn wait(&self, origins: &[usize]) {
        for &o in origins {
            self.comm.recv_payload_async(o, self.complete_tag).await;
        }
    }

    /// Sends the zero-byte token of an epoch transition to `peer`.
    fn signal(&self, peer: usize, tag: Tag) {
        self.comm
            .send_payload(Payload::from_vec(Vec::new()), peer, tag);
    }

    // ------------------------------------------------------------------
    // Scheme 3: lock/unlock (passive target)
    // ------------------------------------------------------------------

    /// Opens a passive-target epoch on `target` (MPI_Win_lock, exclusive).
    /// The guard releases the lock on drop (MPI_Win_unlock). A task holds
    /// no guard across an await: the lock is a host mutex.
    pub fn lock(&self, target: usize) -> WindowGuard<'_> {
        // parking_lot MutexGuard is !Send but we hold it on this thread only.
        let guard = self.storage.locks[target].lock();
        round_trip(self.comm, target, 0, 0);
        WindowGuard {
            comm: self.comm,
            target,
            _guard: guard,
        }
    }
}

/// A held passive-target lock; dropping it is MPI_Win_unlock.
pub struct WindowGuard<'w> {
    comm: &'w Comm,
    target: usize,
    _guard: parking_lot::MutexGuard<'w, ()>,
}

impl Drop for WindowGuard<'_> {
    fn drop(&mut self) {
        one_way(self.comm, self.target, 0);
    }
}

/// Prices one transfer of `bytes` to `target` under virtual execution: the
/// origin's clock moves to its arrival.
fn one_way(comm: &Comm, target: usize, bytes: u64) {
    comm.v_price(comm.rank(), target, bytes, None, |c| c.arrival);
}

/// Prices a request of `ask` bytes to `target` and its reply of `reply`
/// bytes, ready at the request's arrival, under virtual execution: the
/// origin's clock moves to the reply's arrival.
fn round_trip(comm: &Comm, target: usize, ask: u64, reply: u64) {
    let me = comm.rank();
    if let Some(req) = comm.v_price(me, target, ask, None, |c| c.sender_done) {
        comm.v_price(target, me, reply, Some(req.arrival), |c| c.arrival);
    }
}

/// Tests for the three synchronisation schemes and the access primitives.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;
    use crate::runtime::run;

    #[test]
    fn fence_put_exposes_data_everywhere() {
        let n = 5;
        run(n, |comm| {
            let win = block_on(Window::create::<f64>(comm, n));
            block_on(win.fence());
            // Everyone puts its rank into slot `me` of every target.
            let me = comm.rank();
            for t in 0..n {
                win.put(&[me as f64], t, me);
            }
            block_on(win.fence());
            let mut got = vec![0.0f64; n];
            win.get(&mut got, me, 0);
            let expect: Vec<f64> = (0..n).map(|r| r as f64).collect();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn get_reads_remote_without_target_involvement() {
        run(3, |comm| {
            let win = block_on(Window::create::<u64>(comm, 4));
            let me = comm.rank() as u64;
            win.put(
                &[me * 10, me * 10 + 1, me * 10 + 2, me * 10 + 3],
                comm.rank(),
                0,
            );
            block_on(win.fence());
            // Read the right neighbour's region; it does nothing special.
            let right = (comm.rank() + 1) % 3;
            let mut buf = [0u64; 4];
            win.get(&mut buf, right, 0);
            let r = right as u64;
            assert_eq!(buf, [r * 10, r * 10 + 1, r * 10 + 2, r * 10 + 3]);
            block_on(win.fence());
        });
    }

    #[test]
    fn pscw_epoch_orders_access() {
        // Rank 0 exposes; ranks 1..n put into disjoint slots under PSCW.
        let n = 4;
        let results = run(n, |comm| {
            let win = block_on(Window::create::<f64>(comm, n));
            let me = comm.rank();
            if me == 0 {
                let origins: Vec<usize> = (1..n).collect();
                win.post(&origins);
                block_on(win.wait(&origins));
                let mut got = vec![0.0f64; n];
                win.get(&mut got, 0, 0);
                got
            } else {
                block_on(win.start(&[0]));
                win.put(&[me as f64 * 2.0], 0, me);
                win.complete(&[0]);
                vec![]
            }
        });
        assert_eq!(results[0][1..], [2.0, 4.0, 6.0]);
    }

    #[test]
    fn passive_lock_accumulate_is_atomic() {
        // Every rank accumulates into rank 0's counter under a lock; the
        // sum must be exact despite full concurrency.
        let n = 8;
        let adds_per_rank = 50;
        let results = run(n, |comm| {
            let win = block_on(Window::create::<u64>(comm, 1));
            block_on(win.fence());
            for _ in 0..adds_per_rank {
                let _guard = win.lock(0);
                win.accumulate(&[1u64], 0, 0, Op::Sum);
            }
            block_on(win.fence());
            let mut v = [0u64];
            win.get(&mut v, 0, 0);
            v[0]
        });
        assert_eq!(results[0], (n * adds_per_rank) as u64);
    }

    #[test]
    #[should_panic(expected = "beyond window bounds")]
    fn out_of_bounds_put_panics() {
        run(2, |comm| {
            let win = block_on(Window::create::<f64>(comm, 2));
            win.put(&[1.0, 2.0, 3.0], 0, 0);
        });
    }

    /// Under virtual clocks a one-sided access is not free: a 1 MiB put
    /// holds its origin until the data has crossed the link (the test
    /// net's 1 GB/s), a get pays a request and the reply, and a lock and
    /// its unlock are priced too. Natively every clock stays zero.
    #[test]
    fn virtual_accesses_are_priced_and_native_ones_are_not() {
        use crate::virt::tests::TestNet;
        use simnet::Time;
        let words = 1 << 17; // 1 MiB of f64
        let wire = Time::from_secs((words * 8) as f64 / 1e9);
        let (laps, _) = crate::run_virtual_coop(2, Box::new(TestNet), move |comm| async move {
            let win = Window::create::<f64>(&comm, words).await;
            let mut at = vec![comm.v_time()];
            if comm.rank() == 0 {
                win.put(&vec![0.5f64; words], 1, 0);
                at.push(comm.v_time());
                win.get(&mut vec![0.0f64; words], 1, 0);
                at.push(comm.v_time());
                drop(win.lock(1));
                at.push(comm.v_time());
            }
            win.fence().await;
            at.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>()
        });
        let [put, get, lock] = laps[0][..] else {
            panic!("three laps: {:?}", laps[0]);
        };
        assert!(put >= wire, "a 1 MiB put took {put:?}");
        // Request (10 us) and reply (10 us + the wire).
        assert!(get >= wire + Time::from_us(20.0), "get {get:?}");
        // Request, grant and the unlock notification: 10 us each.
        assert!((lock.as_us() - 30.0).abs() < 1e-6, "lock {lock:?}");

        run(2, |comm| {
            let win = block_on(Window::create::<f64>(comm, words));
            if comm.rank() == 0 {
                win.put(&vec![0.5f64; words], 1, 0);
                drop(win.lock(1));
            }
            block_on(win.fence());
            assert_eq!(comm.v_time(), Time::ZERO);
        });
    }

    /// A window on a split communicator sums one accumulate per member on
    /// rank threads and inside a cooperative world alike: creation waits on
    /// no member, and there the fence is a yield point, not a blocking call.
    #[test]
    fn split_windows_run_on_both_engines() {
        async fn sums(comm: &Comm) -> bool {
            let sub = comm.split_async((comm.rank() % 2) as u32, 0).await;
            let win = Window::create::<u64>(&sub, 1).await;
            win.fence().await;
            win.accumulate(&[1u64], 0, 0, Op::Sum);
            win.fence().await;
            let mut v = [0u64];
            win.get(&mut v, 0, 0);
            v[0] == sub.size() as u64
        }
        assert!(run(4, |comm| block_on(sums(comm))).into_iter().all(|ok| ok));
        assert!(crate::run_coop(5, |comm| async move { sums(&comm).await })
            .into_iter()
            .all(|ok| ok));
    }

    /// Window creation never waits: in an instrumented world, 64 windows
    /// in a row on the world and on a split communicator each hand every
    /// member the one storage, and the run ends with no deadlock and no
    /// leftover message. Every member puts into every member's region, so
    /// the split's targets are addressed by communicator rank (its ranks
    /// {1, 3} have no world-rank region in a two-region window).
    #[test]
    fn instrumented_window_creation_never_waits() {
        use crate::check::{run_checked, Settings};
        use crate::Engine::Threads;
        let n = 4;
        let checked = run_checked(n, Threads, Settings::default(), |comm| async move {
            let sub = block_on(comm.split_async((comm.rank() % 2) as u32, comm.rank() as i64));
            for round in 0..64u64 {
                for c in [&comm, &sub] {
                    let win = Window::create::<u64>(c, c.size()).await;
                    win.fence().await;
                    for t in 0..c.size() {
                        win.put(&[round * 10 + c.rank() as u64], t, c.rank());
                    }
                    win.fence().await;
                    let mut got = vec![0u64; c.size()];
                    win.get(&mut got, c.rank(), 0);
                    let want: Vec<u64> = (0..c.size() as u64).map(|r| round * 10 + r).collect();
                    assert_eq!(got, want);
                    win.fence().await;
                }
            }
        });
        assert!(checked.log.deadlock.is_none());
        assert!(checked.log.panics.is_empty(), "{:?}", checked.log.panics);
        assert!(
            checked.log.leftover.is_empty(),
            "{:?}",
            checked.log.leftover
        );
        assert_eq!(checked.results.map(|r| r.len()), Some(n));
    }
}
