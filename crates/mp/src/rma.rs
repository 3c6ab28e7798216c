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

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::comm::Comm;
use crate::datatype::{decode_into, encode_into, Word};
use crate::msg::Tag;
use crate::payload::Payload;
use crate::reduce::{Numeric, Op};

/// Exposed memory regions, one per rank, shared across the SPMD world the
/// way registered RDMA buffers are.
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
/// * [`lock`](Window::lock)/[`unlock`](Window::unlock) — passive target.
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
    pub fn create<T: Word>(comm: &'c Comm, local_words: usize) -> Window<'c> {
        let n = comm.size();
        let bytes = local_words * T::SIZE;

        // RDMA registration equivalent: rank 0 allocates the exposed
        // regions, every member receives the same Arc through the
        // runtime's collective rendezvous.
        let storage = WindowExchange::establish(comm, n, bytes);
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

    /// Number of words exposed by each rank.
    pub fn local_words(&self) -> usize {
        self.my_words
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
        let g = self.comm.global_rank(target);
        let mut region = self.storage.regions[g].write();
        let off = offset_words * T::SIZE;
        encode_into(data, &mut region[off..off + data.len() * T::SIZE]);
    }

    /// One-sided read: loads from `target`'s window at `offset_words`
    /// into `out`.
    pub fn get<T: Word>(&self, out: &mut [T], target: usize, offset_words: usize) {
        self.check::<T>(target, offset_words, out.len());
        let g = self.comm.global_rank(target);
        let region = self.storage.regions[g].read();
        let off = offset_words * T::SIZE;
        decode_into(&region[off..off + out.len() * T::SIZE], out);
    }

    /// One-sided atomic reduction: `target_window[offset..] = op(window,
    /// data)` element-wise (MPI_Accumulate). The write lock makes the
    /// whole update atomic with respect to other accumulates.
    pub fn accumulate<T: Numeric>(&self, data: &[T], target: usize, offset_words: usize, op: Op) {
        self.check::<T>(target, offset_words, data.len());
        let g = self.comm.global_rank(target);
        let mut region = self.storage.regions[g].write();
        let off = offset_words * T::SIZE;
        let mut current = vec![T::zero(); data.len()];
        decode_into(&region[off..off + data.len() * T::SIZE], &mut current);
        op.fold_into(&mut current, data);
        encode_into(&current, &mut region[off..off + data.len() * T::SIZE]);
    }

    // ------------------------------------------------------------------
    // Scheme 1: fence (active target, collective)
    // ------------------------------------------------------------------

    /// Collective fence: closes the previous access/exposure epoch and
    /// opens the next (MPI_Win_fence). All RMA issued before the fence is
    /// complete at every rank when it returns.
    pub fn fence(&self) {
        self.comm.barrier();
    }

    // ------------------------------------------------------------------
    // Scheme 2: post-start-complete-wait (active target, generalised)
    // ------------------------------------------------------------------

    /// Opens an access epoch to the `targets` group (MPI_Win_start):
    /// blocks until each target has posted its exposure epoch. When
    /// ranks are mutually origin and target, call [`post`](Window::post)
    /// *before* `start`, as MPI programs must.
    pub fn start(&self, targets: &[usize]) {
        for &t in targets {
            self.await_token(t, self.post_tag);
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

    /// Closes the exposure epoch (MPI_Win_wait): blocks until every
    /// origin has completed.
    pub fn wait(&self, origins: &[usize]) {
        for &o in origins {
            self.await_token(o, self.complete_tag);
        }
    }

    /// Sends the zero-byte token of an epoch transition to `peer`.
    fn signal(&self, peer: usize, tag: Tag) {
        self.comm
            .send_payload(Payload::encode::<u8>(&[]), peer, tag);
    }

    /// Blocks until `peer`'s token arrives.
    fn await_token(&self, peer: usize, tag: Tag) {
        crate::coop::block_on(self.comm.recv_payload_async(peer, tag));
    }

    // ------------------------------------------------------------------
    // Scheme 3: lock/unlock (passive target)
    // ------------------------------------------------------------------

    /// Opens a passive-target epoch on `target` (MPI_Win_lock, exclusive).
    /// The guard releases the lock on drop; [`unlock`](WindowGuard) is
    /// explicit via scope end.
    pub fn lock(&self, target: usize) -> WindowGuard<'_> {
        let g = self.comm.global_rank(target);
        // parking_lot MutexGuard is !Send but we hold it on this thread only.
        let guard = self.storage.locks[g].lock();
        WindowGuard { _guard: guard }
    }
}

/// A held passive-target lock; dropping it is MPI_Win_unlock.
pub struct WindowGuard<'w> {
    _guard: parking_lot::MutexGuard<'w, ()>,
}

/// Establishes the shared storage Arc across the world: rank 0 of the
/// communicator allocates, every rank deposits/collects through a world
/// rendezvous keyed by the collective sequence.
struct WindowExchange;

impl WindowExchange {
    fn establish(comm: &Comm, n: usize, bytes: usize) -> Arc<WindowStorage> {
        // Exchange a creation token so all ranks agree on sizes.
        let mut sizes = vec![0u64; n];
        comm.allgather(&[bytes as u64], &mut sizes);
        assert!(
            sizes.iter().all(|&s| s == bytes as u64),
            "all ranks must expose equally sized windows"
        );
        // Rank 0 allocates and publishes through the runtime's shared
        // rendezvous slot; others pick it up.
        comm.rendezvous_storage(|| {
            Arc::new(WindowStorage {
                regions: (0..n).map(|_| RwLock::new(vec![0u8; bytes])).collect(),
                locks: (0..n).map(|_| Mutex::new(())).collect(),
            })
        })
    }
}

/// Tests for the three synchronisation schemes and the access primitives.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run;

    #[test]
    fn fence_put_exposes_data_everywhere() {
        let n = 5;
        run(n, |comm| {
            let win = Window::create::<f64>(comm, n);
            win.fence();
            // Everyone puts its rank into slot `me` of every target.
            let me = comm.rank();
            for t in 0..n {
                win.put(&[me as f64], t, me);
            }
            win.fence();
            let mut got = vec![0.0f64; n];
            win.get(&mut got, me, 0);
            let expect: Vec<f64> = (0..n).map(|r| r as f64).collect();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn get_reads_remote_without_target_involvement() {
        run(3, |comm| {
            let win = Window::create::<u64>(comm, 4);
            let me = comm.rank() as u64;
            win.put(
                &[me * 10, me * 10 + 1, me * 10 + 2, me * 10 + 3],
                comm.rank(),
                0,
            );
            win.fence();
            // Read the right neighbour's region; it does nothing special.
            let right = (comm.rank() + 1) % 3;
            let mut buf = [0u64; 4];
            win.get(&mut buf, right, 0);
            let r = right as u64;
            assert_eq!(buf, [r * 10, r * 10 + 1, r * 10 + 2, r * 10 + 3]);
            win.fence();
        });
    }

    #[test]
    fn pscw_epoch_orders_access() {
        // Rank 0 exposes; ranks 1..n put into disjoint slots under PSCW.
        let n = 4;
        let results = run(n, |comm| {
            let win = Window::create::<f64>(comm, n);
            let me = comm.rank();
            if me == 0 {
                let origins: Vec<usize> = (1..n).collect();
                win.post(&origins);
                win.wait(&origins);
                let mut got = vec![0.0f64; n];
                win.get(&mut got, 0, 0);
                got
            } else {
                win.start(&[0]);
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
            let win = Window::create::<u64>(comm, 1);
            win.fence();
            for _ in 0..adds_per_rank {
                let _guard = win.lock(0);
                win.accumulate(&[1u64], 0, 0, Op::Sum);
            }
            win.fence();
            let mut v = [0u64];
            win.get(&mut v, 0, 0);
            v[0]
        });
        assert_eq!(results[0], (n * adds_per_rank) as u64);
    }

    #[test]
    fn accumulate_without_contention_matches_reduce() {
        let n = 6;
        let results = run(n, |comm| {
            let win = Window::create::<f64>(comm, 2);
            win.fence();
            // Disjoint-element accumulates still need the window's inner
            // write lock, which `accumulate` takes itself.
            win.accumulate(&[comm.rank() as f64, 1.0], 0, 0, Op::Sum);
            win.fence();
            let mut v = [0.0f64; 2];
            win.get(&mut v, 0, 0);
            v
        });
        let rank_sum = (0..6).sum::<usize>() as f64;
        assert_eq!(results[0], [rank_sum, 6.0]);
    }

    #[test]
    #[should_panic(expected = "beyond window bounds")]
    fn out_of_bounds_put_panics() {
        run(2, |comm| {
            let win = Window::create::<f64>(comm, 2);
            win.put(&[1.0, 2.0, 3.0], 0, 0);
        });
    }

    #[test]
    fn windows_on_split_communicators_are_independent() {
        let n = 4;
        run(n, |comm| {
            let sub = comm.split((comm.rank() % 2) as u32, comm.rank() as i64);
            let win = Window::create::<u64>(&sub, 1);
            win.fence();
            win.accumulate(&[1u64], 0, 0, Op::Sum);
            win.fence();
            let mut v = [0u64];
            win.get(&mut v, 0, 0);
            assert_eq!(v[0], sub.size() as u64);
        });
    }
}
