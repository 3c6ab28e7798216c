//! Occupancy-timeline resources: the contention primitive of the simulator.
//!
//! Every shared piece of hardware — a NIC injection port, a fat-tree link, a
//! node's memory system, the fabric bisection — is modelled as a FIFO server
//! with a fixed service bandwidth. A transfer of `b` bytes occupies the
//! resource for `b / bandwidth` seconds and cannot start before the
//! resource's next-free time. Serialising competing transfers this way
//! yields the same *total* completion time as fair fluid sharing for equal
//! concurrent flows, which is the quantity the paper's figures report.
//!
//! A timeline holds what a later transfer can still hit, not its history:
//! a caller that names a horizon no later transfer is ready before lets
//! the resource [retire](Resource::retire_before) every interval ending by
//! then but the last, which carries the high-water mark.
//!
//! Pricing one transfer is a handful of reserves, and simulated figures
//! make millions, so a reserve touches one buffer: the timeline's live
//! tail sits inline in the `Resource`, where appends and landings near
//! the high-water mark find it through one pointer, and the grant is
//! checked once, at its end, instead of as three fresh [`Time`]s.

use crate::time::Time;

/// A serially-reusable resource with a service bandwidth (bytes/second).
///
/// Reservations are placed *first-fit*: a transfer takes the earliest
/// gap in the occupancy timeline at or after its ready time. Pure FIFO
/// (always appending after the latest reservation) would create
/// unphysical cascades in symmetric patterns — e.g. a ring over
/// half-duplex NICs, where each node's send would queue behind its
/// neighbour's receive all the way around the ring. First-fit recovers
/// the alternating schedule real networks settle into while still never
/// starting a transfer before it is ready.
///
/// The timeline is a chunked sorted vector: disjoint `(start, end)`
/// intervals in global order, split across contiguous chunks of at
/// most `MAX_CHUNK` entries. Two production access patterns pull a
/// flat structure in opposite directions, and the chunks serve both:
///
/// * Simulated-mode figure sweeps land at or just before the high-water
///   mark. Pricing the 128-CPU paper plan makes 5.32 M reserves: 59 %
///   append, 40 % land in the last chunk (the *tail*, 8.4 intervals
///   long on average) 2.4 intervals before its end, and none behind it
///   (at 2 048 CPUs, 349 M reserves: 48 %, 52 % in a tail of 41
///   intervals, 0.003 %). So the search starts at the end and gallops
///   back through the tail, which sits inline in the `Resource`: only a
///   landing behind the tail's first interval, with older chunks to
///   search, and the split of a full tail go out of line. Scans stay
///   contiguous within a chunk, so this regime keeps the flat `Vec`'s
///   prefetcher-friendly speed — a `BTreeMap` timeline's pointer-chased
///   range walks made fig05/table3 1.5–2x slower end to end.
/// * High-rank virtual worlds backfill mid-timeline constantly
///   (profiled at 16 384 ranks: 8.6 M reserves, 1.5 % of them behind the
///   tail, 386 tail splits, lists to 13 818 intervals). A mid insert
///   memmoves one chunk (≤ 8 KB) instead of the whole list, where the
///   flat `Vec` paid an O(n) shift each (`simnet.reserves_per_s` in
///   `BENCHMARK.json` times this pattern).
///
/// [Retirement](Resource::retire_before) gives back what a caller's
/// horizon has passed: a caller whose ready times never go back behind a
/// horizon drops the chunks that lie wholly before it, and the dead
/// prefix of the oldest chunk once at least half of that chunk is dead.
/// A long run holds the window of its timeline that can still be hit —
/// at least the last interval, which carries the high-water mark —
/// instead of all of it.
#[derive(Clone, Debug)]
pub struct Resource {
    bandwidth: f64,
    intervals: Chunks,
    busy: Time,
    served_bytes: f64,
    reservations: u64,
}

/// Chunk capacity: splits keep chunks at half this, so a mid-timeline
/// insert memmoves at most `MAX_CHUNK * 16` bytes.
const MAX_CHUNK: usize = 512;

/// Disjoint busy intervals in global `(start, end)` order, sharded
/// into non-empty sorted chunks: the `older` ones, then the `tail`, which
/// holds the high-water mark and is empty only with the whole timeline.
/// The tail sits inline, so a reserve at the live end of the timeline
/// reaches its data through one pointer.
#[derive(Clone, Debug, Default)]
struct Chunks {
    older: Vec<Vec<(f64, f64)>>,
    tail: Vec<(f64, f64)>,
}

impl Resource {
    /// Creates a resource serving `bandwidth` bytes per second.
    ///
    /// Panics on a non-positive or non-finite bandwidth: a zero-bandwidth
    /// resource would make every reservation infinite.
    pub fn new(bandwidth: f64) -> Resource {
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "invalid resource bandwidth: {bandwidth}"
        );
        Resource {
            bandwidth,
            intervals: Chunks::default(),
            busy: Time::ZERO,
            served_bytes: 0.0,
            reservations: 0,
        }
    }

    /// Reserves the resource for `bytes` bytes, not before `ready`.
    /// Returns `(start, end)` of the granted slot and records it in the
    /// occupancy timeline (first-fit).
    ///
    /// Panics if the slot's end overflows to infinity. That is the one
    /// check a reservation needs: the bandwidth is positive and finite, so
    /// the service time is at least zero, and the slot starts at or after
    /// `ready`, itself a valid `Time`.
    pub fn reserve(&mut self, ready: Time, bytes: u64) -> (Time, Time) {
        let service = bytes as f64 / self.bandwidth;
        self.busy += Time::from_valid_secs(service);
        self.served_bytes += bytes as f64;
        self.reservations += 1;

        if service == 0.0 {
            return (ready, ready);
        }

        let (start, end) = self.intervals.reserve(ready.as_secs(), service);
        assert!(end.is_finite(), "invalid time: {end}");
        (Time::from_valid_secs(start), Time::from_valid_secs(end))
    }

    /// Number of disjoint busy intervals the occupancy timeline holds (a
    /// fragmentation gauge; retired intervals no longer count).
    #[inline]
    pub fn fragments(&self) -> usize {
        self.intervals.len()
    }

    /// Drops intervals of the timeline that end at or before `t`: every
    /// whole chunk that does, and the dead prefix of the oldest chunk left
    /// once at least half of that chunk is dead (so each drop memmoves at
    /// most as many intervals as it frees). The caller promises that no
    /// later [`reserve`](Self::reserve) is ready before `t`; first-fit
    /// starts its scan at the first interval ending *after* the ready
    /// time, so such a reserve never reads what is dropped and every grant
    /// stays what it would have been. (A new interval starting exactly
    /// where a dropped one ended is stored on its own instead of merged —
    /// the same occupancy.) The last interval always stays: it carries
    /// the high-water mark. The `busy_time`/`served_bytes`/`reservations`
    /// counters are totals and are not touched.
    #[inline]
    pub fn retire_before(&mut self, t: Time) {
        self.intervals.retire_before(t.as_secs());
    }

    /// The timeline's chunks in global order, as the tests read the
    /// layout: the older chunks, then the tail if it holds an interval.
    #[cfg(test)]
    fn chunks(&self) -> Vec<&[(f64, f64)]> {
        let Chunks { older, tail } = &self.intervals;
        let tail = Some(tail.as_slice()).filter(|t| !t.is_empty());
        older.iter().map(Vec::as_slice).chain(tail).collect()
    }

    /// The end of the last reservation (the timeline's high-water mark).
    #[cfg(test)]
    fn next_free(&self) -> Time {
        let tail = self.chunks().last().map(|c| c[c.len() - 1]);
        Time::from_secs(tail.map_or(0.0, |iv| iv.1))
    }

    /// Total time spent serving transfers.
    #[inline]
    pub fn busy_time(&self) -> Time {
        self.busy
    }

    /// Total bytes served.
    #[inline]
    pub(crate) fn served_bytes(&self) -> f64 {
        self.served_bytes
    }

    /// Number of reservations granted.
    #[inline]
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Resets the timeline (between independent simulated experiments).
    pub fn reset(&mut self) {
        self.intervals.older.clear();
        self.intervals.tail.clear();
        self.busy = Time::ZERO;
        self.served_bytes = 0.0;
        self.reservations = 0;
    }
}

impl Chunks {
    /// Total interval count across all chunks.
    fn len(&self) -> usize {
        self.older.iter().map(Vec::len).sum::<usize>() + self.tail.len()
    }

    /// Chunk `ci` in global order; `older.len()` names the tail.
    #[inline]
    fn chunk(&self, ci: usize) -> &Vec<(f64, f64)> {
        if ci < self.older.len() {
            &self.older[ci]
        } else {
            &self.tail
        }
    }

    /// Chunk `ci`, mutably.
    #[inline]
    fn chunk_mut(&mut self, ci: usize) -> &mut Vec<(f64, f64)> {
        if ci < self.older.len() {
            &mut self.older[ci]
        } else {
            &mut self.tail
        }
    }

    /// Drops the older chunks whose last interval ends at or before `t`;
    /// then the dead prefix of the oldest chunk left (the tail once no
    /// older one is) if it is at least half of that chunk, never its last
    /// interval.
    #[inline]
    fn retire_before(&mut self, t: f64) {
        if self
            .older
            .first()
            .is_some_and(|c| c.last().expect("non-empty").1 <= t)
        {
            let dead = self
                .older
                .partition_point(|c| c.last().expect("non-empty").1 <= t);
            self.older.drain(..dead);
        }
        // Every interval but the last of the oldest chunk may be dead; the
        // one at the middle says whether half of them are.
        let oldest = self.chunk_mut(0);
        let n = oldest.len();
        if n > 1 && oldest[n.div_ceil(2) - 1].1 <= t {
            let dead = oldest[..n - 1].partition_point(|iv| iv.1 <= t);
            oldest.drain(..dead);
        }
    }

    /// Splits chunk `ci` in two if an insert pushed it past capacity.
    #[inline]
    fn split_if_full(&mut self, ci: usize) {
        if self.chunk(ci).len() > MAX_CHUNK {
            self.split(ci);
        }
    }

    /// Moves the back half of chunk `ci` into a chunk of its own after
    /// it; a split tail leaves its front half as the newest older chunk.
    #[cold]
    #[inline(never)]
    fn split(&mut self, ci: usize) {
        let back = self.chunk_mut(ci).split_off(MAX_CHUNK / 2);
        if ci < self.older.len() {
            self.older.insert(ci + 1, back);
        } else {
            let front = std::mem::replace(&mut self.tail, back);
            self.older.push(front);
        }
    }

    /// First-fit reservation: grants the earliest gap of length
    /// `service` at or after `ready`, merging the new interval with
    /// touching neighbours. Grant-for-grant identical to a flat sorted
    /// `Vec` running the same scan (pinned by the oracle tests below) —
    /// the chunks only change which memory the scan walks.
    #[inline]
    fn reserve(&mut self, ready: f64, service: f64) -> (f64, f64) {
        // Append fast path: ready at or past the high-water mark means
        // there is no gap to search for. This is the dominant case in
        // simulated-mode sweeps.
        let end = ready + service;
        match self.tail.last_mut() {
            None => {
                self.tail.push((ready, end));
                return (ready, end);
            }
            Some(last) if ready >= last.1 => {
                if last.1 == ready {
                    last.1 = end; // extend the trailing interval
                } else {
                    self.tail.push((ready, end));
                    self.split_if_full(self.older.len());
                }
                return (ready, end);
            }
            Some(_) => {}
        }
        // Collective replays land a few intervals before the high-water
        // mark, so the search starts there: gallop back through the tail.
        // Only a ready time behind the tail's first interval, with older
        // chunks to search, leaves it.
        if self.tail[0].1 <= ready || self.older.is_empty() {
            let ii = gallop_back(&self.tail, ready);
            self.first_fit(self.older.len(), ii, ready, service)
        } else {
            self.reserve_behind_tail(ready, service)
        }
    }

    /// A landing behind the tail's first interval: binary-searches the
    /// older chunks, then the chunk that names.
    #[cold]
    #[inline(never)]
    fn reserve_behind_tail(&mut self, ready: f64, service: f64) -> (f64, f64) {
        let ci = self
            .older
            .partition_point(|c| c.last().expect("non-empty").1 <= ready);
        let ii = self.chunk(ci).partition_point(|iv| iv.1 <= ready);
        self.first_fit(ci, ii, ready, service)
    }

    /// The first-fit scan and merge from position `(ci, ii)`, the first
    /// interval ending after `ready` (ends are globally increasing because
    /// the intervals are disjoint and sorted by start).
    #[inline]
    fn first_fit(&mut self, mut ci: usize, mut ii: usize, ready: f64, service: f64) -> (f64, f64) {
        // Walk forward until the gap before the next interval fits.
        // Within a chunk this is a contiguous scan; an exhausted scan
        // stops at the end of the tail.
        let last = self.older.len();
        let mut candidate = ready;
        'scan: loop {
            let chunk = self.chunk(ci);
            while ii < chunk.len() {
                let (s, e) = chunk[ii];
                if s >= candidate + service {
                    break 'scan; // the gap before `s` fits
                }
                candidate = candidate.max(e);
                ii += 1;
            }
            if ci == last {
                break;
            }
            ci += 1;
            ii = 0;
        }
        let start = candidate;
        let end = start + service;

        // (ci, ii) is the insertion position, the tail's end if the scan
        // ran out; merge with the global predecessor ending
        // exactly at `start` and/or the interval at the position starting
        // exactly at `end` (no existing interval starts inside
        // [start, end)).
        let prev = if ii > 0 {
            Some((ci, ii - 1))
        } else if ci > 0 {
            Some((ci - 1, self.chunk(ci - 1).len() - 1))
        } else {
            None
        };
        let merges_prev = prev.is_some_and(|(pc, pi)| self.chunk(pc)[pi].1 == start);
        let merges_next = self.chunk(ci).get(ii).is_some_and(|iv| iv.0 == end);
        match (merges_prev, merges_next) {
            (true, true) => {
                let (pc, pi) = prev.expect("merges_prev");
                let (_, next_end) = self.chunk_mut(ci).remove(ii);
                self.chunk_mut(pc)[pi].1 = next_end;
                if self.chunk(ci).is_empty() {
                    // Only a chunk whose first interval merged backwards
                    // empties, so an older chunk precedes it.
                    if ci < last {
                        self.older.remove(ci);
                    } else {
                        self.tail = self.older.pop().expect("a chunk before the tail");
                    }
                }
            }
            (true, false) => {
                let (pc, pi) = prev.expect("merges_prev");
                self.chunk_mut(pc)[pi].1 = end;
            }
            (false, true) => self.chunk_mut(ci)[ii].0 = start,
            (false, false) => {
                // An exhausted scan leaves `candidate` equal to the last
                // interval's end (ends are increasing and the append fast
                // path already excluded `ready` past the high-water mark),
                // so the end of the tail implies `merges_prev` and cannot
                // reach this arm — but inserting there is still the
                // order-preserving action.
                self.chunk_mut(ci).insert(ii, (start, end));
                self.split_if_full(ci);
            }
        }
        (start, end)
    }
}

/// The first index of `chunk` whose interval ends after `ready`, given
/// that the last one does: probes 1, 2, 4, … back from the end until an
/// interval ends at or before `ready`, then binary-searches the span
/// between the last two probes. The same partition point
/// `chunk.partition_point(|iv| iv.1 <= ready)` finds from the front, in
/// O(log d) steps for a landing `d` intervals before the end.
fn gallop_back(chunk: &[(f64, f64)], ready: f64) -> usize {
    let mut hi = chunk.len() - 1; // chunk[hi] ends after `ready`
    let mut step = 1;
    while step <= hi {
        let probe = hi - step;
        if chunk[probe].1 <= ready {
            return probe + 1 + chunk[probe + 1..hi].partition_point(|iv| iv.1 <= ready);
        }
        hi = probe;
        step *= 2;
    }
    chunk[..hi].partition_point(|iv| iv.1 <= ready)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_reservation() {
        let mut r = Resource::new(1e9); // 1 GB/s
        let (start, end) = r.reserve(Time::ZERO, 1_000_000);
        assert_eq!(start, Time::ZERO);
        assert!((end.as_secs() - 1e-3).abs() < 1e-12);
        assert_eq!(r.reservations(), 1);
    }

    #[test]
    fn back_to_back_reservations_queue() {
        let mut r = Resource::new(1e9);
        let (_, e1) = r.reserve(Time::ZERO, 500_000);
        // Second transfer is ready at t=0 but must wait for the first.
        let (s2, e2) = r.reserve(Time::ZERO, 500_000);
        assert_eq!(s2, e1);
        assert!((e2.as_secs() - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn idle_gap_is_respected() {
        let mut r = Resource::new(1e9);
        let (_, e1) = r.reserve(Time::ZERO, 1000);
        let late = Time::from_secs(1.0);
        let (s2, _) = r.reserve(late, 1000);
        assert!(e1 < late);
        assert_eq!(s2, late, "resource was free; transfer starts when ready");
    }

    #[test]
    fn accounting() {
        let mut r = Resource::new(2e9);
        r.reserve(Time::ZERO, 2_000_000_000);
        r.reserve(Time::ZERO, 2_000_000_000);
        assert!((r.busy_time().as_secs() - 2.0).abs() < 1e-9);
        assert_eq!(r.served_bytes(), 4e9);
    }

    #[test]
    fn reset_clears_timeline() {
        let mut r = Resource::new(1e9);
        r.reserve(Time::ZERO, 1000);
        r.reset();
        assert_eq!(r.next_free(), Time::ZERO);
        assert_eq!(r.reservations(), 0);
        assert_eq!(r.served_bytes(), 0.0);
    }

    /// `reserve` checks a grant once, at its end: a zero-byte
    /// reservation is granted at its ready time, and one whose end
    /// overflows panics.
    #[test]
    #[should_panic(expected = "invalid time: inf")]
    fn an_overflowing_reservation_panics() {
        let mut r = Resource::new(f64::MIN_POSITIVE);
        let ready = Time::from_secs(2.0);
        assert_eq!(r.reserve(ready, 0), (ready, ready));
        r.reserve(ready, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "invalid resource bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Resource::new(0.0);
    }

    #[test]
    fn reservations_never_overlap_or_jump_the_ready_time() {
        let mut r = Resource::new(1e8);
        let mut granted: Vec<(f64, f64)> = Vec::new();
        for i in 0..200u64 {
            let ready = Time::from_us((i % 7) as f64 * 3.0);
            let (start, end) = r.reserve(ready, 1 + (i * 37) % 5000);
            assert!(start >= ready, "reservation started before ready");
            assert!(end >= start);
            granted.push((start.as_secs(), end.as_secs()));
        }
        granted.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in granted.windows(2) {
            assert!(
                w[0].1 <= w[1].0 + 1e-15,
                "overlap: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn first_fit_backfills_gaps() {
        let mut r = Resource::new(1e9);
        // Late transfer occupies [1ms, 2ms).
        let (_, _) = r.reserve(Time::from_secs(1e-3), 1_000_000);
        // An earlier-ready transfer fits entirely before it.
        let (s, e) = r.reserve(Time::ZERO, 500_000);
        assert_eq!(s, Time::ZERO);
        assert!((e.as_secs() - 5e-4).abs() < 1e-12);
        // A transfer too big for the gap goes after the late one.
        let (s2, _) = r.reserve(Time::ZERO, 900_000);
        assert!((s2.as_secs() - 2e-3).abs() < 1e-12);
    }

    /// The pre-BTreeMap sorted-`Vec` first-fit, frozen verbatim as a
    /// semantic oracle.
    struct NaiveTimeline {
        intervals: Vec<(f64, f64)>,
    }

    impl NaiveTimeline {
        fn reserve(&mut self, ready: f64, service: f64) -> (f64, f64) {
            if service == 0.0 {
                return (ready, ready);
            }
            let mut idx = self.intervals.partition_point(|iv| iv.1 <= ready);
            let mut candidate = ready;
            while idx < self.intervals.len() {
                let (s, e) = self.intervals[idx];
                if s >= candidate + service {
                    break;
                }
                candidate = candidate.max(e);
                idx += 1;
            }
            let start = candidate;
            let end = start + service;
            let merges_prev = idx > 0 && self.intervals[idx - 1].1 == start;
            let merges_next = idx < self.intervals.len() && self.intervals[idx].0 == end;
            match (merges_prev, merges_next) {
                (true, true) => {
                    self.intervals[idx - 1].1 = self.intervals[idx].1;
                    self.intervals.remove(idx);
                }
                (true, false) => self.intervals[idx - 1].1 = end,
                (false, true) => self.intervals[idx].0 = start,
                (false, false) => self.intervals.insert(idx, (start, end)),
            }
            (start, end)
        }
    }

    #[test]
    fn first_fit_matches_the_frozen_naive_reference() {
        let mut r = Resource::new(1e9);
        let mut naive = NaiveTimeline {
            intervals: Vec::new(),
        };
        // Loosely increasing ready times with a wide jitter window: the
        // fragmentation + mid-timeline backfill pattern high-rank virtual
        // worlds produce, exercising every reserve path (append, extend,
        // straddle, gap scan, both-side merges).
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for i in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let jitter = ((state >> 33) % 1_000_000) as f64;
            let ready = Time::from_us(i as f64 * 0.5 + jitter);
            let bytes = 1 + (state >> 55) % 4096;
            let (s, e) = r.reserve(ready, bytes);
            let (ns, ne) = naive.reserve(ready.as_secs(), bytes as f64 / 1e9);
            assert_eq!(s.as_secs().to_bits(), ns.to_bits(), "start diverged at {i}");
            assert_eq!(e.as_secs().to_bits(), ne.to_bits(), "end diverged at {i}");
        }
        assert_eq!(
            r.fragments(),
            naive.intervals.len(),
            "timelines fragmented differently"
        );
        assert!(
            r.chunks().len() > 1,
            "this pattern fragments far past one chunk; splits and \
             cross-chunk scans must have been exercised"
        );
        for c in r.chunks() {
            assert!(!c.is_empty(), "empty chunk left behind");
            assert!(c.len() <= MAX_CHUNK, "chunk overgrew its capacity");
        }
    }

    /// Starting one interval early would grant the same slots, so the
    /// oracle tests cannot see it; the partition point itself is pinned.
    #[test]
    fn gallop_back_finds_the_front_partition_point() {
        for len in 1..=70 {
            let chunk: Vec<(f64, f64)> = (0..len)
                .map(|i| (2.0 * i as f64, 2.0 * i as f64 + 1.0))
                .collect();
            // Every ready time before the last end: on, between and inside intervals.
            for half in 0..(4 * len - 2) {
                let ready = half as f64 / 2.0 - 0.5;
                let front = chunk.partition_point(|iv| iv.1 <= ready);
                assert_eq!(
                    gallop_back(&chunk, ready),
                    front,
                    "len {len}, ready {ready}"
                );
            }
        }
    }

    /// Collective replays land a few intervals before the high-water mark.
    /// Ready times here do the same across many chunks: appends past the
    /// end, landings 1–8 intervals before it, and now and then one
    /// hundreds of intervals back, behind the tail chunk. Times and
    /// services are whole seconds (1 B/s), so grants touch their
    /// neighbours exactly and every merge arm fires; retirement trails a
    /// horizon no ready time goes behind. Every grant equals the oracle's
    /// bit for bit, and the pattern reaches every search path, tail
    /// splits and all four merge arms, read off the timeline each reserve
    /// sees.
    #[test]
    fn near_high_water_mark_matches_the_frozen_naive_reference() {
        let mut r = Resource::new(1.0);
        let mut naive = NaiveTimeline {
            intervals: Vec::new(),
        };
        let mut state = 0xa409_3822_299f_31d0u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let (mut gallops, mut fallbacks, mut tail_splits, mut retirements) = (0, 0, 0, 0);
        // Indexed by (merges_prev, merges_next) as `2 * prev + next`.
        let mut arms = [0usize; 4];
        let mut horizon = 0.0f64;
        for i in 0..40_000u64 {
            let len = naive.intervals.len();
            let hwm = naive.intervals.last().map_or(0.0, |iv| iv.1);
            let bytes = 1 + next(8);
            let back = |k: u64| naive.intervals[len - (k as usize).min(len)];
            let ready = match next(16) {
                _ if len == 0 => 0.0,
                0..=7 => hwm + next(12) as f64,
                8..=14 => {
                    let (s, e) = back(1 + next(8));
                    let before = s - bytes as f64;
                    [before, before - 1.0, s, e, e + 1.0][next(5) as usize]
                }
                _ => back(1 + next(700)).0,
            }
            .max(horizon);

            let chunks = r.chunks();
            let (n_chunks, tail_len) = (chunks.len(), chunks.last().map_or(0, |c| c.len()));
            let held_from = chunks.first().map_or(0.0, |c| c[0].0);
            let mid = ready < hwm;
            if mid && chunks.last().expect("mid implies an interval")[0].1 <= ready {
                gallops += 1;
            } else if mid && n_chunks > 1 {
                fallbacks += 1;
            }

            let (s, e) = r.reserve(Time::from_secs(ready), bytes);
            let (s, e) = (s.as_secs(), e.as_secs());
            if mid {
                let all = &naive.intervals;
                let p = all.partition_point(|iv| iv.1 < s);
                let merges_prev = p < len && all[p].1 == s && all[p].0 >= held_from;
                let n = all.partition_point(|iv| iv.0 < e);
                let merges_next = n < len && all[n].0 == e;
                arms[2 * usize::from(merges_prev) + usize::from(merges_next)] += 1;
            }
            let chunks = r.chunks();
            tail_splits += usize::from(
                chunks.len() == n_chunks + 1
                    && tail_len == MAX_CHUNK
                    && chunks[n_chunks].len() == MAX_CHUNK + 1 - MAX_CHUNK / 2,
            );

            let (ns, ne) = naive.reserve(ready, bytes as f64);
            assert_eq!(s.to_bits(), ns.to_bits(), "start diverged at {i}");
            assert_eq!(e.to_bits(), ne.to_bits(), "end diverged at {i}");

            if i % 64 == 63 && naive.intervals.len() > 1000 {
                horizon = horizon.max(naive.intervals[naive.intervals.len() - 1000].0);
                let before = r.chunks().len();
                r.retire_before(Time::from_secs(horizon));
                retirements += before - r.chunks().len();
            }
        }
        for c in r.chunks() {
            assert!(!c.is_empty() && c.len() <= MAX_CHUNK);
        }
        let total_chunks = retirements + r.chunks().len();
        assert!(total_chunks > 40, "only {total_chunks} chunks");
        assert!(gallops > 10_000, "{gallops} last-chunk gallops");
        assert!(fallbacks > 500, "{fallbacks} cross-chunk fallbacks");
        assert!(tail_splits > 30, "{tail_splits} tail splits");
        assert!(arms.iter().all(|&n| n > 1000), "merge arms {arms:?}");
    }

    /// A horizon that creeps forward while ready times jitter over
    /// `window_us` ahead of it, and a timeline retired every
    /// `retire_every` reserves (on average) at a random point up to
    /// `lag_us` behind that horizon, beside one that keeps everything. Every grant of
    /// the retired timeline equals the never-retired oracle's bit for bit.
    /// Returns the retired and the kept timeline, the most chunks the
    /// retired one held at once, and how many calls dropped an interval.
    fn retire_beside_the_oracle(
        seed: u64,
        window_us: u64,
        retire_every: u64,
        lag_us: u64,
    ) -> (Resource, Resource, usize, usize) {
        let mut retired = Resource::new(1e9);
        let mut kept = Resource::new(1e9);
        let mut naive = NaiveTimeline {
            intervals: Vec::new(),
        };
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut horizon_us = 0.0f64;
        let (mut most_chunks, mut retirements) = (0, 0);
        for i in 0..60_000u64 {
            horizon_us += (next() % 9) as f64;
            if next() % retire_every == 0 {
                // Anywhere at or behind the horizon is a sound argument.
                let t = (horizon_us - (next() % lag_us) as f64).max(0.0);
                let before = retired.fragments();
                retired.retire_before(Time::from_us(t));
                retirements += usize::from(retired.fragments() < before);
            }
            let ready = Time::from_us(horizon_us + (next() % window_us) as f64);
            let bytes = 1 + next() % 4096;
            let (s, e) = retired.reserve(ready, bytes);
            kept.reserve(ready, bytes);
            let (ns, ne) = naive.reserve(ready.as_secs(), bytes as f64 / 1e9);
            assert_eq!(s.as_secs().to_bits(), ns.to_bits(), "start diverged at {i}");
            assert_eq!(e.as_secs().to_bits(), ne.to_bits(), "end diverged at {i}");
            most_chunks = most_chunks.max(retired.chunks().len());
        }
        assert_eq!(kept.fragments(), naive.intervals.len());
        assert_eq!(retired.busy_time(), kept.busy_time());
        assert_eq!(retired.served_bytes(), kept.served_bytes());
        assert_eq!(retired.reservations(), kept.reservations());
        assert_eq!(retired.next_free(), kept.next_free());
        for c in retired.chunks() {
            assert!(!c.is_empty() && c.len() <= MAX_CHUNK);
        }
        (retired, kept, most_chunks, retirements)
    }

    /// Retirement is invisible: with a horizon that ready times never go
    /// back behind, a timeline retired at random points up to the horizon
    /// grants exactly what the never-retired oracle grants, and its totals
    /// and high-water mark equal a never-retired `Resource`'s. That holds
    /// for a window 2000 services wide, which fragments past one chunk
    /// and backfills mid-window, and for one 40 wide, whose live part
    /// never fills a chunk: there retirement trims the one chunk it has,
    /// which is also the last.
    #[test]
    fn retirement_changes_no_grant() {
        let (mut retired, kept, most_chunks, retirements) =
            retire_beside_the_oracle(0x1319_8a2e_0370_7344, 8000, 64, 100_000);
        assert!(most_chunks > 1, "the wide window splits the timeline");
        assert!(
            retirements > 10,
            "only {retirements} calls dropped an interval"
        );
        assert!(
            retired.fragments() * 4 < kept.fragments(),
            "{} of {} intervals still held",
            retired.fragments(),
            kept.fragments()
        );

        let (narrow, narrow_kept, most_chunks, retirements) =
            retire_beside_the_oracle(0x0801_1a2b_3c4d_5e6f, 160, 8, 160);
        assert_eq!(most_chunks, 1, "the narrow window never splits");
        assert!(
            narrow_kept.fragments() > 4 * MAX_CHUNK,
            "{} intervals kept",
            narrow_kept.fragments()
        );
        assert!(
            retirements > 100,
            "only {retirements} calls trimmed the one chunk"
        );
        assert!(
            narrow.fragments() < MAX_CHUNK / 4,
            "{} intervals still held",
            narrow.fragments()
        );

        // A horizon past everything keeps the last interval, and with it
        // the high-water mark.
        retired.retire_before(Time::from_secs(1e6));
        assert_eq!(retired.fragments(), 1);
        assert_eq!(retired.next_free(), kept.next_free());
        // And an empty timeline has nothing to retire.
        let mut empty = Resource::new(1e9);
        empty.retire_before(Time::from_secs(1.0));
        assert_eq!(empty.fragments(), 0);
    }

    #[test]
    fn timeline_splits_into_chunks_and_stays_ordered() {
        let mut r = Resource::new(1e9);
        // Widely separated reservations never merge: one fragment each,
        // enough of them to force several chunk splits.
        let n = 3 * MAX_CHUNK as u64;
        for i in 0..n {
            r.reserve(Time::from_secs(i as f64), 1000);
        }
        assert_eq!(r.fragments(), n as usize);
        assert!(r.chunks().len() >= 3, "expected multiple chunks");
        let flat: Vec<(f64, f64)> = r.chunks().into_iter().flatten().copied().collect();
        assert!(
            flat.windows(2).all(|w| w[0].1 <= w[1].0),
            "chunks out of global order"
        );
        // Backfill far behind the high-water mark crosses chunk
        // boundaries and keeps first-fit semantics.
        let (s, e) = r.reserve(Time::from_secs(0.25), 1000);
        assert_eq!(s, Time::from_secs(0.25));
        assert!(e < Time::from_secs(1.0), "backfills the first gap");
        r.reset();
        assert_eq!(r.fragments(), 0);
        assert_eq!(r.next_free(), Time::ZERO);
    }

    #[test]
    fn half_duplex_ring_does_not_cascade() {
        // The regression that motivated first-fit: alternating use of a
        // shared (half-duplex) resource by "receive then send" pairs must
        // cost 2 slots, not N slots.
        let n = 16;
        let mut nics: Vec<Resource> = (0..n).map(|_| Resource::new(1e9)).collect();
        let mut worst = Time::ZERO;
        for i in 0..n {
            let j = (i + 1) % n;
            // node i sends 1 MB to node j: occupies nic[i] and nic[j].
            let (head, e1) = nics[i].reserve(Time::ZERO, 1_000_000);
            let (_, e2) = nics[j].reserve(head, 1_000_000);
            worst = worst.max(e1).max(e2);
        }
        assert!(
            worst.as_secs() < 2.5e-3,
            "ring over shared NICs took {worst} (cascade regression)"
        );
    }
}
