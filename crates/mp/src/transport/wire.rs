//! Length-prefixed wire framing of the tcp backend.
//!
//! Every cross-process message — payload data, epoch flush barriers and
//! the mpcheck control traffic — travels as one [`Frame`]:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "MPW1" (little-endian u32 0x3157504D)
//!      4     1  kind (FrameKind discriminant)
//!      5     3  reserved, zero
//!      8     4  epoch        (LE u32)
//!     12     4  source proc  (LE u32)
//!     16     8  field a      (LE u64; Data: source world rank)
//!     24     8  field b      (LE u64; Data: destination world rank)
//!     32     8  field c      (LE u64; Data: packed comm id + tag)
//!     40     8  payload length (LE u64)
//!     48     n  payload bytes
//! ```
//!
//! The header is fixed at [`HEADER_BYTES`]: [`read_frame`], the one
//! decoder, blocks for a complete header, learns the payload length, then
//! blocks for the rest — a stream that ends anywhere inside a frame is an
//! `UnexpectedEof`, never a shorter frame. Everything is little-endian.

use std::io::{Read, Write};

use crate::check::{CollSite, Deadlock, LaneInfo, WaitOn, WaitSnapshot};

/// Frame magic: `b"MPW1"` read as a little-endian u32.
pub(crate) const MAGIC: u32 = u32::from_le_bytes(*b"MPW1");

/// Fixed size of the frame header preceding the payload.
pub(crate) const HEADER_BYTES: usize = 48;

/// Ceiling on a frame payload (1 GiB): far above any benchmark message,
/// low enough that a corrupt length field fails fast instead of
/// attempting an absurd allocation.
pub(crate) const MAX_PAYLOAD: u64 = 1 << 30;

/// What a frame carries. `Data` is the only payload-bearing kind on the
/// benchmark fast path; the rest are control traffic (epoch teardown and
/// the cross-process deadlock detector).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FrameKind {
    /// A point-to-point message for a rank resident on another process.
    Data = 0,
    /// Epoch flush barrier: "every Data frame I will ever send in this
    /// epoch precedes this frame on this channel".
    Barrier = 1,
    /// A worker's stable wait snapshot (serialized wait edges), sent to
    /// proc 0 for global deadlock aggregation.
    Stable = 2,
    /// Proc 0 asking a worker to confirm its snapshot is still current.
    Confirm = 3,
    /// The worker's reply: whether no resident can run, and its sent /
    /// received counters.
    ConfirmAck = 4,
    /// A global deadlock diagnosis, broadcast by proc 0; receivers poison
    /// their local world so blocked ranks unwind with the diagnosis.
    Poison = 5,
    /// TCP connection preamble identifying the connecting proc.
    Hello = 6,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            0 => FrameKind::Data,
            1 => FrameKind::Barrier,
            2 => FrameKind::Stable,
            3 => FrameKind::Confirm,
            4 => FrameKind::ConfirmAck,
            5 => FrameKind::Poison,
            6 => FrameKind::Hello,
            _ => return None,
        })
    }
}

/// One wire frame (see the module docs for the byte layout).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// The `mp::run` epoch the frame belongs to.
    pub epoch: u32,
    /// Index of the sending process.
    pub src_proc: u32,
    /// Kind-specific header field (Data: source world rank).
    pub a: u64,
    /// Kind-specific header field (Data: destination world rank).
    pub b: u64,
    /// Kind-specific header field (Data: packed comm id + tag).
    pub c: u64,
    /// Payload bytes (Data: the encoded message payload).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A control frame with no payload.
    pub(crate) fn control(kind: FrameKind, epoch: u32, src_proc: u32) -> Frame {
        Frame {
            kind,
            epoch,
            src_proc,
            a: 0,
            b: 0,
            c: 0,
            payload: Vec::new(),
        }
    }

    /// Serializes the frame (header + payload) into `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(HEADER_BYTES + self.payload.len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(self.kind as u8);
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.src_proc.to_le_bytes());
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
        out.extend_from_slice(&self.c.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Serializes the frame into a fresh buffer.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.payload.len());
        self.encode_into(&mut out);
        out
    }
}

/// Reads one frame from a blocking byte stream (the tcp reader threads):
/// the one place a header is parsed. Returns `Ok(None)` on clean EOF at a
/// frame boundary and `UnexpectedEof` when the stream ends inside a frame.
/// Panics on a corrupt header — a framing bug, not a recoverable
/// condition.
pub(crate) fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Frame>> {
    let mut header = [0u8; HEADER_BYTES];
    let mut filled = 0;
    while filled < HEADER_BYTES {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "mp transport: connection closed mid-frame",
                ))
            }
            n => filled += n,
        }
    }
    let u32_at = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    let magic = u32_at(0);
    assert_eq!(magic, MAGIC, "mp transport: bad frame magic {magic:#x}");
    let kind = FrameKind::from_u8(header[4])
        .unwrap_or_else(|| panic!("mp transport: unknown frame kind {}", header[4]));
    let len = u64_at(40);
    assert!(
        len <= MAX_PAYLOAD,
        "mp transport: frame payload length {len} exceeds the {MAX_PAYLOAD} ceiling"
    );
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(Frame {
        kind,
        epoch: u32_at(8),
        src_proc: u32_at(12),
        a: u64_at(16),
        b: u64_at(24),
        c: u64_at(32),
        payload,
    }))
}

/// Writes one frame to a blocking byte stream.
pub(crate) fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())
}

// ---------------------------------------------------------------------
// Control payload encodings (mpcheck traffic)
// ---------------------------------------------------------------------

/// A process's stall snapshot, taken while no resident could run: its
/// residents' wait edges, plus the counters proc 0 needs to rule out
/// frames still in flight.
#[derive(Clone, Debug)]
pub(crate) struct StableReport {
    /// Monotonic per-proc snapshot generation.
    pub gen: u64,
    /// Total Data frames this proc has sent this epoch.
    pub sent: u64,
    /// Total Data frames this proc has received this epoch.
    pub recvd: u64,
    /// The resident blocked ranks and what they wait on.
    pub waits: Vec<WaitSnapshot>,
    /// Queued-but-unmatched message lanes in resident mailboxes.
    pub inventory: Vec<LaneInfo>,
}

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Dec<'_> {
    fn u8(&mut self) -> u8 {
        let v = self.buf[self.at];
        self.at += 1;
        v
    }
    fn u32(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.buf[self.at..self.at + 4].try_into().expect("4 bytes"));
        self.at += 4;
        v
    }
    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.buf[self.at..self.at + 8].try_into().expect("8 bytes"));
        self.at += 8;
        v
    }
    fn str(&mut self) -> String {
        let len = self.u32() as usize;
        let s = String::from_utf8(self.buf[self.at..self.at + len].to_vec())
            .expect("control strings are UTF-8");
        self.at += len;
        s
    }
}

/// Every name `Comm` opens a collective scope under: the eight operations
/// of `mp::coll` and `split`.
static COLL_OPS: [&str; 9] = [
    "barrier",
    "bcast",
    "allgather",
    "allgatherv",
    "alltoall",
    "reduce",
    "allreduce",
    "reduce_scatter",
    "split",
];

/// Collective op names cross the wire as strings but [`CollSite::op`] is
/// `&'static str`; decode through [`COLL_OPS`], leaking only a genuinely
/// unknown name (diagnosis path only, never the fast path).
fn intern_op(name: String) -> &'static str {
    match COLL_OPS.iter().find(|&&k| k == name) {
        Some(k) => k,
        None => Box::leak(name.into_boxed_str()),
    }
}

fn enc_wait_on(e: &mut Enc, on: &WaitOn) {
    e.u32(on.comm);
    match on.src {
        Some(s) => {
            e.u8(1);
            e.u64(s as u64);
        }
        None => e.u8(0),
    }
    match on.tag {
        Some(t) => {
            e.u8(1);
            e.u32(t);
        }
        None => e.u8(0),
    }
}

fn dec_wait_on(d: &mut Dec) -> WaitOn {
    let comm = d.u32();
    let src = (d.u8() == 1).then(|| d.u64() as usize);
    let tag = (d.u8() == 1).then(|| d.u32());
    WaitOn { comm, src, tag }
}

fn enc_waits(e: &mut Enc, waits: &[WaitSnapshot]) {
    e.u32(waits.len() as u32);
    for w in waits {
        e.u64(w.rank as u64);
        enc_wait_on(e, &w.on);
        match &w.coll {
            Some(site) => {
                e.u8(1);
                e.str(site.op);
                e.u32(site.comm);
                e.u32(site.index);
            }
            None => e.u8(0),
        }
    }
}

fn dec_waits(d: &mut Dec) -> Vec<WaitSnapshot> {
    let n = d.u32() as usize;
    (0..n)
        .map(|_| {
            let rank = d.u64() as usize;
            let on = dec_wait_on(d);
            let coll = (d.u8() == 1).then(|| {
                let op = intern_op(d.str());
                CollSite {
                    op,
                    comm: d.u32(),
                    index: d.u32(),
                }
            });
            WaitSnapshot { rank, on, coll }
        })
        .collect()
}

fn enc_inventory(e: &mut Enc, inv: &[LaneInfo]) {
    e.u32(inv.len() as u32);
    for lane in inv {
        e.u64(lane.dst as u64);
        e.u64(lane.src as u64);
        e.u32(lane.comm);
        e.u32(lane.tag);
        e.u64(lane.queued as u64);
        e.u64(lane.bytes as u64);
    }
}

fn dec_inventory(d: &mut Dec) -> Vec<LaneInfo> {
    let n = d.u32() as usize;
    (0..n)
        .map(|_| LaneInfo {
            dst: d.u64() as usize,
            src: d.u64() as usize,
            comm: d.u32(),
            tag: d.u32(),
            queued: d.u64() as usize,
            bytes: d.u64() as usize,
        })
        .collect()
}

/// Encodes a [`StableReport`] as a `Stable` frame payload.
pub(crate) fn encode_report(r: &StableReport) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    e.u64(r.gen);
    e.u64(r.sent);
    e.u64(r.recvd);
    enc_waits(&mut e, &r.waits);
    enc_inventory(&mut e, &r.inventory);
    e.0
}

/// Decodes a `Stable` frame payload.
pub(crate) fn decode_report(buf: &[u8]) -> StableReport {
    let mut d = Dec { buf, at: 0 };
    StableReport {
        gen: d.u64(),
        sent: d.u64(),
        recvd: d.u64(),
        waits: dec_waits(&mut d),
        inventory: dec_inventory(&mut d),
    }
}

/// Encodes a deadlock diagnosis as a `Poison` frame payload. `lost` stays
/// behind: every process names a lost peer from its own connection.
pub(crate) fn encode_deadlock(d: &Deadlock) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    match &d.cycle {
        Some(cycle) => {
            e.u8(1);
            e.u32(cycle.len() as u32);
            for r in cycle {
                e.u64(*r as u64);
            }
        }
        None => e.u8(0),
    }
    enc_waits(&mut e, &d.waits);
    enc_inventory(&mut e, &d.inventory);
    e.0
}

/// Decodes a `Poison` frame payload.
pub(crate) fn decode_deadlock(buf: &[u8]) -> Deadlock {
    let mut d = Dec { buf, at: 0 };
    let cycle = (d.u8() == 1).then(|| {
        let n = d.u32() as usize;
        (0..n).map(|_| d.u64() as usize).collect()
    });
    Deadlock {
        cycle,
        waits: dec_waits(&mut d),
        inventory: dec_inventory(&mut d),
        lost: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;

    /// Decodes `bytes` as a stream: every frame up to a clean EOF.
    fn read_all(mut bytes: &[u8]) -> std::io::Result<Vec<Frame>> {
        let mut frames = Vec::new();
        while let Some(frame) = read_frame(&mut bytes)? {
            frames.push(frame);
        }
        Ok(frames)
    }

    fn long_data_frame() -> Frame {
        let len = crate::coll::LONG_MSG_THRESHOLD + 1;
        Frame {
            kind: FrameKind::Data,
            epoch: 2,
            src_proc: 1,
            a: 1,
            b: 0,
            c: 0xDEAD_BEEF,
            payload: (0..len).map(|i| (i * 31) as u8).collect(),
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let frame = Frame::control(FrameKind::Barrier, 7, 3);
        assert_eq!(read_all(&frame.encode()).expect("io ok"), [frame]);
    }

    #[test]
    fn payload_past_rendezvous_threshold_roundtrips() {
        let frame = long_data_frame();
        assert_eq!(read_all(&frame.encode()).expect("io ok"), [frame]);
    }

    /// ROADMAP aim 3, "no truncated frame accepted": a stream cut anywhere
    /// inside a frame is an error, and only a cut at a frame boundary is a
    /// clean end. The same bytes arriving in two pieces, split anywhere,
    /// are the frame.
    #[test]
    fn no_proper_prefix_of_a_frame_is_a_frame() {
        for frame in [long_data_frame(), Frame::control(FrameKind::Barrier, 7, 3)] {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                let mut pieces = bytes[..cut].chain(&bytes[cut..]);
                let whole = read_frame(&mut pieces).expect("io ok");
                assert_eq!(whole.as_ref(), Some(&frame), "split at {cut}");
                match read_frame(&mut &bytes[..cut]) {
                    Ok(None) => assert_eq!(cut, 0, "clean EOF inside a frame"),
                    Ok(Some(_)) => panic!("{cut} of {} bytes decoded as a frame", bytes.len()),
                    Err(e) => {
                        assert_ne!(cut, 0, "an empty stream is a clean EOF");
                        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
                    }
                }
            }
        }
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let a = Frame::control(FrameKind::Barrier, 1, 0);
        let b = Frame {
            kind: FrameKind::Data,
            epoch: 1,
            src_proc: 0,
            a: 0,
            b: 1,
            c: 5,
            payload: vec![1, 2, 3],
        };
        let mut buf = a.encode();
        b.encode_into(&mut buf);
        let mut stream = &buf[..];
        assert_eq!(read_frame(&mut stream).expect("io ok"), Some(a));
        assert_eq!(read_frame(&mut stream).expect("io ok"), Some(b));
        assert!(stream.is_empty(), "both frames consumed exactly");
        assert_eq!(read_frame(&mut stream).expect("io ok"), None);
    }

    #[test]
    #[should_panic(expected = "bad frame magic")]
    fn corrupt_magic_panics() {
        let mut bytes = Frame::control(FrameKind::Barrier, 0, 0).encode();
        bytes[0] ^= 0xFF;
        let _ = read_frame(&mut &bytes[..]);
    }

    #[test]
    #[should_panic(expected = "unknown frame kind 8")]
    fn unknown_kind_panics() {
        let mut bytes = Frame::control(FrameKind::Barrier, 0, 0).encode();
        bytes[4] = 8;
        let _ = read_frame(&mut &bytes[..]);
    }

    #[test]
    #[should_panic(expected = "frame payload length 1073741825 exceeds")]
    fn length_above_the_ceiling_panics_before_allocating() {
        let mut bytes = Frame::control(FrameKind::Data, 0, 0).encode();
        bytes[40..48].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let _ = read_frame(&mut &bytes[..]);
    }

    #[test]
    fn reports_roundtrip() {
        let report = StableReport {
            gen: 3,
            sent: 7,
            recvd: 7,
            waits: vec![
                WaitSnapshot {
                    rank: 1,
                    on: WaitOn {
                        comm: 0,
                        src: Some(0),
                        tag: Some(9),
                    },
                    coll: Some(CollSite {
                        op: "allreduce",
                        comm: 0,
                        index: 4,
                    }),
                },
                WaitSnapshot {
                    rank: 2,
                    on: WaitOn {
                        comm: 3,
                        src: None,
                        tag: None,
                    },
                    coll: None,
                },
            ],
            inventory: vec![LaneInfo {
                dst: 1,
                src: 0,
                comm: 0,
                tag: 3,
                queued: 2,
                bytes: 64,
            }],
        };
        let back = decode_report(&encode_report(&report));
        assert_eq!(back.gen, 3);
        assert_eq!(back.waits.len(), 2);
        assert_eq!(back.waits[0].rank, 1);
        assert!(matches!(
            back.waits[0].on,
            WaitOn {
                comm: 0,
                src: Some(0),
                tag: Some(9)
            }
        ));
        let site = back.waits[0].coll.expect("coll site survives");
        assert_eq!(site.op, "allreduce");
        assert_eq!(site.index, 4);
        assert!(matches!(
            back.waits[1].on,
            WaitOn {
                comm: 3,
                src: None,
                tag: None
            }
        ));
        assert_eq!(back.inventory.len(), 1);
        assert_eq!(back.inventory[0].bytes, 64);
    }

    #[test]
    fn deadlock_roundtrip_preserves_display() {
        let d = Deadlock {
            cycle: Some(vec![0, 1]),
            waits: vec![
                WaitSnapshot {
                    rank: 0,
                    on: WaitOn {
                        comm: 0,
                        src: Some(1),
                        tag: Some(1),
                    },
                    coll: None,
                },
                WaitSnapshot {
                    rank: 1,
                    on: WaitOn {
                        comm: 0,
                        src: Some(0),
                        tag: Some(1),
                    },
                    coll: None,
                },
            ],
            inventory: Vec::new(),
            lost: None,
        };
        let back = decode_deadlock(&encode_deadlock(&d));
        assert_eq!(format!("{back}"), format!("{d}"));
        assert!(format!("{back}").contains("wait-for cycle: 0 -> 1 -> 0"));
    }

    /// Every collective scope `Comm` opens decodes to its own table entry,
    /// and every entry is one of them: a diagnosis naming any collective
    /// crosses the wire without leaking, and the table names nothing else.
    #[test]
    fn every_scoped_collective_interns_to_the_table() {
        use crate::check::{run_checked, Event, Settings};
        use crate::Engine::Threads;
        use crate::Op::Sum;
        let checked = run_checked(4, Threads, Settings::default(), |c| async move {
            let (n, me) = (c.size(), c.rank());
            let counts: Vec<usize> = (1..=n).collect();
            let words = vec![me as u64; 2 * n];
            let mut out = vec![0u64; counts.iter().sum()];
            block_on(c.barrier_async());
            block_on(c.bcast_async(&mut out[..2], 1));
            block_on(c.allgather_async(&words[..2], &mut out[..2 * n]));
            block_on(c.allgatherv_async(&words[..counts[me]], &mut out, &counts));
            block_on(c.alltoall_async(&words, &mut out[..2 * n]));
            block_on(c.reduce_async(&words, (me == 1).then_some(&mut out[..2 * n]), 1, Sum));
            block_on(c.allreduce_async(&mut out, Sum));
            block_on(c.reduce_scatter_async(&words[..n], &mut out[..1], &vec![1; n], Sum));
            block_on(c.split_async(0, me as i64));
        });
        assert!(checked.results.is_some(), "{:?}", checked.log.panics);
        let mut seen = Vec::new();
        for event in checked.log.events.iter().flatten() {
            if let Event::CollBegin { op, .. } = event {
                let interned = intern_op(op.to_string());
                assert!(
                    COLL_OPS.iter().any(|k| std::ptr::eq(*k, interned)),
                    "{op} leaked"
                );
                seen.push(*op);
            }
        }
        seen.sort_unstable();
        seen.dedup();
        let mut table = COLL_OPS.to_vec();
        table.sort_unstable();
        assert_eq!(seen, table);
    }

    /// The property test's input source: xorshift64*, seeded through
    /// splitmix64 so that neighbouring seeds draw unrelated inputs.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Rng {
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            Rng((z ^ (z >> 31)) | 1)
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// A uniform draw from `r`.
        fn range(&mut self, r: std::ops::Range<u64>) -> u64 {
            r.start + self.next() % (r.end - r.start)
        }
    }

    /// Encode -> frame -> decode is the identity over arbitrary payload
    /// sizes, including empty payloads and payloads past the rendezvous
    /// threshold (LONG_MSG_THRESHOLD = 32 KiB). 48 seeded cases.
    #[test]
    fn frame_roundtrip_is_identity() {
        let max_len = crate::coll::LONG_MSG_THRESHOLD as u64 + 8192;
        for case in 0..48 {
            let seed = 0x7769_7265_0000 + case;
            let mut rng = Rng::new(seed);
            let kind = rng.range(0..7) as u8;
            let (epoch, src_proc) = (rng.range(0..1000) as u32, rng.range(0..64) as u32);
            let (a, b, c) = (
                rng.range(0..u64::MAX),
                rng.range(0..u64::MAX),
                rng.range(0..u64::MAX),
            );
            let len = rng.range(0..max_len);
            let frame = Frame {
                kind: FrameKind::from_u8(kind).expect("drawn in range"),
                epoch,
                src_proc,
                a,
                b,
                c,
                payload: (0..len).map(|_| rng.range(0..256) as u8).collect(),
            };
            let at = format!("case {case}, seed {seed:#x}");
            let bytes = frame.encode();
            assert_eq!(bytes.len(), HEADER_BYTES + frame.payload.len(), "{at}");
            assert_eq!(read_all(&bytes).expect("io ok"), vec![frame], "{at}");
        }
    }
}
