//! Cheaply-cloneable message payloads.
//!
//! A [`Payload`] is a view into reference-counted bytes: cloning it (or
//! taking a sub-[`slice`](Payload::slice)) bumps a refcount instead of
//! copying data. This is what lets collective fan-out — a binomial
//! broadcast sending the same buffer to every child, long broadcast's
//! scatter phase splitting one buffer into per-subtree ranges — deliver
//! to any number of peers with zero per-edge payload copies. Ownership is
//! copy-on-write: [`into_vec`](Payload::into_vec) hands the underlying
//! allocation back without copying when this view is the only holder and
//! covers the whole buffer, and degrades to a copy otherwise.
//!
//! Encoding [`Ghost`](crate::datatype::Ghost) words gives a *length-only*
//! payload: it slices, forwards and is priced like any other and holds no
//! bytes. It decodes into ghost words only; every other way out of it is a
//! panic that names the message.

use std::fmt;
use std::sync::Arc;

use crate::datatype::{is_ghost, Word};
use crate::msg::Tag;

/// Words decoded per step of [`Payload::fold_into`]: 2 KiB of `f64`, so
/// the operand, its wire bytes and the accumulator slice stay in L1, and
/// zeroing the operand buffer costs a one-word fold no more than the
/// operand vector it replaces.
pub(crate) const FOLD_CHUNK: usize = 256;

/// Who sent a payload to whom (global ranks), so that a failed decode
/// names the message and not only two lengths.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Envelope {
    pub src: usize,
    pub dst: usize,
    pub tag: Tag,
}

impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Envelope { src, dst, tag } = self;
        write!(f, "from rank {src} to rank {dst}, tag {tag:#x}")
    }
}

/// A shared, sliceable byte payload (see the module docs). The default is
/// empty and length-only, which holds no allocation.
#[derive(Clone, Debug, Default)]
pub(crate) struct Payload {
    /// `None`: length-only.
    buf: Option<Arc<Vec<u8>>>,
    off: usize,
    len: usize,
}

impl Payload {
    /// Wraps an owned byte vector without copying it.
    pub(crate) fn from_vec(buf: Vec<u8>) -> Payload {
        let len = buf.len();
        Payload {
            buf: Some(Arc::new(buf)),
            off: 0,
            len,
        }
    }

    /// The wire form of `words`: their little-endian bytes, written once
    /// into `buf`'s allocation (its old contents dropped; `Vec::new()` for a
    /// fresh one), or only their length when the words are ghosts.
    pub(crate) fn encode<T: Word>(words: &[T], mut buf: Vec<u8>) -> Payload {
        if is_ghost::<T>() {
            return Payload::zeroed::<T>(words.len() * T::SIZE);
        }
        buf.clear();
        buf.reserve_exact(words.len() * T::SIZE);
        T::extend_le(words, &mut buf);
        Payload::from_vec(buf)
    }

    /// `len` zero bytes of `T`'s kind (none, for ghosts), to be assembled
    /// with [`put`](Payload::put).
    pub(crate) fn zeroed<T: Word>(len: usize) -> Payload {
        if is_ghost::<T>() {
            Payload {
                buf: None,
                off: 0,
                len,
            }
        } else {
            Payload::from_vec(vec![0; len])
        }
    }

    /// The viewed bytes; `None` for a length-only payload.
    #[inline]
    pub(crate) fn bytes(&self) -> Option<&[u8]> {
        let buf = self.buf.as_ref()?;
        Some(&buf[self.off..self.off + self.len])
    }

    /// Length of the view in bytes.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// A zero-copy sub-view of this payload (`range` is relative to the
    /// view, not the underlying buffer).
    pub(crate) fn slice(&self, range: std::ops::Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "payload slice {range:?} out of bounds (len {})",
            self.len
        );
        Payload {
            buf: self.buf.clone(),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// Overwrites this payload from byte `at` with `piece`, which must be
    /// of the same kind. The payload must be the only holder of its
    /// buffer, as one under assembly is.
    pub(crate) fn put(&mut self, at: usize, piece: &Payload) {
        assert!(
            at + piece.len <= self.len,
            "payload piece {at}+{} out of bounds (len {})",
            piece.len,
            self.len
        );
        match (&mut self.buf, piece.bytes()) {
            (None, None) => {}
            (Some(buf), Some(bytes)) => {
                let buf = Arc::get_mut(buf).expect("a payload under assembly is unshared");
                let at = self.off + at;
                buf[at..at + bytes.len()].copy_from_slice(bytes);
            }
            _ => panic!("mp: real and length-only payloads cannot be assembled into one"),
        }
    }

    /// The bytes behind `words` real words of `T`, after checking that this
    /// payload is exactly that long; `None` for ghost words, which take a
    /// payload of either kind. Real words refuse a length-only one.
    fn bytes_of<T: Word>(&self, words: usize, env: Envelope) -> Option<&[u8]> {
        assert_eq!(
            self.len,
            words * T::SIZE,
            "decode buffer size mismatch: {} bytes {env} for {} words of {}",
            self.len,
            words,
            T::SIZE,
        );
        if is_ghost::<T>() {
            return None;
        }
        Some(self.bytes().unwrap_or_else(|| no_bytes::<T>(self.len, env)))
    }

    /// Decodes into a preallocated word slice of exactly this payload's
    /// length.
    pub(crate) fn decode_into<T: Word>(&self, out: &mut [T], env: Envelope) {
        if let Some(bytes) = self.bytes_of::<T>(out.len(), env) {
            T::decode_slice(bytes, out);
        }
    }

    /// Combines this payload into `acc`, a word slice of exactly its
    /// length, by `fold(acc, operand)` — read straight from the wire: each
    /// [`FOLD_CHUNK`] words are decoded into a buffer on the stack and
    /// folded while both are in L1, so no operand vector is ever built.
    /// Same length check and panics as [`decode_into`](Payload::decode_into);
    /// ghost words fold nothing.
    pub(crate) fn fold_into<T: Word>(
        &self,
        acc: &mut [T],
        env: Envelope,
        fold: impl Fn(&mut [T], &[T]),
    ) {
        let Some(bytes) = self.bytes_of::<T>(acc.len(), env) else {
            return;
        };
        let mut operand = [T::ZERO; FOLD_CHUNK];
        for (acc, wire) in acc
            .chunks_mut(FOLD_CHUNK)
            .zip(bytes.chunks(FOLD_CHUNK * T::SIZE))
        {
            let operand = &mut operand[..acc.len()];
            T::decode_slice(wire, operand);
            fold(acc, operand);
        }
    }

    /// Decodes into a fresh vector of words (a ragged tail of bytes fails
    /// [`decode_into`](Payload::decode_into)'s size check).
    pub(crate) fn decode<T: Word>(&self, env: Envelope) -> Vec<T> {
        let mut out = vec![T::ZERO; self.len / T::SIZE];
        self.decode_into(&mut out, env);
        out
    }

    /// Recovers the owned vector. Zero-copy when this is the sole holder
    /// of the allocation and the view covers all of it (the common case
    /// for point-to-point traffic); otherwise copies the viewed bytes.
    pub(crate) fn into_vec(self, env: Envelope) -> Vec<u8> {
        let Some(buf) = self.buf else {
            no_bytes::<u8>(self.len, env)
        };
        if self.off == 0 {
            match Arc::try_unwrap(buf) {
                Ok(v) if v.len() == self.len => return v,
                Ok(v) => return v[..self.len].to_vec(),
                Err(arc) => return arc[..self.len].to_vec(),
            }
        }
        buf[self.off..self.off + self.len].to_vec()
    }

    /// Like [`into_vec`](Payload::into_vec), but only when zero-copy is
    /// possible; used to recycle rendezvous buffers without ever paying a
    /// copy for the privilege.
    pub(crate) fn try_into_unique_vec(self) -> Option<Vec<u8>> {
        if self.off != 0 {
            return None;
        }
        match Arc::try_unwrap(self.buf?) {
            Ok(v) if v.len() == self.len => Some(v),
            _ => None,
        }
    }
}

/// The named panic of a length-only payload of `len` bytes asked for the
/// bytes of real `T`s.
fn no_bytes<T: Word>(len: usize, env: Envelope) -> ! {
    panic!(
        "mp: length-only payload of {len} bytes {env} met a receive of {} real words of {}: \
         ghost words carry no bytes",
        len / T::SIZE,
        T::SIZE,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Ghost;
    use crate::reduce::{Numeric, Op};

    const ENV: Envelope = Envelope {
        src: 3,
        dst: 5,
        tag: 0x2a,
    };

    #[test]
    fn clone_shares_the_allocation() {
        let p = Payload::from_vec(vec![1, 2, 3, 4]);
        let q = p.clone();
        assert_eq!(p.bytes().unwrap(), q.bytes().unwrap());
        assert!(Arc::ptr_eq(
            p.buf.as_ref().unwrap(),
            q.buf.as_ref().unwrap()
        ));
    }

    #[test]
    fn slice_is_a_view() {
        let p = Payload::from_vec(vec![10, 11, 12, 13, 14]);
        let s = p.slice(1..4);
        assert_eq!(s.bytes().unwrap(), &[11, 12, 13]);
        let ss = s.slice(2..3);
        assert_eq!(ss.bytes().unwrap(), &[13]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn into_vec_is_zero_copy_when_unique() {
        let v = vec![7u8; 32];
        let addr = v.as_ptr() as usize;
        let p = Payload::from_vec(v);
        let back = p.into_vec(ENV);
        assert_eq!(back.as_ptr() as usize, addr, "unique full view must move");
        assert_eq!(back, vec![7u8; 32]);
    }

    #[test]
    fn into_vec_copies_when_shared_or_partial() {
        let p = Payload::from_vec(vec![1, 2, 3, 4]);
        let q = p.clone();
        assert_eq!(q.into_vec(ENV), vec![1, 2, 3, 4]); // shared -> copy
        assert_eq!(p.slice(1..3).into_vec(ENV), vec![2, 3]); // partial -> copy
    }

    #[test]
    fn try_into_unique_vec() {
        let p = Payload::from_vec(vec![5, 6]);
        let q = p.clone();
        assert!(q.try_into_unique_vec().is_none());
        assert_eq!(p.try_into_unique_vec(), Some(vec![5, 6]));
        let r = Payload::from_vec(vec![1, 2, 3]);
        assert!(r.slice(0..2).try_into_unique_vec().is_none());
    }

    #[test]
    fn empty_payload() {
        let p = Payload::from_vec(Vec::new());
        assert_eq!(p.len(), 0);
        assert!(p.bytes().unwrap().is_empty());
        assert!(p.slice(0..0).into_vec(ENV).is_empty());
    }

    #[test]
    fn ghost_words_encode_to_a_length_and_nothing_else() {
        let words = vec![Ghost::<8>; 1 << 20];
        let p = Payload::encode(&words, Vec::new());
        assert_eq!(p.len(), 8 << 20);
        assert!(p.bytes().is_none());
        let s = p.slice(8..24);
        assert_eq!((s.len(), s.bytes()), (16, None));
        assert!(s.clone().try_into_unique_vec().is_none());
        let mut out = [Ghost::<8>; 2];
        s.decode_into(&mut out, ENV);
        assert_eq!(s.decode::<Ghost<4>>(ENV).len(), 4);
        // Real bytes of the right length land in a ghost buffer too.
        Payload::from_vec(vec![7; 16]).decode_into(&mut out, ENV);
    }

    #[test]
    fn real_words_round_trip() {
        let data = [1.5f64, -2.25, f64::MAX];
        let p = Payload::encode(&data, Vec::new());
        assert_eq!(p.len(), 24);
        assert_eq!(p.decode::<f64>(ENV), data);
        let mut tail = [0.0f64; 2];
        p.slice(8..24).decode_into(&mut tail, ENV);
        assert_eq!(tail, data[1..]);
    }

    #[test]
    fn put_assembles_pieces_of_one_kind() {
        let mut real = Payload::zeroed::<u8>(5);
        real.put(1, &Payload::from_vec(vec![9, 8]));
        real.put(4, &Payload::from_vec(vec![7]).slice(0..1));
        assert_eq!(real.bytes().unwrap(), &[0, 9, 8, 0, 7]);
        let mut ghost = Payload::zeroed::<Ghost<1>>(5);
        ghost.put(1, &Payload::encode(&[Ghost::<1>; 4], Vec::new()));
        assert_eq!((ghost.len(), ghost.bytes()), (5, None));
    }

    #[test]
    #[should_panic(expected = "cannot be assembled into one")]
    fn put_refuses_to_mix_kinds() {
        Payload::zeroed::<u8>(4).put(0, &Payload::encode(&[Ghost::<1>; 2], Vec::new()));
    }

    #[test]
    #[should_panic(
        expected = "length-only payload of 24 bytes from rank 3 to rank 5, tag 0x2a met a receive of 3 real words of 8"
    )]
    fn ghost_payload_into_real_words_is_a_named_panic() {
        let mut out = [0.0f64; 3];
        Payload::encode(&[Ghost::<8>; 3], Vec::new()).decode_into(&mut out, ENV);
    }

    #[test]
    #[should_panic(
        expected = "decode buffer size mismatch: 16 bytes from rank 3 to rank 5, tag 0x2a for 3 words of 8"
    )]
    fn wrong_length_into_ghost_words_still_trips_the_size_check() {
        let mut out = [Ghost::<8>; 3];
        Payload::from_vec(vec![0; 16]).decode_into(&mut out, ENV);
    }

    #[test]
    #[should_panic(expected = "length-only payload of 4 bytes from rank 3 to rank 5")]
    fn ghost_payload_has_no_vector_to_take() {
        Payload::encode(&[Ghost::<4>], Vec::new()).into_vec(ENV);
    }

    /// Folding from the wire, chunk by chunk, leaves exactly the bits that
    /// decoding the whole operand and folding it with `Op::fold_into` does
    /// — for every op, at every length around the chunk boundaries. The
    /// results are compared as wire bytes, so NaN payloads and signed
    /// zeros count.
    fn fold_matches_decode_then_fold<T: Numeric>(acc: &[T], operand: &[T]) {
        let c = FOLD_CHUNK;
        for op in [Op::Sum, Op::Prod, Op::Max, Op::Min] {
            for len in [0, 1, c - 1, c, c + 1, 3 * c + 5] {
                let wire = Payload::encode(&operand[..len], Vec::new());
                let mut want = acc[..len].to_vec();
                op.fold_into(&mut want, &wire.decode::<T>(ENV));
                let mut got = acc[..len].to_vec();
                wire.fold_into(&mut got, ENV, |a, x| op.fold_into(a, x));
                let bits = |words: &[T]| Payload::encode(words, Vec::new()).into_vec(ENV);
                assert_eq!(bits(&got), bits(&want), "{op:?} over {len} words");
            }
        }
    }

    #[test]
    fn fold_from_the_wire_is_decode_then_fold_bit_for_bit() {
        let n = 3 * FOLD_CHUNK + 5;
        let special = [
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.25,
        ];
        // Every ordered pair of specials meets at some index.
        let acc: Vec<f64> = (0..n).map(|i| special[i % 7]).collect();
        let x: Vec<f64> = (0..n).map(|i| special[i / 7 % 7]).collect();
        fold_matches_decode_then_fold(&acc, &x);
        // Sums and products that wrap.
        let acc: Vec<i32> = (0..n as i32).map(|i| i32::MAX - i).collect();
        let x: Vec<i32> = (0..n as i32).map(|i| i.wrapping_mul(0x2F0B_3A49)).collect();
        fold_matches_decode_then_fold(&acc, &x);
        let acc: Vec<u8> = (0..n).map(|i| (i * 37) as u8).collect();
        let x: Vec<u8> = (0..n).map(|i| (i * 101 + 3) as u8).collect();
        fold_matches_decode_then_fold(&acc, &x);
    }

    #[test]
    #[should_panic(
        expected = "decode buffer size mismatch: 16 bytes from rank 3 to rank 5, tag 0x2a for 3 words of 8"
    )]
    fn fold_of_the_wrong_length_names_the_message() {
        let mut acc = [1.0f64; 3];
        Payload::from_vec(vec![0; 16]).fold_into(&mut acc, ENV, |a, x| Op::Sum.fold_into(a, x));
    }

    #[test]
    #[should_panic(
        expected = "length-only payload of 24 bytes from rank 3 to rank 5, tag 0x2a met a receive of 3 real words of 8"
    )]
    fn ghost_payload_folded_into_real_words_is_a_named_panic() {
        let mut acc = [1.0f64; 3];
        Payload::encode(&[Ghost::<8>; 3], Vec::new())
            .fold_into(&mut acc, ENV, |a, x| Op::Sum.fold_into(a, x));
    }

    #[test]
    fn ghost_words_fold_nothing_after_the_length_check() {
        let mut acc = [Ghost::<8>; 3];
        let never = |_: &mut [Ghost<8>], _: &[Ghost<8>]| unreachable!("ghost words fold nothing");
        Payload::encode(&[Ghost::<8>; 3], Vec::new()).fold_into(&mut acc, ENV, never);
        Payload::from_vec(vec![7; 24]).fold_into(&mut acc, ENV, never);
        let short = std::panic::catch_unwind(move || {
            Payload::from_vec(vec![7; 16]).fold_into(&mut [Ghost::<8>; 3], ENV, never)
        })
        .expect_err("the length is still checked");
        let msg = crate::runtime::panic_message(&*short);
        assert!(
            msg.contains("decode buffer size mismatch: 16 bytes"),
            "{msg}"
        );
    }

    #[test]
    fn encode_reuses_the_buffer_it_is_given() {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&[9; 40]);
        let addr = buf.as_ptr() as usize;
        let p = Payload::encode(&[0x0102_0304u32, 5], buf);
        assert_eq!(p.bytes().unwrap(), &[4, 3, 2, 1, 5, 0, 0, 0]);
        let back = p
            .try_into_unique_vec()
            .expect("sole holder of the whole buffer");
        assert_eq!((back.as_ptr() as usize, back.capacity()), (addr, 64));
    }
}
