//! Cheaply-cloneable message payloads.
//!
//! A [`Payload`] is a view into reference-counted bytes: cloning it (or
//! taking a sub-[`slice`](Payload::slice)) bumps a refcount instead of
//! copying data. This is what lets collective fan-out — a binomial
//! broadcast sending the same buffer to every child, a scatter splitting
//! one buffer into per-subtree ranges — deliver to any number of peers
//! with zero per-edge payload copies. Ownership is copy-on-write:
//! [`into_vec`](Payload::into_vec) hands the underlying allocation back
//! without copying when this view is the only holder and covers the whole
//! buffer, and degrades to a copy otherwise.
//!
//! Encoding [`Ghost`](crate::datatype::Ghost) words gives a *length-only*
//! payload: it slices, forwards and is priced like any other and holds no
//! bytes. It decodes into ghost words only; every other way out of it is a
//! panic that names the message.

use std::fmt;
use std::sync::Arc;

use crate::datatype::{is_ghost, Word};
use crate::msg::Tag;

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

/// A shared, sliceable byte payload (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct Payload {
    /// `None`: length-only.
    buf: Option<Arc<Vec<u8>>>,
    off: usize,
    len: usize,
}

impl Payload {
    /// Wraps an owned byte vector without copying it.
    pub fn from_vec(buf: Vec<u8>) -> Payload {
        let len = buf.len();
        Payload {
            buf: Some(Arc::new(buf)),
            off: 0,
            len,
        }
    }

    /// The wire form of `words`: their little-endian bytes, or only their
    /// length when the words are ghosts.
    pub fn encode<T: Word>(words: &[T]) -> Payload {
        if is_ghost::<T>() {
            Payload::zeroed::<T>(words.len() * T::SIZE)
        } else {
            Payload::from_vec(T::encode_vec(words))
        }
    }

    /// `len` zero bytes of `T`'s kind (none, for ghosts), to be assembled
    /// with [`put`](Payload::put).
    pub fn zeroed<T: Word>(len: usize) -> Payload {
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
    pub fn bytes(&self) -> Option<&[u8]> {
        let buf = self.buf.as_ref()?;
        Some(&buf[self.off..self.off + self.len])
    }

    /// Length of the view in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// A zero-copy sub-view of this payload (`range` is relative to the
    /// view, not the underlying buffer).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Payload {
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
    pub fn put(&mut self, at: usize, piece: &Payload) {
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

    /// Decodes into a preallocated word slice of exactly this payload's
    /// length. Ghost words take a payload of either kind; real words
    /// refuse a length-only one.
    pub fn decode_into<T: Word>(&self, out: &mut [T], env: Envelope) {
        assert_eq!(
            self.len,
            out.len() * T::SIZE,
            "decode buffer size mismatch: {} bytes {env} for {} words of {}",
            self.len,
            out.len(),
            T::SIZE,
        );
        if !is_ghost::<T>() {
            let bytes = self.bytes().unwrap_or_else(|| no_bytes::<T>(self.len, env));
            T::decode_slice(bytes, out);
        }
    }

    /// Decodes into a fresh vector of words (a ragged tail of bytes fails
    /// [`decode_into`](Payload::decode_into)'s size check).
    pub fn decode<T: Word>(&self, env: Envelope) -> Vec<T> {
        let mut out = vec![T::ZERO; self.len / T::SIZE];
        self.decode_into(&mut out, env);
        out
    }

    /// Recovers the owned vector. Zero-copy when this is the sole holder
    /// of the allocation and the view covers all of it (the common case
    /// for point-to-point traffic); otherwise copies the viewed bytes.
    pub fn into_vec(self, env: Envelope) -> Vec<u8> {
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
    pub fn try_into_unique_vec(self) -> Option<Vec<u8>> {
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
        let p = Payload::encode(&words);
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
        let p = Payload::encode(&data);
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
        ghost.put(1, &Payload::encode(&[Ghost::<1>; 4]));
        assert_eq!((ghost.len(), ghost.bytes()), (5, None));
    }

    #[test]
    #[should_panic(expected = "cannot be assembled into one")]
    fn put_refuses_to_mix_kinds() {
        Payload::zeroed::<u8>(4).put(0, &Payload::encode(&[Ghost::<1>; 2]));
    }

    #[test]
    #[should_panic(
        expected = "length-only payload of 24 bytes from rank 3 to rank 5, tag 0x2a met a receive of 3 real words of 8"
    )]
    fn ghost_payload_into_real_words_is_a_named_panic() {
        let mut out = [0.0f64; 3];
        Payload::encode(&[Ghost::<8>; 3]).decode_into(&mut out, ENV);
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
        Payload::encode(&[Ghost::<4>]).into_vec(ENV);
    }
}
