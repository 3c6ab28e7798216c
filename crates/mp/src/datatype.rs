//! Typed message payloads.
//!
//! Messages travel as byte vectors; a [`Word`] is a fixed-size scalar with
//! an explicit little-endian wire encoding. Explicit encode/decode (rather
//! than transmutation) keeps the crate free of `unsafe`. The whole-slice
//! [`Word::encode_slice`]/[`Word::decode_slice`] hooks give every type an
//! optimiser-friendly fixed-width-chunk loop, and `u8` — the payload type
//! of the byte-oriented IMB transfer benchmarks — a literal `memcpy`.
//!
//! A [`Ghost`] is the word of a sizes-only run: it has a wire size and no
//! memory, so buffers and messages of ghosts have lengths and nothing else
//! while the program that moves them runs unchanged.

/// A fixed-size scalar that can be carried in a message.
pub trait Word: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// The all-zero-bytes value of the type (what a freshly-posted MPI
    /// receive buffer holds). Lets callers build receive buffers without
    /// decoding a dummy zero from a scratch allocation.
    const ZERO: Self;
    /// Writes the little-endian encoding into `out` (exactly `SIZE` bytes).
    fn write_le(self, out: &mut [u8]);
    /// Reads a value from the little-endian encoding in `inp`.
    fn read_le(inp: &[u8]) -> Self;

    /// Encodes a whole slice into `out` (`out.len() == data.len() * SIZE`).
    /// Implementations specialise this into a memcpy-like loop; the
    /// default chunks through [`write_le`](Word::write_le).
    fn encode_slice(data: &[Self], out: &mut [u8]) {
        for (v, chunk) in data.iter().zip(out.chunks_exact_mut(Self::SIZE)) {
            v.write_le(chunk);
        }
    }

    /// Decodes a whole byte slice into `out`
    /// (`bytes.len() == out.len() * SIZE`). See [`encode_slice`](Word::encode_slice).
    fn decode_slice(bytes: &[u8], out: &mut [Self]) {
        for (v, chunk) in out.iter_mut().zip(bytes.chunks_exact(Self::SIZE)) {
            *v = Self::read_le(chunk);
        }
    }

    /// Encodes a whole slice into a fresh byte vector. The default
    /// zero-fills then overwrites; `u8` overrides it with `to_vec` so wire
    /// payloads are written exactly once.
    fn encode_vec(data: &[Self]) -> Vec<u8> {
        let mut out = vec![0u8; data.len() * Self::SIZE];
        Self::encode_slice(data, &mut out);
        out
    }
}

macro_rules! impl_word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            const ZERO: Self = 0 as $t;
            #[inline]
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(inp: &[u8]) -> Self {
                <$t>::from_le_bytes(inp.try_into().expect("word size mismatch"))
            }
            fn encode_slice(data: &[Self], out: &mut [u8]) {
                // Fixed-size array stores: no per-chunk length checks, so
                // the loop vectorises to a straight copy in release builds.
                for (v, chunk) in data
                    .iter()
                    .zip(out.chunks_exact_mut(std::mem::size_of::<$t>()))
                {
                    let arr: &mut [u8; std::mem::size_of::<$t>()] =
                        chunk.try_into().expect("exact chunk");
                    *arr = v.to_le_bytes();
                }
            }
            fn decode_slice(bytes: &[u8], out: &mut [Self]) {
                for (v, chunk) in out
                    .iter_mut()
                    .zip(bytes.chunks_exact(std::mem::size_of::<$t>()))
                {
                    let arr: &[u8; std::mem::size_of::<$t>()] =
                        chunk.try_into().expect("exact chunk");
                    *v = <$t>::from_le_bytes(*arr);
                }
            }
        }
    )*};
}

impl_word!(u16, u32, u64, i8, i16, i32, i64, f32, f64, usize, isize);

// `u8` payloads are already in wire format: encode/decode are memcpys.
impl Word for u8 {
    const SIZE: usize = 1;
    const ZERO: u8 = 0;
    #[inline]
    fn write_le(self, out: &mut [u8]) {
        out[0] = self;
    }
    #[inline]
    fn read_le(inp: &[u8]) -> u8 {
        inp[0]
    }
    #[inline]
    fn encode_slice(data: &[u8], out: &mut [u8]) {
        out.copy_from_slice(data);
    }
    #[inline]
    fn decode_slice(bytes: &[u8], out: &mut [u8]) {
        out.copy_from_slice(bytes);
    }
    #[inline]
    fn encode_vec(data: &[u8]) -> Vec<u8> {
        data.to_vec()
    }
}

/// A word with a wire size of `SIZE` bytes and no memory: a `Vec` of
/// ghosts allocates nothing, a message of ghosts carries its length and no
/// bytes, and reducing ghosts does nothing. Every send, receive, tag and
/// length check of a program over ghosts is the one the same program makes
/// over real words, so the run prices what the real run would — which is
/// how virtual IMB times 1 MiB messages on hundreds of ranks without
/// allocating one of them. Whether bytes move is decided per message by its
/// word type, in every execution mode; a ghost message meeting a real
/// receive buffer is a named panic, never zeros.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ghost<const SIZE: usize>;

impl<const N: usize> Word for Ghost<N> {
    const SIZE: usize = {
        assert!(N > 0, "a ghost word has a nonzero wire size");
        N
    };
    const ZERO: Self = Ghost;
    #[inline]
    fn write_le(self, _out: &mut [u8]) {}
    #[inline]
    fn read_le(_inp: &[u8]) -> Self {
        Ghost
    }
    #[inline]
    fn encode_slice(_data: &[Self], _out: &mut [u8]) {}
    #[inline]
    fn decode_slice(_bytes: &[u8], _out: &mut [Self]) {}
}

/// Whether `T` is a ghost word: one without memory has no bytes to move.
#[inline]
pub(crate) fn is_ghost<T: Word>() -> bool {
    std::mem::size_of::<T>() == 0
}

/// Encodes a slice of words into a fresh byte vector.
pub fn encode<T: Word>(data: &[T]) -> Vec<u8> {
    T::encode_vec(data)
}

/// Encodes a slice of words into a preallocated byte buffer
/// (`out.len() == data.len() * T::SIZE`).
pub fn encode_into<T: Word>(data: &[T], out: &mut [u8]) {
    assert_eq!(
        out.len(),
        data.len() * T::SIZE,
        "encode buffer size mismatch"
    );
    T::encode_slice(data, out);
}

/// Decodes a byte buffer into a preallocated word slice
/// (`bytes.len() == out.len() * T::SIZE`).
pub fn decode_into<T: Word>(bytes: &[u8], out: &mut [T]) {
    assert_eq!(
        bytes.len(),
        out.len() * T::SIZE,
        "decode buffer size mismatch: {} bytes for {} words of {}",
        bytes.len(),
        out.len(),
        T::SIZE,
    );
    T::decode_slice(bytes, out);
}

/// Decodes a byte buffer into a fresh vector of words.
pub fn decode<T: Word>(bytes: &[u8]) -> Vec<T> {
    assert!(
        bytes.len().is_multiple_of(T::SIZE),
        "byte length not a multiple of word size"
    );
    let mut out = vec![T::ZERO; bytes.len() / T::SIZE];
    T::decode_slice(bytes, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        let data = [1.5f64, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        let bytes = encode(&data);
        assert_eq!(bytes.len(), 40);
        let back: Vec<f64> = decode(&bytes);
        assert_eq!(back, data);
    }

    #[test]
    fn roundtrip_various_types() {
        let u = [1u64, u64::MAX, 42];
        assert_eq!(decode::<u64>(&encode(&u)), u);
        let i = [-1i32, i32::MIN, i32::MAX];
        assert_eq!(decode::<i32>(&encode(&i)), i);
        let b = [0u8, 255, 7];
        assert_eq!(decode::<u8>(&encode(&b)), b);
    }

    #[test]
    fn empty_slice() {
        let bytes = encode::<f64>(&[]);
        assert!(bytes.is_empty());
        assert!(decode::<f64>(&bytes).is_empty());
    }

    #[test]
    fn decode_into_preallocated() {
        let data = [3u32, 4, 5];
        let bytes = encode(&data);
        let mut out = [0u32; 3];
        decode_into(&bytes, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    #[should_panic(expected = "decode buffer size mismatch")]
    fn decode_size_mismatch_panics() {
        let bytes = encode(&[1u64, 2]);
        let mut out = [0u64; 3];
        decode_into(&bytes, &mut out);
    }

    #[test]
    fn encoding_is_little_endian() {
        let bytes = encode(&[0x0102_0304u32]);
        assert_eq!(bytes, vec![0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn zero_is_all_zero_bytes() {
        fn check<T: Word>() {
            let bytes = encode(&[T::ZERO]);
            assert!(bytes.iter().all(|&b| b == 0), "{:?}", T::ZERO);
        }
        check::<u8>();
        check::<u16>();
        check::<u32>();
        check::<u64>();
        check::<i8>();
        check::<i32>();
        check::<i64>();
        check::<f32>();
        check::<f64>();
        check::<usize>();
        check::<isize>();
    }

    #[test]
    fn slice_paths_match_word_at_a_time_paths() {
        let data: Vec<f64> = (0..37).map(|i| i as f64 * 1.25 - 3.0).collect();
        let mut fast = vec![0u8; data.len() * 8];
        f64::encode_slice(&data, &mut fast);
        let mut slow = vec![0u8; data.len() * 8];
        for (v, chunk) in data.iter().zip(slow.chunks_exact_mut(8)) {
            v.write_le(chunk);
        }
        assert_eq!(fast, slow);
        let mut out = vec![0.0f64; data.len()];
        f64::decode_slice(&fast, &mut out);
        assert_eq!(out, data);
    }
}
