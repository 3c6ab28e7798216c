//! The RandomAccess update-stream generator, ported from the HPCC
//! reference implementation ("Random access rules — GUPS").
//!
//! The sequence is `x_{k+1} = (x_k << 1) XOR (msb(x_k) ? POLY : 0)` with
//! `POLY = 7` — multiplication by 2 in GF(2^64) modulo
//! `x^64 + x^2 + x + 1`. [`starts`] jumps to an arbitrary position in
//! O(log n) by square-and-multiply, exactly as `HPCC_starts` does, so
//! every rank can generate its slice of the global update stream
//! independently.

/// The GF(2) reduction polynomial's low bits (x^2 + x + 1).
pub(crate) const POLY: u64 = 0x7;

/// Period of the sequence (as in the HPCC reference code).
pub(crate) const PERIOD: i64 = 1_317_624_576_693_539_401;

/// One step of the update-stream recurrence.
#[inline]
pub(crate) fn step(x: u64) -> u64 {
    (x << 1) ^ (if (x as i64) < 0 { POLY } else { 0 })
}

/// The `n`-th value of the stream (the value a fresh stream yields after
/// `n` steps from the canonical start). Direct port of `HPCC_starts`.
pub(crate) fn starts(n: i64) -> u64 {
    let mut n = n;
    while n < 0 {
        n += PERIOD;
    }
    while n > PERIOD {
        n -= PERIOD;
    }
    if n == 0 {
        return 0x1;
    }

    // m2[j] = x^(2^j) squaring table, built by stepping twice per entry.
    let mut m2 = [0u64; 64];
    let mut temp = 0x1u64;
    for m in m2.iter_mut() {
        *m = temp;
        temp = step(step(temp));
    }

    let mut i = 62;
    while i >= 0 && (n >> i) & 1 == 0 {
        i -= 1;
    }

    let mut ran = 0x2u64;
    while i > 0 {
        // Square ran in GF(2^64): substitute each set bit j by x^(2j).
        let mut temp = 0u64;
        for (j, m) in m2.iter().enumerate() {
            if (ran >> j) & 1 == 1 {
                temp ^= m;
            }
        }
        ran = temp;
        i -= 1;
        if (n >> i) & 1 == 1 {
            ran = step(ran);
        }
    }
    ran
}

/// An iterator over the update stream starting at position `start`.
pub(crate) struct UpdateStream {
    state: u64,
}

impl UpdateStream {
    /// Stream positioned to yield the `start`-th, `start+1`-th, ... values.
    pub(crate) fn at(start: i64) -> UpdateStream {
        UpdateStream {
            state: starts(start),
        }
    }
}

impl Iterator for UpdateStream {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.state = step(self.state);
        Some(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_matches_sequential_stepping() {
        let mut x = 0x1u64;
        for n in 1..2000i64 {
            x = step(x);
            assert_eq!(starts(n), x, "position {n}");
        }
    }

    #[test]
    fn starts_zero_is_seed() {
        assert_eq!(starts(0), 1);
        assert_eq!(starts(1), 2);
    }

    #[test]
    fn far_jump_consistency() {
        // starts(a+b) must equal stepping b times from starts(a).
        let a = 1_000_000i64;
        let b = 137i64;
        let mut x = starts(a);
        for _ in 0..b {
            x = step(x);
        }
        assert_eq!(x, starts(a + b));
    }

    #[test]
    fn stream_iterator_matches_starts() {
        let vals: Vec<u64> = UpdateStream::at(500).take(5).collect();
        for (k, v) in vals.iter().enumerate() {
            assert_eq!(*v, starts(501 + k as i64));
        }
    }

    #[test]
    fn negative_positions_wrap() {
        assert_eq!(starts(-PERIOD), starts(0));
    }

    #[test]
    fn values_look_uniform_deep_in_the_stream() {
        // The first steps walk through small powers of x, so sample far
        // from the origin where the sequence is well mixed.
        let mut hi = 0usize;
        let mut lo = 0usize;
        for v in UpdateStream::at(1_000_000_000).take(4096) {
            hi += (v >> 63) as usize;
            lo += (v & 1) as usize;
        }
        assert!((1600..2500).contains(&hi), "msb set {hi}/4096 times");
        assert!((1600..2500).contains(&lo), "lsb set {lo}/4096 times");
    }
}
