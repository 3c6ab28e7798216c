//! Unit helpers shared across the simulator and the machine models.
//!
//! Bandwidths in this workspace follow the paper's convention: **GB/s means
//! 10^9 bytes per second** (decimal), matching how vendors quote link rates
//! (e.g. "NEC IXS: 16 GB/s per direction"). Message sizes follow the IMB
//! convention of binary sizes (1 MB message = 2^20 bytes).

/// One kibibyte (2^10 bytes) — IMB message-size convention.
pub const KIB: u64 = 1 << 10;
/// One mebibyte (2^20 bytes) — IMB message-size convention ("1 MB" in the paper).
pub const MIB: u64 = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(KIB, 1024);
        assert_eq!(MIB, 1024 * 1024);
    }
}
