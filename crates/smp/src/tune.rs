//! The kernels' blocking parameters: one set of constants.
//!
//! DGEMM macro-blocking, the FFT block schedule and the HPL panel are
//! compiled in, with the cache footprints that chose them written beside
//! the values. There is no per-host table: on the dev host three sweeps of
//! a blocking autotuner picked three different answers, because
//! run-to-run noise is larger than any effect of the blocking (DESIGN.md
//! "Kernel parameters are constants"). A value that breaks a kernel's
//! precondition fails the build: the checks sit below [`TUNED`], and the
//! microkernel-multiple checks beside `hpcc`'s DGEMM register block.

/// The kernels' blocking parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuned {
    /// DGEMM macro-block rows (multiple of the 8-row microkernel).
    pub dgemm_mc: usize,
    /// DGEMM macro-block columns (multiple of the 8-column microkernel).
    pub dgemm_nc: usize,
    /// DGEMM macro-block depth.
    pub dgemm_kc: usize,
    /// FFT L1-resident block, complex elements (power of two).
    pub fft_l1_block: usize,
    /// FFT L2-resident block, complex elements (power of two).
    pub fft_l2_block: usize,
    /// HPL panel width.
    pub hpl_nb: usize,
}

/// The one set of kernel parameters.
pub const TUNED: Tuned = Tuned {
    // The A pack (`mc x kc`, 128 KiB) is L2-resident; the B pack
    // (`kc x nc`) is 512 KiB.
    dgemm_mc: 64,
    dgemm_nc: 256,
    dgemm_kc: 256,
    // Two `f64` planes of 1024 elements are 16 KiB, inside L1d
    // alongside the small-stage twiddle packs; an L2 block's
    // planes are 512 KiB plus streamed twiddle packs.
    fft_l1_block: 1024,
    fft_l2_block: 1 << 15,
    hpl_nb: 32,
};

const _: () = assert!(TUNED.dgemm_kc >= 1 && TUNED.hpl_nb >= 1);
// Every FFT block is a whole number of `chunks_exact` blocks.
const _: () = assert!(TUNED.fft_l1_block.is_power_of_two());
const _: () = assert!(TUNED.fft_l2_block.is_power_of_two());
const _: () = assert!(TUNED.fft_l1_block <= TUNED.fft_l2_block);

/// The kernel parameters, [`TUNED`].
pub fn tuned() -> &'static Tuned {
    &TUNED
}
