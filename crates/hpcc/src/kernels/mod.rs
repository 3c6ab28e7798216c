//! Compute kernels underlying the HPCC benchmarks: DGEMM, the STREAM
//! vector operations, the table-driven cache-blocked FFT (with its
//! twiddle-table cache) and the RandomAccess update-stream generator.

pub mod dgemm;
pub mod fft;
pub(crate) mod ra_rng;
pub mod stream;
pub mod twiddle;
