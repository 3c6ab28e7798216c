//! What a cooperative rank keeps resident in a virtual Allreduce on the
//! exascale model, whose rounds leave early messages behind as the
//! Barrier's do (see `common` for how it is read). The bounds sit about
//! 30 % over the growth measured on x86-64, each case alone.
#![cfg(target_os = "linux")]

mod common;

use common::assert_footprint;
use imb::Benchmark;

/// 4 096 ranks in a debug build: 1 500–1 548 B a rank over three runs
/// (1 901–1 917 B before each collective was one future).
#[test]
fn a_virtual_allreduce_rank_stays_within_its_footprint() {
    assert_footprint(Benchmark::Allreduce, 4096, 2016);
}

/// 65 536 ranks in a release build: 1 708 B a rank (2 093 B before).
#[test]
#[ignore = "65 536 ranks: run alone, in release"]
fn a_virtual_allreduce_rank_stays_within_its_footprint_at_65536_ranks() {
    assert_footprint(Benchmark::Allreduce, 65_536, 2240);
}
