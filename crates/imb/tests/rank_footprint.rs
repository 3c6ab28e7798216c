//! What a cooperative rank keeps resident in a virtual Barrier on the
//! exascale model (see `common` for how it is read). The bounds sit about
//! 30 % over the growth measured on x86-64, each case alone.
#![cfg(target_os = "linux")]

mod common;

use common::assert_footprint;
use imb::Benchmark;

/// 4 096 ranks in a debug build: 1 548–1 581 B a rank over three runs
/// (1 917–1 965 B before each collective was one future).
#[test]
fn a_virtual_rank_stays_within_its_footprint() {
    assert_footprint(Benchmark::Barrier, 4096, 2048);
}

/// 65 536 ranks in a release build: 1 940 B a rank (2 322 B before).
#[test]
#[ignore = "65 536 ranks: run alone, in release"]
fn a_virtual_rank_stays_within_its_footprint_at_65536_ranks() {
    assert_footprint(Benchmark::Barrier, 65_536, 2528);
}
