//! Determinism guarantees: regenerated figures are bit-stable — the
//! property that makes `out/` diffable across runs and machines.

use hpcbench::figures::{self, FigureConfig};

/// The paper plan at [`FigureConfig::quick`], priced.
fn quick_set() -> Vec<harness::Record> {
    figures::paper_plan(&FigureConfig::quick()).execute(&hpcbench::registry())
}

#[test]
fn figure_regeneration_is_bit_stable() {
    let fig12 = || {
        let figures = figures::figures_from(&quick_set());
        figures.into_iter().find(|f| f.id == "fig12").unwrap()
    };
    let (a, b) = (fig12(), fig12());
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(hpcbench::svg::render(&a), hpcbench::svg::render(&b));
}

#[test]
fn balance_sweeps_are_bit_stable() {
    let a = figures::hpcc_sweeps_from(&quick_set());
    let b = figures::hpcc_sweeps_from(&quick_set());
    for (sa, sb) in a.iter().zip(&b) {
        assert_eq!(sa.machine.name, sb.machine.name);
        for (ra, rb) in sa.rows.iter().zip(&sb.rows) {
            assert_eq!(ra.ghpl, rb.ghpl, "{}", sa.machine.name);
            assert_eq!(ra.ring_bw, rb.ring_bw, "{}", sa.machine.name);
            assert_eq!(ra.ptrans, rb.ptrans, "{}", sa.machine.name);
        }
    }
}

#[test]
fn tables_are_bit_stable() {
    let csv = || -> Vec<String> {
        let tables = figures::tables_from(&quick_set());
        tables.iter().map(hpcbench::Table::to_csv).collect()
    };
    assert_eq!(csv(), csv());
}

#[test]
fn simulated_measurements_are_deterministic() {
    for m in machines::systems::paper_systems() {
        let a = imb::sim::simulate(&m, imb::Benchmark::Alltoall, 8, 1 << 20);
        let b = imb::sim::simulate(&m, imb::Benchmark::Alltoall, 8, 1 << 20);
        assert_eq!(a.t_max_us(), b.t_max_us(), "{}", m.name);
    }
}

/// The paper plan at 128 CPUs and 1 MiB, the scale the paper's figures
/// are priced at on every machine but the largest: far more timeline
/// traffic than [`FigureConfig::quick`] makes. The golden is an FNV-1a
/// digest of every record's value bits, computed at the commit before a
/// timeline kept its tail chunk inline.
#[test]
fn paper_plan_at_128_cpus_keeps_its_record_values() {
    const GOLDEN: u64 = 0xe128_54cd_aff3_731e;
    let cfg = FigureConfig {
        max_procs: 128,
        imb_bytes: simnet::units::MIB,
        ..FigureConfig::quick()
    };
    let records = figures::paper_plan(&cfg).execute(&hpcbench::registry());
    assert_eq!(records.len(), 722);
    let mut h = FNV_OFFSET;
    for r in &records {
        fnv1a(&mut h, &[r.value.to_bits()]);
    }
    assert_eq!(h, GOLDEN, "{h:#018x}");
}

/// The `campaign --high-rank` plan at `procs` cooperative ranks: its
/// records as JSON, and an FNV-1a digest of that text.
fn highrank_slice(procs: usize) -> (String, u64) {
    let records = harness::RunPlan::high_rank(procs).execute(&hpcbench::registry());
    assert_eq!(records.len(), 4);
    assert!(records.iter().all(|r| r.passed));
    let json = harness::records_json(&records);
    let mut h = FNV_OFFSET;
    fnv1a_bytes(&mut h, json.bytes());
    (json, h)
}

/// The `campaign --high-rank` plan at 4096 cooperative ranks, twice:
/// the FIFO run queue fixes the order messages hit the fabric timelines,
/// so the virtual records are byte-identical run to run, and equal to
/// the records of the commit before a timeline kept its tail chunk
/// inline (the golden was computed there).
#[test]
fn highrank_virtual_slice_is_deterministic() {
    const GOLDEN: u64 = 0xed9c_5dc2_3bff_5fca;
    let (json, h) = highrank_slice(4096);
    assert_eq!(json, highrank_slice(4096).0);
    assert_eq!(h, GOLDEN, "{h:#018x}");
}

/// The same slice at 16 384 ranks, where the fabric timelines fragment
/// past one chunk: reservations land behind the tail chunk and full
/// tails split. Its records equal the commit's before the tail chunk
/// sat inline (the golden was computed there). About 6 s in a release
/// build, so it runs there:
/// `cargo test --release --test determinism -- --ignored --exact
/// highrank_virtual_slice_keeps_its_records_at_16384_ranks`.
#[test]
#[ignore = "release-scale: about 6 s in a release build"]
fn highrank_virtual_slice_keeps_its_records_at_16384_ranks() {
    const GOLDEN: u64 = 0x0951_3ab8_42eb_043a;
    let (_, h) = highrank_slice(16_384);
    assert_eq!(h, GOLDEN, "{h:#018x}");
}

/// The `campaign --smoke --high-rank N --check` slice at 1 024 ranks:
/// checked worlds (rings of 16 events a rank, as `campaign` runs them)
/// give the records of unchecked ones bit for bit, and all four are clean.
#[test]
fn highrank_virtual_slice_is_the_same_checked() {
    let (plan, reg) = (harness::RunPlan::high_rank(1024), hpcbench::registry());
    let unchecked = plan.execute(&reg);
    let settings = mpcheck::Settings { ring_capacity: 16 };
    let (checked, report) = plan.execute_checked(&reg, settings);
    let bits = |records: &[harness::Record]| -> Vec<u64> {
        records.iter().map(|r| r.value.to_bits()).collect()
    };
    assert_eq!(bits(&checked), bits(&unchecked));
    assert_eq!(
        harness::records_json(&checked),
        harness::records_json(&unchecked)
    );
    assert_eq!(report.runs, 4);
    assert!(report.clean(), "{report}");
}

#[test]
fn native_results_are_value_deterministic() {
    // Wall-clock timings vary; computed *values* must not.
    let run = || {
        mp::run(4, |comm| {
            let r = hpcc::hpl::run(
                comm,
                &hpcc::hpl::HplConfig {
                    n: 64,
                    nb: 8,
                    ..hpcc::hpl::HplConfig::default()
                },
            );
            r.residual
        })[0]
    };
    assert_eq!(
        run(),
        run(),
        "HPL residual must be bit-identical across runs"
    );
}

/// Virtual IMB moves ghost words: lengths, no bytes. The same body over
/// real `u8`/`f64` words — every buffer allocated, every payload copied
/// and reduced — sends the same messages in the same order, so each
/// record must come out bit for bit the same, over every dispatch the
/// sizes reach (Bruck at 24 B on 16 ranks, recursive doubling and ring,
/// binomial and van de Geijn, Rabenseifner and its fallbacks). The golden
/// digest was computed at the commit before ghost words existed, when
/// real words were the only kind.
#[test]
fn ghost_words_reproduce_real_word_virtual_records() {
    const PROCS: [usize; 4] = [2, 5, 8, 16];
    const BYTES: [u64; 4] = [0, 24, 64 << 10, (1 << 20) + 256];
    const GOLDEN: u64 = 0x41d8_baa0_ea56_ad93;
    let machine = machines::systems::dell_xeon();
    let runner = harness::Runner::fixed(2);
    let bits = |r: &harness::Record| {
        let s = r.stats;
        let times = [r.value, s.t_min_us, s.t_avg_us, s.t_max_us].map(f64::to_bits);
        (
            r.identity(),
            r.machine,
            r.mode,
            s.repetitions,
            times,
            r.passed,
        )
    };
    let mut h = FNV_OFFSET;
    for bench in imb::Benchmark::ALL {
        for (procs, bytes) in PROCS.iter().flat_map(|&p| BYTES.map(|b| (p, b))) {
            let ghost = imb::run_virtual_with(&machine, bench, procs, bytes, &runner);
            let real = imb::virtual_run::run_virtual_with_real_words(
                &machine, bench, procs, bytes, &runner,
            );
            assert_eq!(bits(&ghost), bits(&real), "{bench} p={procs} {bytes} B");
            assert!(ghost.passed && ghost.t_min_us() > 0.0, "{bench} p={procs}");
            fnv1a(&mut h, &bits(&ghost).4);
        }
    }
    assert_eq!(h, GOLDEN, "{h:#018x}");
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_bytes(h: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    for b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv1a(h: &mut u64, words: &[u64]) {
    fnv1a_bytes(h, words.iter().flat_map(|w| w.to_le_bytes()));
}

/// Every file of a written tree, by name: `(name, body)`.
fn tree(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("the tree was written")
        .map(|entry| {
            let path = entry.expect("readable entry").path();
            let name = path.file_name().expect("a file").to_string_lossy();
            (
                name.into_owned(),
                std::fs::read(&path).expect("readable file"),
            )
        })
        .collect();
    files.sort();
    files
}

/// FNV-1a over each file's name, length and body, in the order given.
fn tree_digest(files: &[(String, Vec<u8>)]) -> u64 {
    let mut h = FNV_OFFSET;
    for (name, body) in files {
        fnv1a_bytes(&mut h, name.bytes());
        fnv1a(&mut h, &[body.len() as u64]);
        fnv1a_bytes(&mut h, body.iter().copied());
    }
    h
}

/// Tables and figures are projections of one record set, the paper
/// plan's: the tree `write_all` writes is the tree an earlier commit wrote
/// with every artefact pricing its own cells (the golden was computed
/// there), and `write_from` the plan's records — what `campaign` hands it
/// — writes the same files.
#[test]
fn one_record_set_writes_the_same_tree() {
    use hpcbench::output::{write_all, write_from, OutputConfig};
    const GOLDEN: u64 = 0x9d81_386c_2397_ed22;
    let scratch = std::env::temp_dir().join(format!("hpcbench-tree-{}", std::process::id()));
    let cfg = |sub: &str| OutputConfig {
        out_dir: scratch.join(sub),
        figures: FigureConfig::quick(),
        with_extensions: false,
        verbose: false,
    };

    write_all(&cfg("priced")).unwrap();
    let priced = tree(&scratch.join("priced"));
    assert_eq!(priced.len(), 33, "4 tables, 14 figures twice, one report");
    let h = tree_digest(&priced);
    assert_eq!(h, GOLDEN, "{h:#018x}");

    write_from(&cfg("from"), &quick_set(), &[]).unwrap();
    assert!(
        tree(&scratch.join("from")) == priced,
        "the paper plan's records"
    );
    std::fs::remove_dir_all(&scratch).ok();
}

/// The extension studies — message-size sweeps, one-sided schemes,
/// follow-up systems and the high-rank figures — write the same tree as
/// at the commit that ran the one-sided epochs under virtual clocks (the
/// golden was computed there; only the three `ext_onesided_*` figures and
/// the report moved then).
#[test]
fn extension_tree_is_unchanged() {
    use hpcbench::output::{write_all, OutputConfig};
    const GOLDEN: u64 = 0xef52_742e_b4f6_bd4f;
    let dir = std::env::temp_dir().join(format!("hpcbench-ext-tree-{}", std::process::id()));
    write_all(&OutputConfig {
        out_dir: dir.clone(),
        figures: FigureConfig::quick(),
        with_extensions: true,
        verbose: false,
    })
    .unwrap();
    let files = tree(&dir);
    assert_eq!(
        files.len(),
        67,
        "the paper's 33 files and 17 extension figures twice"
    );
    let h = tree_digest(&files);
    assert_eq!(h, GOLDEN, "{h:#018x}");
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a over the shape of each schedule: rank and round counts, then
/// every `(round, src, dst, bytes)` and `(round, rank, work bytes)` in
/// emission order.
fn digest(schedules: &[simnet::Schedule]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut push = |words: &[u64]| fnv1a(&mut h, words);
    for s in schedules {
        push(&[s.nranks as u64, s.rounds.len() as u64]);
        for (i, round) in s.rounds.iter().enumerate() {
            for t in &round.transfers {
                push(&[0, i as u64, t.src as u64, t.dst as u64, t.bytes]);
            }
            for w in &round.work {
                push(&[1, i as u64, w.rank as u64, w.bytes]);
            }
        }
    }
    h
}

/// Which round a transfer sits in, and where within the round, decides
/// its contended price; the trace-equivalence tests compare sorted
/// multisets and cannot see either. These digests pin both for every
/// schedule the simulator prices, and for each generator `schedule_for`
/// does not reach. They were computed from the hand-written generators
/// that `mp::sched` held before it was derived from `mp::coll`'s steps;
/// the `rooted` and `explicit` ones were recomputed over the surviving
/// generators at the commit before the unreached collectives went.
#[test]
fn simulated_schedules_keep_their_round_structure() {
    use mp::sched;
    const PROCS: [usize; 7] = [2, 3, 7, 8, 13, 64, 128];
    const BYTES: [u64; 3] = [8, 1 << 10, 1 << 20];
    const GOLDEN: [(&str, u64); 14] = [
        ("PingPong", 0x5a8f_842a_3bcb_66a4),
        ("PingPing", 0x0c08_144c_794b_25be),
        ("Sendrecv", 0x20b4_e801_c4ba_2473),
        ("Exchange", 0x33a0_373e_62fb_dd0f),
        ("Barrier", 0xc9f7_6a39_5c47_82a2),
        ("Bcast", 0x6133_e9df_f085_0853),
        ("Allgather", 0x1ad8_7d6f_1186_8e49),
        ("Allgatherv", 0x7489_e060_ebf8_b7c8),
        ("Alltoall", 0x7654_f743_1aa3_1841),
        ("Reduce", 0x181b_e621_81dc_a42b),
        ("Allreduce", 0x6677_cbc1_a4ef_cf4f),
        ("Reduce_scatter", 0x1283_0dcf_1938_1ce5),
        ("rooted", 0x6d7c_35e1_7ad5_ec0b),
        ("explicit", 0x1b97_0913_472c_e620),
    ];

    let mut got: Vec<(&str, u64)> = Vec::new();
    for bench in imb::Benchmark::ALL {
        let cells = PROCS.iter().flat_map(|&p| BYTES.map(|b| (p, b)));
        let all: Vec<_> = cells
            .map(|(procs, bytes)| imb::sim::schedule_for(bench, procs, bytes))
            .collect();
        got.push((bench.name(), digest(&all)));
    }

    // Rooted collectives away from root 0, every algorithm.
    let mut all = Vec::new();
    for n in PROCS {
        for root in [1, n - 1] {
            for b in BYTES {
                all.push(simnet::Schedule::collect(sched::bcast::binomial(
                    n, root, b,
                )));
                all.push(simnet::Schedule::collect(sched::bcast::scatter_allgather(
                    n, root, b,
                )));
                all.push(simnet::Schedule::collect(sched::bcast::auto(n, root, b)));
                all.push(simnet::Schedule::collect(sched::reduce::binomial(
                    n, root, b,
                )));
                if n.is_power_of_two() {
                    all.push(simnet::Schedule::collect(sched::reduce::rabenseifner(
                        n,
                        root,
                        b * n as u64,
                    )));
                }
                all.push(simnet::Schedule::collect(sched::reduce::auto(
                    n, root, b, 8,
                )));
            }
        }
    }
    got.push(("rooted", digest(&all)));

    // The unrooted algorithms by name, at sizes and shapes no `auto` above
    // reaches (ragged counts, one rank, every algorithm at every size).
    let mut all = Vec::new();
    for n in PROCS.into_iter().chain([1]) {
        all.push(simnet::Schedule::collect(sched::barrier::dissemination(n)));
        for b in BYTES {
            let pow2 = 1u64 << n.ilog2();
            let ragged: Vec<u64> = (0..n as u64).map(|i| (i % 3) * b).collect();
            all.push(simnet::Schedule::collect(sched::allgather::ring(n, b)));
            all.push(simnet::Schedule::collect(sched::allgatherv::ring(&ragged)));
            all.push(simnet::Schedule::collect(
                sched::allreduce::recursive_doubling(n, b),
            ));
            all.push(simnet::Schedule::collect(sched::allreduce::rabenseifner(
                n,
                b * pow2,
            )));
            all.push(simnet::Schedule::collect(sched::alltoall::pairwise(n, b)));
            all.push(simnet::Schedule::collect(sched::alltoall::bruck(n, b)));
            all.push(simnet::Schedule::collect(sched::alltoall::auto(n, b)));
            all.push(simnet::Schedule::collect(sched::reduce_scatter::pairwise(
                &ragged,
            )));
            if n.is_power_of_two() {
                all.push(simnet::Schedule::collect(
                    sched::allgather::recursive_doubling(n, b),
                ));
            }
        }
    }
    got.push(("explicit", digest(&all)));

    assert_eq!(got, GOLDEN);
}
