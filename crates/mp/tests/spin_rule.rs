//! How rarely a world whose ranks each have a CPU leaves the CPU to
//! receive — one test, alone in its binary on purpose. The claim needs
//! the host's CPUs to be free for the two ranks, and `cargo test` runs
//! the tests of one binary side by side (but its binaries one after the
//! other): next to any busy neighbour a rank's peer is descheduled most
//! of the time, the 50 µs budget runs out and the receive parks, as it
//! should. So the parks are counted from outside, as the kernel sees
//! them — a park is a voluntary context switch, and keeping those off
//! the path of a short message is the point of spinning first.

/// Voluntary context switches of the calling thread so far (Linux).
fn voluntary_switches() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
    line.trim().parse().ok()
}

/// `rounds` 8-byte ping-pongs between two ranks; the voluntary context
/// switches each rank made meanwhile.
fn ping_pong_switches(rounds: u64) -> Vec<Option<u64>> {
    mp::run(2, |comm| {
        let peer = 1 - comm.rank();
        let mut buf = [0u64];
        let before = voluntary_switches();
        for i in 0..rounds {
            if comm.rank() == 0 {
                comm.send(&[i], peer, 3);
                comm.recv(&mut buf, peer, 3);
                assert_eq!(buf[0], i);
            } else {
                comm.recv(&mut buf, peer, 3);
                comm.send(&buf, peer, 3);
            }
        }
        Some(voluntary_switches()? - before?)
    })
}

#[test]
fn two_ranks_with_a_cpu_each_park_in_under_five_percent_of_their_receives() {
    const ROUNDS: u64 = 10_000;
    let cpus = smp::topo::detect().online_cpus;
    // The best of three: a burst of interference from another process
    // only ever adds parks.
    let attempts: Option<Vec<u64>> = (0..3)
        .map(|_| ping_pong_switches(ROUNDS).into_iter().sum())
        .collect();
    let Some(attempts) = attempts else {
        eprintln!("no /proc/thread-self/status here: parks cannot be counted from outside");
        return;
    };
    let receives = 2 * ROUNDS;
    if mp::receives_spin(2) {
        // At the parent commit: every receive, about 20 000.
        let parks = *attempts.iter().min().expect("three attempts");
        eprintln!("{attempts:?} voluntary context switches in {receives} receives on {cpus} CPUs");
        assert!(
            parks * 20 < receives,
            "{attempts:?} voluntary context switches in {receives} receives on {cpus} CPUs: \
             5 % or more of them parked"
        );
    } else {
        eprintln!("{cpus} online CPU: two ranks do not fit, so receives must park at once");
        let parks = *attempts.iter().max().expect("three attempts");
        assert!(
            parks * 2 > receives,
            "{attempts:?} voluntary context switches in {receives} receives on {cpus} CPU: \
             ranks that share a CPU must yield it, not spin on it"
        );
    }
}
