//! The paper's ratio-based analysis (Section 4.1): communication/
//! computation balance and the HPL-normalised cross-benchmark comparison
//! of Fig. 5 / Table 3.

use hpcc::HpccSummary;
use machines::Machine;

/// One point of the balance sweeps behind Figs. 1-4.
#[derive(Clone, Copy, Debug)]
pub struct BalancePoint {
    /// CPUs.
    pub cpus: usize,
    /// G-HPL in Gflop/s.
    pub hpl_gflops: f64,
    /// Accumulated random-ring bandwidth (p x per-CPU), GB/s.
    pub accum_ring_bw: f64,
    /// Random-ring bandwidth / HPL, in Bytes per kiloflop (Fig. 2's unit).
    pub b_per_kflop: f64,
    /// Accumulated EP-STREAM copy (p x per-CPU), GB/s.
    pub accum_stream: f64,
    /// STREAM copy / HPL, Bytes per flop (Fig. 4's unit).
    pub stream_b_per_flop: f64,
}

/// Computes the balance point from a suite summary.
pub fn balance_point(s: &HpccSummary) -> BalancePoint {
    let p = s.cpus as f64;
    let hpl_flops = s.ghpl * 1e9;
    let ring_bytes = s.ring_bw * 1e9 * p;
    let stream_bytes = s.stream_copy * 1e9 * p;
    BalancePoint {
        cpus: s.cpus,
        hpl_gflops: s.ghpl,
        accum_ring_bw: ring_bytes / 1e9,
        b_per_kflop: ring_bytes / (hpl_flops / 1e3),
        accum_stream: stream_bytes / 1e9,
        stream_b_per_flop: stream_bytes / hpl_flops,
    }
}

/// The eight HPL-normalised columns of Fig. 5, in the paper's order.
pub(crate) const KIVIAT_COLUMNS: [&str; 8] = [
    "G-HPL",
    "G-EP DGEMM/G-HPL",
    "G-FFTE/G-HPL",
    "G-Ptrans/G-HPL",
    "G-StreamCopy/G-HPL",
    "RandRingBW/PP-HPL",
    "1/RandRingLatency",
    "G-RandomAccess/G-HPL",
];

/// Fig. 5's raw (pre-normalisation) ratio values for one machine at one
/// configuration. Units match Table 3: TF/s, dimensionless, B/F, 1/us,
/// Update/F.
#[derive(Clone, Debug)]
pub struct KiviatRow {
    /// Machine name.
    pub machine: String,
    /// Raw column values.
    pub values: [f64; 8],
}

/// Builds a Kiviat row from a suite summary.
pub(crate) fn kiviat_row(machine: &Machine, s: &HpccSummary) -> KiviatRow {
    let p = s.cpus as f64;
    let hpl_flops = s.ghpl * 1e9;
    KiviatRow {
        machine: machine.name.to_string(),
        values: [
            s.ghpl / 1e3,                        // TF/s
            s.ep_dgemm * p / s.ghpl,             // dimensionless
            s.gfft / s.ghpl,                     // dimensionless
            s.ptrans * 1e9 / hpl_flops,          // B/F
            s.stream_copy * 1e9 * p / hpl_flops, // B/F
            s.ring_bw * 1e9 / (hpl_flops / p),   // B/F (per process)
            1.0 / s.ring_latency_us,             // 1/us
            s.gups * 1e9 / hpl_flops,            // Update/F
        ],
    }
}

/// Normalises each column by its maximum, as Fig. 5 does ("each of the
/// columns is normalized with respect to the largest value of the
/// column, i.e., the best value is always 1"). Returns the normalised
/// rows plus the per-column maxima (= Table 3).
pub fn normalise(rows: &[KiviatRow]) -> (Vec<KiviatRow>, [f64; 8]) {
    let mut maxima = [0.0f64; 8];
    for row in rows {
        for (m, v) in maxima.iter_mut().zip(row.values.iter()) {
            *m = m.max(*v);
        }
    }
    let normalised = rows
        .iter()
        .map(|r| KiviatRow {
            machine: r.machine.clone(),
            values: std::array::from_fn(|i| {
                if maxima[i] > 0.0 {
                    r.values[i] / maxima[i]
                } else {
                    0.0
                }
            }),
        })
        .collect();
    (normalised, maxima)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(cpus: usize) -> HpccSummary {
        HpccSummary {
            cpus,
            ghpl: 100.0,
            ptrans: 4.0,
            gups: 0.005,
            stream_copy: 2.0,
            stream_triad: 2.1,
            gfft: 2.0,
            ep_dgemm: 6.0,
            ring_bw: 0.1,
            ring_latency_us: 5.0,
            all_passed: true,
        }
    }

    #[test]
    fn balance_point_units() {
        let b = balance_point(&summary(16));
        assert_eq!(b.cpus, 16);
        assert!((b.accum_ring_bw - 1.6).abs() < 1e-12);
        // 1.6 GB/s over 100 Gflop/s = 16 B/kF.
        assert!((b.b_per_kflop - 16.0).abs() < 1e-9);
        assert!((b.accum_stream - 32.0).abs() < 1e-12);
        assert!((b.stream_b_per_flop - 0.32).abs() < 1e-12);
    }

    #[test]
    fn kiviat_row_values() {
        let m = machines::systems::dell_xeon();
        let r = kiviat_row(&m, &summary(16));
        assert!((r.values[0] - 0.1).abs() < 1e-12, "TF/s");
        assert!((r.values[1] - 0.96).abs() < 1e-12, "DGEMM ratio");
        assert!((r.values[6] - 0.2).abs() < 1e-12, "1/latency");
    }

    #[test]
    fn normalisation_makes_best_value_one() {
        let m = machines::systems::dell_xeon();
        let mut r1 = kiviat_row(&m, &summary(16));
        let mut r2 = kiviat_row(&m, &summary(16));
        r1.values[3] = 2.0;
        r2.values[3] = 4.0;
        let (norm, maxima) = normalise(&[r1, r2]);
        assert_eq!(maxima[3], 4.0);
        assert_eq!(norm[0].values[3], 0.5);
        assert_eq!(norm[1].values[3], 1.0);
        // Every column's max is 1 after normalisation.
        for i in 0..8 {
            let best = norm.iter().map(|r| r.values[i]).fold(0.0, f64::max);
            assert!((best - 1.0).abs() < 1e-12);
        }
    }
}
