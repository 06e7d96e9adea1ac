//! Ablation studies over the design choices DESIGN.md calls out — beyond
//! the paper's figures, these sweep the knobs the paper discusses in text:
//!
//! * **subset size `S`** (Section 5): the locality/queueing trade-off at
//!   finer granularity than the paper's S=1 vs S=C endpoints,
//! * **remote-L1 penalty** (Section 3/5): how much hierarchical FCFS
//!   actually buys as the penalty factor varies,
//! * **staggered sending** (Section 5): bandwidth, buffering and lock
//!   waits with and without it,
//! * **spill-buffer capacity** (Section 7): the early-forwarding trade-off
//!   between switch memory and extra traffic.

use flare_core::handlers::SparseStorageKind;
use flare_core::wiring::SwitchRun;
use flare_model::{AggKind, SwitchParams};
use flare_pspin::{PspinConfig, Report, SchedulingPolicy, StaggerMode};

use crate::table::{self, f2, mib};
use crate::Scale;

fn dense_run(
    cfg: PspinConfig,
    kind: AggKind,
    blocks: u64,
    stagger: StaggerMode,
    seed: u64,
) -> Report {
    let run = SwitchRun {
        cfg,
        children: 64,
        blocks,
        stagger,
        jitter: true,
        seed,
    };
    run.dense::<i32>(kind)
}

/// One subset-size ablation point.
#[derive(Debug, Clone)]
pub struct SubsetRow {
    /// Cores per scheduling subset.
    pub s: usize,
    /// Algorithm.
    pub kind: AggKind,
    /// Achieved bandwidth (Tbps).
    pub tbps: f64,
    /// Peak input-buffer occupancy (bytes).
    pub input_buffer_peak: i64,
    /// Total lock-wait cycles.
    pub lock_wait: u64,
}

/// Sweep `S ∈ {1, 2, 4, 8}` for single-buffer and tree at 64 KiB — the
/// regime where the paper's Figure 7 shows the S trade-off.
pub fn subset_sweep() -> Vec<SubsetRow> {
    let mut out = Vec::new();
    for s in [1usize, 2, 4, 8] {
        for kind in [AggKind::SingleBuffer, AggKind::Tree] {
            let cfg = PspinConfig {
                policy: SchedulingPolicy::Hierarchical { subset_size: s },
                ..PspinConfig::paper()
            };
            let report = dense_run(cfg, kind, 64, StaggerMode::Target(1024), 5);
            out.push(SubsetRow {
                s,
                kind,
                tbps: report.ingress_tbps,
                input_buffer_peak: report.input_buffer_peak,
                lock_wait: report.lock_wait_cycles,
            });
        }
    }
    out
}

/// One remote-penalty ablation point.
#[derive(Debug, Clone)]
pub struct RemoteRow {
    /// Remote-L1 penalty factor.
    pub factor: u64,
    /// Global-FCFS bandwidth (Tbps).
    pub global_tbps: f64,
    /// Hierarchical bandwidth (Tbps) — unaffected by the factor.
    pub hierarchical_tbps: f64,
}

/// Sweep the remote-L1 penalty: how badly global FCFS degrades and why
/// PsPIN's 25× makes hierarchical scheduling mandatory.
pub fn remote_penalty_sweep() -> Vec<RemoteRow> {
    let mut out = Vec::new();
    for factor in [1u64, 5, 25] {
        let mk = |policy| PspinConfig {
            params: SwitchParams {
                clusters: 8,
                ..SwitchParams::paper()
            },
            remote_l1_factor: factor,
            policy,
            ..PspinConfig::paper()
        };
        let global = dense_run(
            mk(SchedulingPolicy::GlobalFcfs),
            AggKind::SingleBuffer,
            64,
            StaggerMode::Full,
            7,
        );
        let hier = dense_run(
            mk(SchedulingPolicy::Hierarchical { subset_size: 8 }),
            AggKind::SingleBuffer,
            64,
            StaggerMode::Full,
            7,
        );
        out.push(RemoteRow {
            factor,
            global_tbps: global.ingress_tbps,
            hierarchical_tbps: hier.ingress_tbps,
        });
    }
    out
}

/// One staggering ablation point.
#[derive(Debug, Clone)]
pub struct StaggerRow {
    /// Stagger mode label.
    pub mode: &'static str,
    /// Bandwidth (Tbps).
    pub tbps: f64,
    /// Peak input buffers (bytes).
    pub input_buffer_peak: i64,
    /// Lock-wait cycles.
    pub lock_wait: u64,
}

/// Staggered sending on/off/full at 256 KiB, single buffer.
pub fn stagger_sweep() -> Vec<StaggerRow> {
    let cfg = || PspinConfig::paper();
    [
        ("none", StaggerMode::None),
        ("target L", StaggerMode::Target(1024)),
        ("full", StaggerMode::Full),
    ]
    .into_iter()
    .map(|(label, mode)| {
        let report = dense_run(cfg(), AggKind::SingleBuffer, 256, mode, 11);
        StaggerRow {
            mode: label,
            tbps: report.ingress_tbps,
            input_buffer_peak: report.input_buffer_peak,
            lock_wait: report.lock_wait_cycles,
        }
    })
    .collect()
}

/// One spill-capacity ablation point.
#[derive(Debug, Clone)]
pub struct SpillRow {
    /// Spill-buffer capacity (elements).
    pub spill_cap: usize,
    /// Bandwidth (Tbps).
    pub tbps: f64,
    /// Elements forwarded unaggregated.
    pub spilled_elems: u64,
}

/// Sweep the sparse spill-buffer capacity at 10 % density: larger buffers
/// hold data longer (more chances to aggregate downstream packets of the
/// same flush), smaller ones forward earlier.
pub fn spill_sweep() -> Vec<SpillRow> {
    let run = SwitchRun {
        cfg: PspinConfig::paper(),
        children: 16,
        blocks: 64,
        stagger: StaggerMode::Target(3072),
        jitter: true,
        seed: 13,
    };
    let density = 0.1f64;
    let span = (128.0 / density) as usize;
    let pairs = |c: u16, b: u64| {
        let mut rng = flare_des::rng::rng_stream(99, (b << 8) | c as u64);
        use rand::RngExt;
        let mut pairs: Vec<(u32, f32)> = Vec::new();
        for idx in 0..span as u32 {
            if rng.random::<f64>() < density {
                pairs.push((idx, 1.0));
            }
        }
        pairs.truncate(128);
        pairs
    };
    [8usize, 32, 128]
        .into_iter()
        .map(|spill_cap| {
            let storage = SparseStorageKind::Hash {
                slots: 256,
                spill_cap,
            };
            let (report, spilled_elems) = run.sparse::<f32>(storage, 128, 3072, pairs);
            SpillRow {
                spill_cap,
                tbps: report.ingress_tbps,
                spilled_elems,
            }
        })
        .collect()
}

/// Print the four sweeps.
pub fn print(_: Scale) {
    println!("Ablation 1: scheduling subset size S (64 KiB, i32)");
    let columns: &[table::Column<SubsetRow>] = &[
        ("S", |r| r.s.to_string()),
        ("algorithm", |r| r.kind.label()),
        ("Tbps", |r| f2(r.tbps)),
        ("inbuf peak (MiB)", |r| mib(r.input_buffer_peak as f64)),
        ("lock-wait cyc", |r| r.lock_wait.to_string()),
    ];
    table::print(subset_sweep(), columns);

    println!("Ablation 2: remote-L1 penalty factor (global FCFS vs hierarchical)");
    let columns: &[table::Column<RemoteRow>] = &[
        ("penalty", |r| format!("{}x", r.factor)),
        ("global FCFS (Tbps)", |r| f2(r.global_tbps)),
        ("hierarchical (Tbps)", |r| f2(r.hierarchical_tbps)),
    ];
    table::print(remote_penalty_sweep(), columns);

    println!("Ablation 3: staggered sending (256 KiB, single buffer)");
    let columns: &[table::Column<StaggerRow>] = &[
        ("stagger", |r| r.mode.to_string()),
        ("Tbps", |r| f2(r.tbps)),
        ("inbuf peak (MiB)", |r| mib(r.input_buffer_peak as f64)),
        ("lock-wait cyc", |r| r.lock_wait.to_string()),
    ];
    table::print(stagger_sweep(), columns);

    println!("Ablation 4: sparse spill-buffer capacity (10% density, hash)");
    let columns: &[table::Column<SpillRow>] = &[
        ("spill cap", |r| r.spill_cap.to_string()),
        ("Tbps", |r| f2(r.tbps)),
        ("spilled elems", |r| r.spilled_elems.to_string()),
    ];
    table::print(spill_sweep(), columns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_sweep_shows_the_tradeoff() {
        let rows = subset_sweep();
        // Single buffer: S=1 avoids contention entirely (no lock waits);
        // larger subsets contend at this (small) size.
        let single_s1 = rows
            .iter()
            .find(|r| r.s == 1 && r.kind == AggKind::SingleBuffer)
            .unwrap();
        let single_s8 = rows
            .iter()
            .find(|r| r.s == 8 && r.kind == AggKind::SingleBuffer)
            .unwrap();
        assert_eq!(single_s1.lock_wait, 0);
        assert!(single_s8.lock_wait > 0);
        // Tree is contention-free at every S.
        for r in rows.iter().filter(|r| r.kind == AggKind::Tree) {
            assert_eq!(r.lock_wait, 0, "S={}", r.s);
        }
    }

    #[test]
    fn remote_penalty_only_hurts_global_fcfs() {
        let rows = remote_penalty_sweep();
        // Hierarchical is flat across factors.
        let h: Vec<f64> = rows.iter().map(|r| r.hierarchical_tbps).collect();
        assert!((h[0] - h[2]).abs() / h[0] < 0.05, "{h:?}");
        // Global degrades monotonically with the factor.
        assert!(rows[0].global_tbps > rows[1].global_tbps);
        assert!(rows[1].global_tbps > rows[2].global_tbps);
        // At factor 1 global FCFS is competitive.
        assert!(rows[0].global_tbps > 0.7 * rows[0].hierarchical_tbps);
    }

    #[test]
    fn staggering_reduces_waits_and_buffers() {
        let rows = stagger_sweep();
        let none = &rows[0];
        let full = &rows[2];
        assert!(full.lock_wait < none.lock_wait / 2);
        assert!(full.input_buffer_peak <= none.input_buffer_peak);
        assert!(full.tbps > none.tbps);
    }

    #[test]
    fn smaller_spill_buffers_spill_no_less() {
        let rows = spill_sweep();
        // Spilled volume is set by collisions, which depend on the table,
        // not the spill buffer; capacity only batches the flushes.
        let s: Vec<u64> = rows.iter().map(|r| r.spilled_elems).collect();
        assert!(s.iter().all(|&x| x > 0));
        let max = *s.iter().max().unwrap() as f64;
        let min = *s.iter().min().unwrap() as f64;
        assert!(min / max > 0.8, "{s:?}");
    }

    #[test]
    fn sweeps_are_bit_identical_to_the_hand_assembled_ones() {
        // Recorded at the parent of the `SwitchRun` change, where this
        // module built its own traces, payloads and handlers.
        #[rustfmt::skip]
        let subset = [
            (0.49724549500255344, 3700320, 0), (0.4724559482053486, 2917200, 0),
            (0.5123155790075016, 3681600, 3999421), (0.8567228116044044, 2224560, 0),
            (0.5123155790075016, 3685760, 12056661), (1.4424244476424277, 1298960, 0),
            (0.5103514788468738, 3697200, 27380013), (2.043456257120585, 567840, 0),
        ];
        let got: Vec<(f64, i64, u64)> = subset_sweep()
            .iter()
            .map(|r| (r.tbps, r.input_buffer_peak, r.lock_wait))
            .collect();
        assert_eq!(got, subset, "single, tree per S of 1, 2, 4, 8");

        let remote = [
            (0.3144344488425093, 0.31249112832974185),
            (0.0705153316600487, 0.31249112832974185),
            (0.014255347629373812, 0.31249112832974185),
        ];
        let got: Vec<(f64, f64)> = remote_penalty_sweep()
            .iter()
            .map(|r| (r.global_tbps, r.hierarchical_tbps))
            .collect();
        assert_eq!(got, remote, "global, hierarchical per factor of 1, 5, 25");

        let stagger = [
            (0.4480856989823246, 4193280, 33055887),
            (1.6406345040271648, 4193280, 13431934),
            (1.69227040513247, 4193280, 13430862),
        ];
        let got: Vec<(f64, i64, u64)> = stagger_sweep()
            .iter()
            .map(|r| (r.tbps, r.input_buffer_peak, r.lock_wait))
            .collect();
        assert_eq!(got, stagger, "none, target L, full");

        let spill = [
            (0.12236260572785279, 89632),
            (0.12097673190340659, 88864),
            (0.12062633118782914, 85504),
        ];
        let got: Vec<(f64, u64)> = spill_sweep()
            .iter()
            .map(|r| (r.tbps, r.spilled_elems))
            .collect();
        assert_eq!(got, spill, "spill capacity 8, 32, 128");
    }
}
