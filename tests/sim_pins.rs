//! Simulated-behaviour pins: one collective or tenant fleet per row, its
//! makespan, completion time, event count, link traffic and a digest of
//! the order its events were handled in (plus pooled iteration tails for
//! fleets, drops on lossy rows and the HPU switches' counters on one fleet)
//! asserted bit for bit. A single collective's row also checks every
//! rank's result: a dense row's against the closed form of its inputs, a
//! sparse row's against the densified pairs. A sparse row pins a digest of
//! the bits of every rank's result. A change that moves any
//! of them changed what the simulator computes, not how fast it computes
//! it — host-side performance is `benchmark/`'s job (see
//! `benchmark/README.md`).
//!
//! There is one event loop ([`flare::net::NetSim::run`]), so every row
//! has one value.
//!
//! Rows are grouped into `#[test]`s by debug-build cost (the harness runs
//! two at a time): the three ~5 s rows get a test each, and the 1 024-host
//! rows are `#[ignore]`d (run them optimised with `--ignored`).
//!
//! Dense fat-tree rows with more hosts than blocks are also checked
//! against a closed form, not only against their pins: every host sends in
//! block order, so the makespan is the root spine's serial pipeline plus
//! one fill and one drain ([`Row::root_pipeline_ns`]). Their admitted
//! window is the Little's-law ℛ, and it is tight: one block less and the
//! root pipeline starves.

use std::cmp::Ordering;

use flare::des::rng::splitmix64;
use flare::prelude::*;
use flare::workloads::sparse::densify_f32;

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;

#[derive(Debug)]
enum Payload {
    Dense,
    /// ~1 % density, indexes striped across the domain so every block
    /// sees traffic and hash stores collide.
    Sparse,
}
use Payload::{Dense, Sparse};

#[derive(Debug)]
enum Topo {
    Star,
    /// Two-level, as many spines as leaves: 4 hosts per leaf at 8 hosts,
    /// 8 above.
    FatTree,
}
use Topo::{FatTree, Star};

/// One pinned run: its shape, then what it must measure.
#[derive(Debug)]
struct Row {
    payload: Payload,
    topo: Topo,
    hosts: usize,
    bytes_per_host: usize,
    /// The switch model; the session default unless a row says otherwise.
    model: SwitchModel,
    /// Per-link drop probability; lossy rows retransmit after 200 µs.
    loss: f64,
    /// 0 = one collective; otherwise that many Poisson tenants (two jobs
    /// of two iterations each) through the traffic engine, every odd one
    /// sparse when the fabric is lossy.
    tenants: usize,
    /// Makespan in ns, completion ([`RunReport::completion_ns`]: the last
    /// host done) in ns, events, link bytes, and the order digest
    /// ([`flare::net::NetReport::order_digest`]). The two times differ on
    /// the lossy rows only, whose last events (timers, late
    /// retransmissions) come after the last host is done. The digest moves
    /// when the events or the order they are handled in do, even where
    /// every sum holds.
    want: [u64; 5],
    /// A fleet's pooled per-iteration p50 and p99, in ns.
    tails: Option<[u64; 2]>,
    /// How the makespan compares with [`Row::root_pipeline_ns`], where it
    /// is checked; those rows also hold no more blocks open on any switch
    /// than the window they run at.
    root_pipeline: Option<Ordering>,
    /// The window the collective runs at, smaller than the admitted one.
    window: Option<usize>,
    /// The window admission must grant.
    admits: Option<usize>,
    /// Packets loss injection dropped: `net.drops`, and the sum of the
    /// per-link drops.
    drops: Option<u64>,
    /// A fleet's HPU switches in node-id order: handlers, queued, queue
    /// peak, largest subset peak, first arrival and last done.
    hpu_counters: &'static [[u64; 6]],
    /// [`result_digest`] of a sparse collective's ranks.
    results: Option<u64>,
}

fn row(payload: Payload, topo: Topo, hosts: usize, bytes_per_host: usize, want: [u64; 5]) -> Row {
    Row {
        payload,
        topo,
        hosts,
        bytes_per_host,
        model: SwitchModel::calibrated(),
        loss: 0.0,
        tenants: 0,
        want,
        tails: None,
        root_pipeline: None,
        window: None,
        admits: None,
        drops: None,
        hpu_counters: &[],
        results: None,
    }
}

/// A hash (FxHash's step) of the bits of every rank's result, in rank
/// order: what a change to how a result is built moves, even where every
/// rank still equals the golden reduction.
fn result_digest<'a>(ranks: impl Iterator<Item = &'a [f32]>) -> u64 {
    let mut digest = 0u64;
    for rank in ranks {
        for v in rank {
            digest =
                (digest.rotate_left(5) ^ v.to_bits() as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    digest
}

impl Row {
    fn hpu(self) -> Self {
        let model = SwitchModel::Hpu(HpuParams::paper());
        Self { model, ..self }
    }

    /// HPU switches that schedule a block onto one core (`S = 1`), so that
    /// its packets queue behind each other.
    fn hpu_one_core_per_block(self) -> Self {
        let model = SwitchModel::Hpu(HpuParams::paper().with_subset_size(1));
        Self { model, ..self }
    }

    /// Switches at an infinite rate: no processing delay.
    fn unlimited(self) -> Self {
        let model = SwitchModel::RateLimited(f64::INFINITY);
        Self { model, ..self }
    }

    fn loss(self, loss: f64, drops: u64) -> Self {
        let drops = Some(drops);
        Self {
            loss,
            drops,
            ..self
        }
    }

    fn hpu_counters(self, hpu_counters: &'static [[u64; 6]]) -> Self {
        Self {
            hpu_counters,
            ..self
        }
    }

    fn results(self, digest: u64) -> Self {
        let results = Some(digest);
        Self { results, ..self }
    }

    fn tenants(mut self, tenants: usize, p50_ns: u64, p99_ns: u64) -> Self {
        (self.tenants, self.tails) = (tenants, Some([p50_ns, p99_ns]));
        self
    }

    fn root_bound(self) -> Self {
        let root_pipeline = Some(Ordering::Equal);
        Self {
            root_pipeline,
            ..self
        }
    }

    /// Run at `window` blocks, one less than it takes to keep the root
    /// pipeline busy: the makespan exceeds [`Row::root_pipeline_ns`].
    fn starved_at(self, window: usize) -> Self {
        let (root_pipeline, window) = (Some(Ordering::Greater), Some(window));
        Self {
            root_pipeline,
            window,
            ..self
        }
    }

    fn window(self, window: usize) -> Self {
        let window = Some(window);
        Self { window, ..self }
    }

    fn admits(self, window: usize) -> Self {
        let admits = Some(window);
        Self { admits, ..self }
    }

    /// The makespan of a dense fat-tree collective whose root spine's
    /// serial pipeline is the bottleneck, with every host sending its
    /// blocks in the same order: the first aggregate reaches the root
    /// (a host→leaf hop, the leaf folding one packet per host, a leaf→root
    /// hop), the root folds one packet per leaf per block back to back, and
    /// the last result comes down (root→leaf, the leaf's service, leaf→host).
    fn root_pipeline_ns(&self) -> u64 {
        let link = LinkSpec::hundred_gig();
        let SwitchModel::RateLimited(rate) = SwitchModel::calibrated() else {
            unreachable!("the session default is the serial pipeline");
        };
        let epp = Tuning::default().elems_per_packet;
        let wire = flare::core::wire::HEADER_BYTES + epp * 4;
        let hop = link.serialize_ns(wire as u32) + link.latency_ns;
        let service = (wire as f64 / rate).ceil() as u64;
        let (per_leaf, blocks) = (8, (self.bytes_per_host / (epp * 4)) as u64);
        let leaves = (self.hosts / per_leaf) as u64;
        let fill = hop + per_leaf as u64 * service + hop;
        let drain = hop + service + hop;
        fill + leaves * blocks * service + drain
    }

    /// The run's report, a fleet's pooled tails and a sparse collective's
    /// [`result_digest`].
    fn measure(&self) -> (RunReport, Option<[u64; 2]>, Option<u64>) {
        let spec = LinkSpec::hundred_gig();
        let (topo, hosts) = match self.topo {
            Star => {
                let (topo, _switch, hosts) = Topology::star(self.hosts, spec);
                (topo, hosts)
            }
            FatTree => {
                let per_leaf = if self.hosts == 8 { 4 } else { 8 };
                let leaves = self.hosts / per_leaf;
                let (topo, ft) = Topology::fat_tree_two_level(leaves, per_leaf, leaves, spec);
                (topo, ft.hosts)
            }
        };
        assert_eq!(hosts.len(), self.hosts);
        let mut builder = FlareSession::builder(topo).hosts(hosts);
        if self.loss > 0.0 {
            builder = builder
                .link_drop_prob(self.loss)
                .retransmit_after(Some(200_000));
        }
        let mut session = builder.switch_model(self.model.clone()).build();

        let elems = self.bytes_per_host / 4;
        if self.tenants > 0 {
            let mut engine = TrafficEngine::new(&mut session, 7);
            for i in 0..self.tenants {
                let mut spec = TenantSpec::new(format!("tenant-{i}"), elems)
                    .iterations(2)
                    .compute(5_000, 0.2)
                    .arrivals(ArrivalProcess::Poisson {
                        mean_interarrival_ns: 20_000.0,
                        jobs: 2,
                    });
                if self.loss > 0.0 && i % 2 == 1 {
                    spec = spec.sparse(0.2);
                }
                engine.add_tenant(spec).expect("admit tenant");
            }
            let report = engine.run().expect("traffic run");
            engine.release_all().expect("release tenants");
            let tenants = &report.tenants.as_ref().expect("tenant section").tenants;
            let pooled: Vec<u64> = tenants
                .iter()
                .flat_map(|t| t.iteration_makespans_ns.iter().copied())
                .collect();
            let tails = TailStats::from_samples(&pooled);
            (report, Some([tails.p50, tails.p99]), None)
        } else {
            let (run, want) = match self.payload {
                Dense => {
                    // Rank h's element i is a(i) + (h + 1), with a(i) a
                    // splitmix draw in [0, 4096) made once per row: a result
                    // written to another block's range, or taken from an
                    // earlier iteration, differs from the right one. The sum
                    // P·a(i) + P(P+1)/2 is below 2^24 for P ≤ 1 024, so it is
                    // exact in f32 in any fold order: no golden reduction of
                    // P inputs (a second in a debug build on the largest
                    // rows) is needed.
                    let a: Vec<f32> = (0..elems as u64)
                        .map(|i| (splitmix64(i) % 4096) as f32)
                        .collect();
                    let inputs: Vec<Vec<f32>> = (0..self.hosts)
                        .map(|h| {
                            let mut v = a.clone();
                            v.iter_mut().for_each(|x| *x += (h + 1) as f32);
                            v
                        })
                        .collect();
                    // The draws become the closed form in place. Each rank is
                    // compared with it as a slice: in a debug build that
                    // costs a quarter of evaluating the form per element.
                    let p = self.hosts as f32;
                    let mut want = a;
                    want.iter_mut()
                        .for_each(|x| *x = p * *x + p * (p + 1.0) / 2.0);
                    // Clamped to the admitted window: `None` runs at it.
                    let window = self.window.unwrap_or(usize::MAX);
                    let collective = session.allreduce(inputs).op(Sum);
                    (collective.window(window).run(), want)
                }
                Sparse => {
                    let nnz = (elems / 100).max(1);
                    let stride = elems / nnz;
                    let pairs: Vec<Vec<(u32, f32)>> = (0..self.hosts)
                        .map(|h| {
                            let pair = |i| (((i * stride + h) % elems) as u32, 1.0f32);
                            (0..nnz).map(pair).collect()
                        })
                        .collect();
                    // The dense reduction of every host's pairs.
                    let want = densify_f32(&pairs.concat(), elems);
                    (session.sparse_allreduce(elems, pairs).op(Sum).run(), want)
                }
            };
            let run = run.expect("collective runs");
            for (rank, got) in run.ranks().iter().enumerate() {
                assert!(*got == want, "rank {rank}'s result for {self:?}");
            }
            let digest = match self.payload {
                Dense => None,
                Sparse => Some(result_digest(run.ranks().iter().map(|r| &r[..]))),
            };
            (run.report, None, digest)
        }
    }
}

fn check(rows: &[Row]) {
    for row in rows {
        let want = (row.want, row.tails);
        let what =
            "([makespan ns, completion ns, events, link bytes, order digest], fleet [p50, p99] ns)";
        let (report, tails, results) = row.measure();
        let net = &report.net;
        let completion = report.completion_ns();
        let got = (
            [
                net.makespan,
                completion,
                net.events,
                net.total_link_bytes,
                net.order_digest,
            ],
            tails,
        );
        assert!(
            completion <= net.makespan,
            "completion after makespan for {row:?}"
        );
        assert_eq!(net.unroutable, 0, "unroutable packets for {row:?}");
        if let Some(ordering) = row.root_pipeline {
            let bound = row.root_pipeline_ns();
            assert_eq!(
                got.0[0].cmp(&bound),
                ordering,
                "vs root pipeline {bound} for {row:?}"
            );
            // Each switch reserves the window, so this holds per switch.
            assert!(
                report.open_peak <= report.window,
                "open blocks outgrew the window for {row:?}: {report:?}"
            );
        }
        if let Some(window) = row.admits {
            assert_eq!(report.window, window, "admitted window for {row:?}");
        }
        if let Some(drops) = row.drops {
            let per_link = net.links.iter().map(|l| l.drops).sum();
            assert_eq!([net.drops, per_link], [drops; 2], "drops for {row:?}");
        }
        if !row.hpu_counters.is_empty() {
            let fabric = &report.tenants.as_ref().expect("a fleet").fabric;
            let hpu: Vec<[u64; 6]> = (fabric.hpu.iter())
                .map(|h| {
                    let s = &h.stats;
                    let subset_peak = h.subset_peaks.iter().max().copied().unwrap_or(0);
                    let first = s.first_arrival.expect("a switch of the fleet's trees");
                    let (peak, subset_peak) = (s.queue_peak as u64, subset_peak as u64);
                    [s.handlers, s.queued, peak, subset_peak, first, s.last_done]
                })
                .collect();
            assert_eq!(hpu, row.hpu_counters, "HPU counters for {row:?}");
        }
        assert_eq!(got, want, "measured != pinned {what} for {row:?}");
        if let Some(digest) = row.results {
            assert_eq!(results, Some(digest), "result digest for {row:?}");
        }
    }
}

#[test]
#[rustfmt::skip]
fn cells_of_128_kib() {
    check(&[
        row(Dense,  Star,      8, 128 * KIB, [14_179, 14_179,   4_096,  2_129_920, 0x2508_7066_a536_ee0e]),
        row(Dense,  Star,     32, 128 * KIB, [17_959, 17_959,  16_384,  8_519_680, 0x9f89_60c8_3802_7d4e]),
        row(Dense,  FatTree,   8, 128 * KIB, [14_753, 14_753,   5_120,  2_662_400, 0xed2e_09d3_da9c_de24]),
        row(Dense,  FatTree,  32, 128 * KIB, [17_021, 17_021,  18_432,  9_584_640, 0x841b_5143_e8ce_5563]),
        row(Sparse, Star,      8, 128 * KIB, [ 2_131,  2_131,     832,    195_008, 0xf98b_ccf0_d91a_1a82]).results(0x7eb6_4f25_cac8_2a35),
        row(Sparse, Star,     32, 128 * KIB, [ 7_339,  7_339,   8_192,  2_828_032, 0x965b_2436_2e4e_c732]).results(0xfc8d_537e_676c_8063),
        row(Sparse, FatTree,   8, 128 * KIB, [ 3_980,  3_980,   1_040,    259_456, 0x8d4c_cff6_7dc3_d9aa]).results(0x7eb6_4f25_cac8_2a35),
        row(Sparse, FatTree,  32, 128 * KIB, [ 7_878,  7_878,   9_216,  3_254_784, 0x9ee0_6a15_582f_9ea3]).results(0xfc8d_537e_676c_8063),
        // The host counts Canary and Swing evaluate at.
        row(Dense,  FatTree, 128, 128 * KIB, [22_481, 22_481,  73_728, 38_338_560, 0xf80b_f430_44a1_c772]),
        // ℛ = 13.18 blocks on the calibrated pipeline, 13.52 on a switch
        // at an infinite rate; an HPU switch keeps every block in flight.
        row(Dense,  FatTree, 256, 128 * KIB, [13_451, 13_451, 147_456, 76_677_120, 0x057b_7020_db83_2bad]).root_bound().admits(14),
        row(Dense,  FatTree, 256, 128 * KIB, [13_650, 13_650, 147_456, 76_677_120, 0x4d93_a04c_6c3e_b03c]).starved_at(13),
        row(Dense,  FatTree, 256, 128 * KIB, [11_804, 11_804, 147_456, 76_677_120, 0x0508_8e75_f206_86aa]).unlimited().admits(14),
        row(Dense,  FatTree, 256, 128 * KIB, [18_820, 18_820, 147_456, 76_677_120, 0xa430_1548_30c5_94cd]).hpu().admits(128),
        row(Dense,  FatTree,   8, 128 * KIB, [20_736, 20_736,   5_120,  2_662_400, 0xb09b_74c1_e6e2_9292]).hpu(),
        row(Sparse, Star,      8, 128 * KIB, [ 2_672,  2_672,     832,    195_008, 0xa32d_d2d5_88d2_1377]).hpu().results(0x7eb6_4f25_cac8_2a35),
        row(Sparse, FatTree,   8, 128 * KIB, [200_000,  7_530,  1_168,    270_888, 0x5c42_0363_b994_0aea]).loss(0.01, 8).results(0x7eb6_4f25_cac8_2a35),
    ]);
}

#[test]
#[rustfmt::skip]
fn tenant_fleets() {
    check(&[
        row(Dense, FatTree, 8, 32 * KIB, [   95_469,   95_469,  20_672,  10_649_600, 0xb36e_fa17_f01c_56f3]).tenants(4, 6_752, 11_622),
        row(Dense, FatTree, 8, 32 * KIB, [  257_627,  120_968,  17_154,   8_464_584, 0x1cab_2d0c_3d9d_1501]).tenants(4, 13_841, 27_727).loss(0.01, 89),
        row(Dense, FatTree, 8, 32 * KIB, [  124_384,  124_384,  20_672,  10_649_600, 0xbdb6_a957_9281_a4a6]).tenants(4, 16_481, 18_633).hpu_one_core_per_block().hpu_counters(&[
            // The two leaves, then the spine that roots every tenant's tree.
            [2_560, 1_839, 6, 6, 4_714, 124_100],
            [2_560, 1_864, 6, 6, 4_735, 124_100],
            [1_024,   195, 1, 1, 9_771, 121_314],
        ]),
        row(Dense, FatTree, 8, 64 * KIB, [  192_455,  192_455,  82_304,  42_598_400, 0x7220_e6cd_4550_803f]).tenants(8, 38_482, 39_340),
        row(Dense, FatTree, 8, 64 * KIB, [  837_755,  717_478, 135_308,  67_050_048, 0xc8ff_221f_ae02_eeb1]).tenants(16, 104_023, 551_933).loss(0.01, 672),
        row(Dense, FatTree, 8, 64 * KIB, [  715_817,  715_817, 329_216, 170_393_600, 0x1b8e_3b22_9f32_6584]).tenants(32, 167_605, 171_004),
    ]);
}

#[test]
#[rustfmt::skip]
fn eight_hosts_of_8_mib() {
    check(&[
        row(Dense,  Star,    8, 8 * MIB, [691_555, 691_555, 262_144, 136_314_880, 0xf715_081c_2c38_8c53]),
        row(Dense,  FatTree, 8, 8 * MIB, [692_129, 692_129, 327_680, 170_393_600, 0x55d3_7ecf_fcaa_8ec3]),
        row(Sparse, Star,    8, 8 * MIB, [110_525, 110_525,  52_448,  12_498_880, 0x63c8_29da_0e0e_d057]).results(0xbb2a_6e46_0546_64d5),
        row(Sparse, FatTree, 8, 8 * MIB, [111_523, 111_523,  65_560,  16_630_208, 0x0788_f3bc_ceb1_7062]).results(0xbb2a_6e46_0546_64d5),
    ]);
}

#[test]
#[rustfmt::skip]
fn sparse_32_hosts_of_8_mib() {
    check(&[
        // `benchmark`'s `sparse_star` workload.
        row(Sparse, Star, 32, 8 * MIB, [444_769, 444_769, 524_288, 181_357_312, 0xf2a4_e35f_6930_0428]).results(0xac69_f39a_f7ed_0a74),
        row(Sparse, FatTree, 32, 8 * MIB, [446_677, 446_677, 589_824, 208_724_480, 0x7460_d181_b595_3977]).results(0xac69_f39a_f7ed_0a74),
    ]);
}

/// The smallest run found on which sparse shards of unequal size reach the
/// root spine at the same instant from different leaves: the order the
/// root's serial pipeline folds them in decides the makespan, so a change
/// to same-instant event order shows here first.
#[test]
#[rustfmt::skip]
fn sparse_fat_tree_16_hosts_of_256_kib() {
    check(&[row(Sparse, FatTree, 16, 256 * KIB, [8_100, 8_100, 5_580, 1_721_440, 0xb671_62af_6385_4746]).results(0xf23f_9528_b19b_55b9)]);
}

#[test]
#[rustfmt::skip]
fn dense_star_32_hosts_of_8_mib() {
    check(&[row(Dense, Star, 32, 8 * MIB, [792_103, 792_103, 1_048_576, 545_259_520, 0x6808_f749_f22b_2207])]);
}

#[test]
#[rustfmt::skip]
fn dense_fat_tree_32_hosts_of_8_mib() {
    check(&[row(Dense, FatTree, 32, 8 * MIB, [694_397, 694_397, 1_179_648, 613_416_960, 0x23bc_98b3_15ce_78c5])]);
}

/// `benchmark`'s `dense_star` workload.
#[test]
#[rustfmt::skip]
fn dense_star_32_hosts_of_8_mib_hpu() {
    check(&[row(Dense, Star, 32, 8 * MIB, [694_924, 694_924, 1_048_576, 545_259_520, 0x4057_dec4_0495_f969]).hpu()]);
}

/// `benchmark`'s `dense_scale` workload: more hosts than blocks, so every
/// host sends its blocks in the same order and the root spine's pipeline
/// is the whole cost. Its ℛ is 7.09 blocks.
#[test]
#[rustfmt::skip]
fn dense_fat_tree_512_hosts_of_128_kib() {
    check(&[
        row(Dense, FatTree, 512, 128 * KIB, [25_739, 25_739, 294_912, 153_354_240, 0xfe41_20c7_da75_c747]).root_bound().admits(8),
        row(Dense, FatTree, 512, 128 * KIB, [26_115, 26_115, 294_912, 153_354_240, 0xaf89_96a5_3695_dee0]).starved_at(7),
    ]);
}

/// `benchmark`'s `pspin_switch` workload: one PsPIN unit, 64 ports,
/// 1 024 tree-aggregated f32 blocks, staggered to the tree's target `δc`,
/// with jittered arrivals. No fabric, so no network change can move it.
#[test]
fn pspin_switch_1024_blocks_of_f32() {
    use flare::core::wiring::SwitchRun;
    use flare::model::{dense, AggKind, SwitchParams};
    use flare::pspin::{PspinConfig, StaggerMode};
    let target = dense::target_delta_c(&SwitchParams::paper(), AggKind::Tree);
    let run = SwitchRun {
        cfg: PspinConfig::paper(),
        children: 64,
        blocks: 1024,
        stagger: StaggerMode::Target(target as u64),
        jitter: true,
        seed: 11,
    };
    let r = run.dense::<f32>(AggKind::Tree);
    let got = [
        r.duration_ns,
        r.packets_in,
        r.bytes_in,
        r.packets_out,
        r.bytes_out,
        r.drops,
        r.input_buffer_peak as u64,
        r.working_mem_peak as u64,
        r.queue_peak as u64,
        r.lock_wait_cycles,
        r.blocks_completed,
    ];
    #[rustfmt::skip]
    let want = [
        150_363, 65_536, 68_157_440, 1_024, 1_064_960, 0,
        3_747_120, 4_271_104, 3_091, 0, 1_024,
    ];
    assert_eq!(got, want);
    assert_eq!(r.ingress_tbps, 3.6262878500694984);
    // The benchmark's `sim_makespan_ns` is the duration; its
    // `sim_link_bytes` is this.
    assert_eq!(r.bytes_in + r.bytes_out, 69_222_400);
}

/// The 1 024-host cell: seconds in a debug build, so it runs optimised
/// with `--ignored`. Its ℛ is 4.04 blocks, so admission grants the floor of
/// 8; 5 would do.
#[test]
#[ignore]
#[rustfmt::skip]
fn dense_fat_tree_1024_hosts_of_128_kib() {
    check(&[
        row(Dense, FatTree, 1024, 128 * KIB, [50_315, 50_315, 589_824, 306_708_480, 0x534e_86b7_08ab_1f64]).root_bound().admits(8),
        row(Dense, FatTree, 1024, 128 * KIB, [50_315, 50_315, 589_824, 306_708_480, 0xdf55_3f72_6972_f349]).root_bound().window(5),
        row(Dense, FatTree, 1024, 128 * KIB, [50_656, 50_656, 589_824, 306_708_480, 0xa8ba_bf1b_0172_6d67]).starved_at(4),
    ]);
}
