//! Figure 5: the three scheduling scenarios — queue build-up as a function
//! of the subset size `S` and the intra-block interarrival `δc` — printed
//! as one table whose rows [`fig05_net`] computes three ways (closed-form
//! model, `NetSim` switch compute, PsPIN engine).

use crate::{fig05_net, table, Scale};

/// Print the scenarios, each cross-validated three ways.
pub fn print(_: Scale) {
    println!("Figure 5: hierarchical FCFS scheduling scenarios (K=4, tau=4, delta=1, P=4)");
    println!();
    println!("A: global FCFS; B: per-block core pinning builds bursts;");
    println!("C: staggered sending keeps pinning without the queues.");
    println!();
    println!("Cross-validation: NetSim switch-compute (SwitchModel::Hpu) vs model vs engine");
    println!();
    let columns: &[table::Column<fig05_net::Row>] = &[
        ("scenario", |r| r.scenario.to_string()),
        ("S", |r| r.s.to_string()),
        ("model B (pkt/cyc)", |r| format!("{:.2}", r.model_bandwidth)),
        ("DES B (pkt/ns)", |r| format!("{:.3}", r.des_bandwidth)),
        ("model Q/core", |r| format!("{:.1}", r.model_q)),
        ("DES queue peak", |r| r.des_queue_peak.to_string()),
        ("engine queue peak", |r| r.engine_queue_peak.to_string()),
    ];
    table::print(fig05_net::rows(256), columns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_match_the_paper() {
        let rows = fig05_net::rows(4);
        // A: no queueing; B: Q=3 per core (bursts); C: staggering removes it.
        assert_eq!(rows[0].model_q, 0.0);
        assert_eq!(rows[1].model_q, 3.0);
        assert_eq!(rows[2].model_q, 0.0);
        // Every column of the table agrees on which scenarios queue.
        for row in &rows {
            let queues = row.model_q > 0.0;
            assert_eq!(row.des_queue_peak > 0, queues, "{}", row.scenario);
            assert_eq!(row.engine_queue_peak > 0, queues, "{}", row.scenario);
        }
    }
}
