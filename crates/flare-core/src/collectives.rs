//! The Horovod-style collective sequencer (paper Section 8).
//!
//! [`Sequencer`] resolves the deadlock the paper describes for frameworks
//! like Horovod, where ranks issue multiple outstanding allreduces in
//! different orders: it computes the unique execution order all ranks must
//! follow (the set of operations ready on every rank, in rank-0 issue
//! order). It accepts [`crate::session::CollectiveHandle`]s directly via
//! [`Sequencer::submit_handles`]. Running a collective is the
//! [`crate::session`] module's job.

use crate::session::CollectiveHandle;

/// Horovod-style collective sequencer (paper Section 8): ranks may issue
/// outstanding collectives in different orders, which can deadlock an
/// in-order fabric. The sequencer computes the order every rank must
/// execute: operations ready on *all* ranks, in rank-0 issue order.
#[derive(Debug, Default)]
pub struct Sequencer {
    submissions: Vec<Vec<String>>,
}

impl Sequencer {
    /// New empty negotiation round.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the ordered op names rank `rank` wants to execute.
    pub fn submit(&mut self, rank: usize, ops: &[&str]) {
        if self.submissions.len() <= rank {
            self.submissions.resize_with(rank + 1, Vec::new);
        }
        self.submissions[rank] = ops.iter().map(|s| s.to_string()).collect();
    }

    /// Record the admitted collectives rank `rank` wants to execute, in
    /// issue order. Handles are identified by their labels (see
    /// [`CollectiveHandle::set_label`]).
    pub fn submit_handles(&mut self, rank: usize, handles: &[&CollectiveHandle]) {
        let names: Vec<&str> = handles.iter().map(|h| h.label()).collect();
        self.submit(rank, &names);
    }

    /// The agreed execution order: ops present on every rank, in rank-0
    /// issue order. Ops missing somewhere stay pending for a later round.
    pub fn negotiate(&self) -> Vec<String> {
        let Some(first) = self.submissions.first() else {
            return Vec::new();
        };
        first
            .iter()
            .filter(|op| self.submissions.iter().all(|s| s.contains(op)))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequencer_orders_by_rank0_and_requires_all_ranks() {
        let mut seq = Sequencer::new();
        seq.submit(0, &["grad_a", "grad_b", "grad_c"]);
        seq.submit(1, &["grad_c", "grad_a"]);
        seq.submit(2, &["grad_a", "grad_c", "grad_d"]);
        // grad_b and grad_d are not ready everywhere.
        assert_eq!(seq.negotiate(), vec!["grad_a", "grad_c"]);
    }

    #[test]
    fn sequencer_empty_cases() {
        let seq = Sequencer::new();
        assert!(seq.negotiate().is_empty());
        let mut seq = Sequencer::new();
        seq.submit(0, &["x"]);
        seq.submit(1, &[]);
        assert!(seq.negotiate().is_empty());
    }

    #[test]
    fn sequencer_identical_orders_pass_through() {
        let mut seq = Sequencer::new();
        seq.submit(0, &["a", "b"]);
        seq.submit(1, &["b", "a"]);
        assert_eq!(seq.negotiate(), vec!["a", "b"], "rank-0 order wins");
    }

    #[test]
    fn sequencer_accepts_collective_handles() {
        use crate::session::FlareSession;
        use flare_net::{LinkSpec, Topology};

        let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
        let mut session = FlareSession::builder(topo).build();
        let mut a = session.admit(4 << 10, false).unwrap();
        let mut b = session.admit(4 << 10, false).unwrap();
        a.set_label("layer2.grad");
        b.set_label("layer1.grad");
        let mut seq = Sequencer::new();
        // Rank 0 issues layer2 before layer1; rank 1 the other way round —
        // the paper's Horovod deadlock scenario.
        seq.submit_handles(0, &[&a, &b]);
        seq.submit_handles(1, &[&b, &a]);
        assert_eq!(seq.negotiate(), vec!["layer2.grad", "layer1.grad"]);
        session.release(a).unwrap();
        session.release(b).unwrap();
    }
}
