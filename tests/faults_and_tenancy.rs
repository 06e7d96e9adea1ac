//! Fault handling and multi-tenancy through `FlareSession`:
//! * packet loss + host retransmission, absorbed by the switch-side child
//!   bitmaps and the completed-block result cache (paper Section 4.1),
//! * concurrent admitted collectives with distinct ids sharing switches
//!   (Section 4),
//! * admission control rerouting and rejection,
//! * the Horovod-style sequencer over collective handles.

use flare::core::collectives::Sequencer;
use flare::core::manager::AdmissionError;
use flare::prelude::*;

#[test]
fn lossy_links_recover_via_retransmission() {
    // 3% loss on every link; hosts retransmit overdue blocks and the
    // switch-side bitmaps absorb the duplicates.
    let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo)
        .link_drop_prob(0.03)
        .retransmit_after(Some(200_000))
        .seed(123)
        .build();
    let n = 1500usize;
    let inputs: Vec<Vec<i32>> = (0..4).map(|h| vec![h + 1; n]).collect();
    let want = golden_reduce(&Sum, &inputs);
    let out = session.allreduce(inputs).run().unwrap();
    assert!(
        out.report.drops() > 0,
        "loss injection must actually drop packets"
    );
    for r in out.ranks() {
        assert_eq!(*r, want);
    }
}

#[test]
fn concurrent_allreduces_do_not_mix() {
    // Two different tenant collectives share the same star switch; each
    // must produce its own correct result under its own allreduce id.
    let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo).build();
    let n = 800usize;
    let tenant_a = session.admit((n * 4) as u64, false).unwrap();
    let tenant_b = session.admit((n * 4) as u64, false).unwrap();
    assert_ne!(tenant_a.id(), tenant_b.id());
    assert_eq!(session.active_collectives(), 2);

    // Run them sequentially on separate simulations (the ids guarantee
    // handler separation; running both in one sim would need per-flow host
    // apps).
    let inputs_a: Vec<Vec<i32>> = (0..4).map(|h| vec![h; n]).collect();
    let inputs_b: Vec<Vec<i32>> = (0..4).map(|h| vec![10 * h; n]).collect();
    let want_a = golden_reduce(&Sum, &inputs_a);
    let want_b = golden_reduce(&Sum, &inputs_b);
    let res_a = session.allreduce(inputs_a).via(&tenant_a).run().unwrap();
    let res_b = session.allreduce(inputs_b).via(&tenant_b).run().unwrap();
    assert_eq!(res_a.rank(0), &want_a[..]);
    assert_eq!(res_b.rank(0), &want_b[..]);
    assert_eq!(res_a.report.collective, tenant_a.id());
    assert_eq!(res_b.report.collective, tenant_b.id());
    assert_eq!(
        session.active_collectives(),
        2,
        "handles persist until released"
    );
    session.release(tenant_a).unwrap();
    session.release(tenant_b).unwrap();
    assert_eq!(session.active_collectives(), 0);
}

#[test]
fn admission_fills_up_then_rejects_then_frees() {
    let (topo, sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
    // Each 8 KiB tree allreduce reserves M(tree, fanout 4) = 2 buffers ×
    // window 8 × 1 KiB = 16 KiB; budget exactly two of them.
    let mut session = FlareSession::builder(topo).switch_memory(33 << 10).build();
    let bytes = 8 << 10;
    let a = session.admit(bytes, false).unwrap();
    let b = session.admit(bytes, false).unwrap();
    let err = session.admit(bytes, false).unwrap_err();
    assert_eq!(
        err,
        SessionError::Admission(AdmissionError::NoTree),
        "single switch saturated"
    );
    assert!(session.reserved_on(sw) > 0);
    session.release(a).unwrap();
    let c = session.admit(bytes, false).unwrap();
    assert_ne!(b.id(), c.id());
}

#[test]
fn sequencer_prevents_cross_rank_deadlocks() {
    // Ranks issue the same two collectives in opposite orders (the paper's
    // Horovod deadlock scenario); the sequencer forces a common order over
    // the admitted handles.
    let (topo, _sw, _hosts) = Topology::star(4, LinkSpec::hundred_gig());
    let mut session = FlareSession::builder(topo).build();
    let mut grad2 = session.admit(4 << 10, false).unwrap();
    let mut grad1 = session.admit(4 << 10, false).unwrap();
    grad2.set_label("layer2.grad");
    grad1.set_label("layer1.grad");

    let mut seq = Sequencer::new();
    seq.submit_handles(0, &[&grad2, &grad1]);
    seq.submit_handles(1, &[&grad1, &grad2]);
    let order = seq.negotiate();
    assert_eq!(order, vec!["layer2.grad", "layer1.grad"]);
    session.release(grad2).unwrap();
    session.release(grad1).unwrap();
}
