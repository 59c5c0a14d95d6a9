//! Twin-server equivalence: incremental, dependency-indexed view
//! maintenance must be observationally identical to the flush-everything
//! oracle. Two converged networks absorb the same random fault script —
//! link failures and recoveries, metric moves, policy replacements — one
//! applying [`ViewDelta`]s in place, the other reinstalling every view
//! from scratch, and every synthesis request afterwards must agree.
//!
//! Equal *cost* (and equal reachability) is the right oracle, not equal
//! paths: two equal-cost routes can legitimately differ by Dijkstra
//! tie-breaking once one twin revalidates a stored route the other
//! recomputed. Each returned path is additionally checked legal at its
//! claimed cost against ground truth, so a cost match cannot hide an
//! illegal route.

use adroute::core::{OrwgNetwork, Strategy, ViewMaintenance};
use adroute::policy::legality::route_is_legal;
use adroute::policy::workload::PolicyWorkload;
use adroute::protocols::forwarding::sample_flows;
use adroute::topology::{AdId, HierarchyConfig, LinkId};
use proptest::prelude::*;

fn small_internet(seed: u64) -> adroute::topology::Topology {
    HierarchyConfig {
        backbones: 1,
        regionals_per_backbone: 2,
        metros_per_regional: 2,
        campuses_per_metro: 2,
        lateral_prob: 0.3,
        bypass_prob: 0.2,
        multihome_prob: 0.3,
        seed,
    }
    .generate()
}

/// One fault event, decoded from a raw proptest word so the vendored
/// strategy set (no tuples) suffices.
enum Op {
    Fail(LinkId),
    Restore(LinkId),
    Metric(LinkId, u32),
    Policy(AdId, u8, u64),
}

fn decode(word: u64, num_links: usize, num_ads: usize) -> Op {
    let kind = word & 3;
    let raw = (word >> 2) as usize;
    match kind {
        0 => Op::Fail(LinkId((raw % num_links) as u32)),
        1 => Op::Restore(LinkId((raw % num_links) as u32)),
        2 => Op::Metric(
            LinkId((raw % num_links) as u32),
            1 + (word >> 40) as u32 % 19,
        ),
        _ => Op::Policy(
            AdId((raw % num_ads) as u32),
            1 + ((word >> 40) % 3) as u8,
            word >> 16,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every request answered after every event of a random fault script
    /// agrees between the incremental twin and the flush oracle.
    #[test]
    fn incremental_twin_matches_flush_oracle(
        seed in 0u64..200,
        script in proptest::collection::vec(0u64..u64::MAX, 1..10),
    ) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::default_mix(seed).generate(&topo);
        let flows = sample_flows(&topo, 10, seed ^ 0x7);
        let mk = |mode| {
            let mut n = OrwgNetwork::converged_with(
                &topo, &db, Strategy::Hybrid { capacity: 32 }, 1024);
            n.set_view_maintenance(mode);
            // Half the flows live in the precomputed tables, half only in
            // the LRU caches, so both invalidation paths are exercised.
            for f in &flows[..flows.len() / 2] {
                let src = f.src;
                n.server_mut(src).precompute(&[*f]);
            }
            n
        };
        let mut inc = mk(ViewMaintenance::Incremental);
        let mut flush = mk(ViewMaintenance::Flush);
        for f in &flows {
            let _ = inc.synthesize(f);
            let _ = flush.synthesize(f);
        }
        for word in script {
            match decode(word, topo.num_links(), topo.num_ads()) {
                Op::Fail(l) => {
                    inc.fail_link(l);
                    flush.fail_link(l);
                }
                Op::Restore(l) => {
                    inc.restore_link(l);
                    flush.restore_link(l);
                }
                Op::Metric(l, m) => {
                    inc.change_metric(l, m);
                    flush.change_metric(l, m);
                }
                Op::Policy(ad, g, pseed) => {
                    // Replace one AD's policy with the same AD's policy
                    // from a different workload: sometimes a genuine
                    // restriction, sometimes expansive, so both halves of
                    // the delta classifier run.
                    let p = PolicyWorkload::granularity(g, pseed)
                        .generate(&topo)
                        .policy(ad)
                        .clone();
                    inc.change_policy(p.clone());
                    flush.change_policy(p);
                }
            }
            for f in &flows {
                let a = inc.synthesize(f);
                let b = flush.synthesize(f);
                match (&a, &b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        prop_assert_eq!(
                            x.cost, y.cost,
                            "cost diverged for {} (incremental {:?} vs flush {:?})",
                            f, x.path, y.path
                        );
                        prop_assert_eq!(
                            route_is_legal(inc.topo(), inc.policies(), f, &x.path),
                            Some(x.cost),
                            "incremental route for {} is not legal at its cost", f
                        );
                        prop_assert_eq!(
                            route_is_legal(flush.topo(), flush.policies(), f, &y.path),
                            Some(y.cost),
                            "flush route for {} is not legal at its cost", f
                        );
                    }
                    _ => prop_assert!(
                        false,
                        "reachability diverged for {}: incremental {:?}, flush {:?}",
                        f, a.map(|r| r.path), b.map(|r| r.path)
                    ),
                }
            }
        }
    }

    /// Cache coherence across the two-tier store: view deltas invalidate
    /// hot-tier entries atomically with the LRU they front, so after a
    /// random fault script every stored-state answer — the hot tier is
    /// probed first — is legal under the *current* view, and the
    /// background-precompute scheduler refills only entries the current
    /// view revalidates. A stale hot handle surviving its LRU entry's
    /// invalidation would surface here as an illegal served route; the
    /// invariant itself (every hot handle shadowed by an equal LRU entry)
    /// is checked on every server after every operation.
    #[test]
    fn hot_tier_and_refills_stay_view_coherent(
        seed in 0u64..150,
        script in proptest::collection::vec(0u64..u64::MAX, 1..8),
    ) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::default_mix(seed).generate(&topo);
        let flows = sample_flows(&topo, 16, seed ^ 0x11);
        let mut net = OrwgNetwork::converged_with(
            &topo, &db, Strategy::Hybrid { capacity: 32 }, 1024);
        net.set_view_maintenance(ViewMaintenance::Incremental);
        // Warm through the request path: every answer lands in the LRU
        // *and* the hot tier fronting it.
        let coherent = |net: &OrwgNetwork| {
            topo.ad_ids().all(|ad| net.server(ad).hot_tier_is_coherent())
        };
        for f in &flows {
            let _ = net.synthesize(f);
        }
        prop_assert!(coherent(&net), "unshadowed hot handle after warm-up");
        for word in script {
            match decode(word, topo.num_links(), topo.num_ads()) {
                Op::Fail(l) => net.fail_link(l),
                Op::Restore(l) => net.restore_link(l),
                Op::Metric(l, m) => net.change_metric(l, m),
                Op::Policy(ad, g, pseed) => {
                    let p = PolicyWorkload::granularity(g, pseed)
                        .generate(&topo)
                        .policy(ad)
                        .clone();
                    net.change_policy(p);
                }
            }
            prop_assert!(coherent(&net), "unshadowed hot handle after a delta");
            // Run the background-precompute scheduler over the entries
            // the delta invalidated, then check every stored-state
            // answer (refilled or surviving) against the current view.
            for ad in topo.ad_ids() {
                net.background_refill(ad, 64);
            }
            prop_assert!(coherent(&net), "unshadowed hot handle after refills");
            for f in &flows {
                if let Some(Some(r)) = net.server_mut(f.src).stored_route(f) {
                    prop_assert_eq!(
                        route_is_legal(net.topo(), net.policies(), f, &r.path),
                        Some(r.cost),
                        "stored tier served a view-stale route for {}", f
                    );
                }
            }
            prop_assert!(coherent(&net), "unshadowed hot handle after probes");
        }
    }
}
