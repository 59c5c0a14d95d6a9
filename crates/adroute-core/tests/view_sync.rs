//! Differential test of per-origin view re-sync.
//!
//! `OrwgNetwork::refresh_from_engine` re-syncs each Route Server from its
//! AD's flooded database by diffing only the origins whose LSA changed
//! since the server's last sync (`RouteServer::sync_from`). The oracle
//! here is the plain full-view diff: materialize `LsDb::view()` and walk
//! every link and every policy against the server's current view. Before
//! every refresh each server's per-origin delta vector must equal the
//! oracle's, element for element and in order; after every refresh each
//! view must agree with `LsDb::view()` on link state, metrics and
//! policies.
//!
//! The script mixes everything that moves LSAs or views: link failures
//! and restorations, `run_until` stops in the middle of a flood,
//! partitions that heal, router crashes whose restart starts a fresh
//! database (and provokes sequence-number jumps against the ghosts of the
//! previous incarnation), and out-of-band `fail_link` / `restore_link` /
//! `change_policy` on the network, under either view-maintenance mode,
//! between refreshes. The out-of-band changes are the ones that must
//! detach a server's view from its synced LSAs.

use std::sync::Arc;

use adroute_core::{OrwgNetwork, OrwgProtocol, RouteServer, Strategy, ViewDelta, ViewMaintenance};
use adroute_policy::workload::PolicyWorkload;
use adroute_policy::{PolicyDb, TransitPolicy};
use adroute_protocols::forwarding::sample_flows;
use adroute_protocols::linkstate::{LsDb, Lsa};
use adroute_sim::faults::FaultPlan;
use adroute_sim::Engine;
use adroute_topology::{AdId, AdLevel, HierarchyConfig, LinkId, TopoDelta, Topology};
use proptest::prelude::*;

fn small_internet(seed: u64) -> Topology {
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

/// The oracle: the deltas taking view `(old_t, old_d)` to the
/// materialized view `(new_t, new_d)`, or `None` when the old structure
/// lacks a link of the new view. New-view links in link-id order (which
/// is `LsDb::view`'s origin/LSA-position order), then old up links the
/// new view lacks, then policies in AD order.
fn diff_views(
    old_t: &Topology,
    old_d: &PolicyDb,
    new_t: &Topology,
    new_d: &PolicyDb,
) -> Option<Vec<ViewDelta>> {
    if new_t.num_ads() != old_t.num_ads() {
        return None;
    }
    let mut deltas = Vec::new();
    for l in new_t.links() {
        let old = old_t.link(old_t.link_between(l.a, l.b)?);
        if old.up != l.up {
            deltas.push(ViewDelta::Topo(TopoDelta::LinkState {
                a: l.a,
                b: l.b,
                up: l.up,
            }));
        }
        if old.metric != l.metric {
            deltas.push(ViewDelta::Topo(TopoDelta::Metric {
                a: l.a,
                b: l.b,
                metric: l.metric,
            }));
        }
    }
    for l in old_t.links() {
        if l.up && new_t.link_between(l.a, l.b).is_none() {
            deltas.push(ViewDelta::Topo(TopoDelta::LinkState {
                a: l.a,
                b: l.b,
                up: false,
            }));
        }
    }
    for ad in new_t.ad_ids() {
        if new_d.policy(ad) != old_d.policy(ad) {
            deltas.push(ViewDelta::Policy(new_d.policy(ad).clone()));
        }
    }
    Some(deltas)
}

fn lsdb(e: &Engine<OrwgProtocol>, ad: AdId) -> &LsDb {
    &e.router(ad).flooder.db
}

/// The server's per-origin delta vector equals the full-view oracle's.
fn check_deltas(s: &RouteServer, db: &LsDb) -> Result<(), String> {
    let (vt, vd) = db.view();
    let oracle = diff_views(s.view_topo(), s.view_db(), &vt, &vd);
    let ours = s.sync_deltas(db);
    if ours != oracle {
        return Err(format!(
            "{}: per-origin {ours:?} vs oracle {oracle:?}",
            s.ad
        ));
    }
    Ok(())
}

/// The server's view agrees with the database's materialized view:
/// exactly the confirmed links are up, at the confirmed metric, and every
/// policy matches.
fn check_view(s: &RouteServer, db: &LsDb) -> Result<(), String> {
    let ad = s.ad;
    let (vt, vd) = db.view();
    for l in vt.links() {
        let ours = s
            .view_topo()
            .link_between(l.a, l.b)
            .map(|id| s.view_topo().link(id));
        match ours {
            Some(o) if o.up && o.metric == l.metric => {}
            _ => return Err(format!("{ad}: link {}-{} not up at {}", l.a, l.b, l.metric)),
        }
    }
    for l in s.view_topo().links().filter(|l| l.up) {
        if vt.link_between(l.a, l.b).is_none() {
            return Err(format!("{ad}: link {}-{} up but unconfirmed", l.a, l.b));
        }
    }
    for p in vt.ad_ids() {
        if s.view_db().policy(p) != vd.policy(p) {
            return Err(format!("{ad}: policy of {p} differs"));
        }
    }
    Ok(())
}

/// Oracle check on every server, refresh, view check on every server.
fn refresh_checked(net: &mut OrwgNetwork, e: &Engine<OrwgProtocol>) -> Result<(), String> {
    for ad in e.topo().ad_ids() {
        check_deltas(net.server(ad), lsdb(e, ad))?;
    }
    net.refresh_from_engine(e);
    for ad in e.topo().ad_ids() {
        check_view(net.server(ad), lsdb(e, ad))?;
    }
    Ok(())
}

/// Splits a proptest word into a stream of small draws.
struct Draws(u64);

impl Draws {
    fn next(&mut self, n: u64) -> u64 {
        // SplitMix64.
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// A hand-made LSA for `origin`: a random sorted subset of the other ADs
/// at random metrics (each endpoint advertises its own, so the two ends
/// of an adjacency may disagree), and a permissive or deny-all policy.
fn random_lsa(origin: usize, seq: u64, n: usize, d: &mut Draws) -> Arc<Lsa> {
    let mut links = Vec::new();
    for j in 0..n {
        if j != origin && d.next(3) == 0 {
            links.push((AdId(j as u32), 1 + d.next(4) as u32, 1_000));
        }
    }
    let me = AdId(origin as u32);
    Arc::new(Lsa {
        origin: me,
        seq,
        level: AdLevel::Campus,
        links,
        policy: if d.next(4) == 0 {
            TransitPolicy::deny_all(me)
        } else {
            TransitPolicy::permit_all(me)
        },
    })
}

/// `lsa` re-originated with one adjacency's metric moved: the change only
/// an entry-by-entry comparison of the two LSAs can see.
fn remetric(lsa: &Lsa, d: &mut Draws) -> Arc<Lsa> {
    let mut next = Lsa {
        seq: lsa.seq + 1,
        ..lsa.clone()
    };
    if !next.links.is_empty() {
        let i = d.next(next.links.len() as u64) as usize;
        next.links[i].1 = 1 + (next.links[i].1 + d.next(3) as u32) % 5;
    }
    Arc::new(next)
}

/// One script step, decoded from a raw proptest word so the vendored
/// strategy set (no tuples) suffices.
fn step(
    net: &mut OrwgNetwork,
    e: &mut Engine<OrwgProtocol>,
    topo: &Topology,
    word: u64,
) -> Result<(), String> {
    let raw = (word >> 3) as usize;
    let link = LinkId((raw % topo.num_links()) as u32);
    let ad = AdId((raw % topo.num_ads()) as u32);
    let at = e.now().plus_us(1_000);
    let later = at.plus_us(1_000 + (word >> 40) % 20_000);
    match word & 7 {
        0 => e.schedule_link_change(link, false, at),
        1 => e.schedule_link_change(link, true, at),
        2 => {
            let split = 1 + (raw % (topo.num_ads() - 1)) as u32;
            if let Some(plan) = FaultPlan::partition(e.topo(), split, at, later) {
                plan.apply(e);
            }
        }
        3 => {
            e.schedule_router_change(ad, false, at);
            e.schedule_router_change(ad, true, later);
        }
        4 => net.fail_link(link),
        5 => net.restore_link(link),
        6 if (word >> 61) & 1 == 1 => net.change_metric(link, 1 + (word >> 40) as u32 % 9),
        6 => {
            let p = PolicyWorkload::granularity(1 + (word >> 40) as u8 % 3, word >> 16)
                .generate(topo)
                .policy(ad)
                .clone();
            net.change_policy(p);
        }
        _ => {
            // Out-of-band under the flush mode: full installs of ground
            // truth, then back to incremental sync.
            net.set_view_maintenance(ViewMaintenance::Flush);
            net.fail_link(link);
            net.set_view_maintenance(ViewMaintenance::Incremental);
        }
    }
    // Advance: to quiescence, or stop part-way through the flood.
    if (word >> 60) & 1 == 0 {
        e.run_to_quiescence();
    } else {
        e.run_until(at.plus_us((word >> 20) % 3_000));
    }
    refresh_checked(net, e)
}

fn network(e: &Engine<OrwgProtocol>, seed: u64) -> OrwgNetwork {
    let mut net = OrwgNetwork::from_engine(e, Strategy::Cached { capacity: 32 }, 1024);
    // Stored routes make the sync's invalidations do real work.
    for f in &sample_flows(e.topo(), 12, seed ^ 0x5) {
        let _ = net.open_repairable(f);
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Per-origin sync emits exactly the full-view diff, and lands every
    /// view on its database's view, through a random fault script.
    #[test]
    fn per_origin_sync_matches_the_full_view_diff(
        seed in 0u64..300,
        script in proptest::collection::vec(0u64..u64::MAX, 1..14),
    ) {
        let topo = small_internet(seed);
        let db = PolicyWorkload::default_mix(seed).generate(&topo);
        let mut e = Engine::new(topo.clone(), OrwgProtocol::new(&topo, db));
        e.run_to_quiescence();
        let mut net = network(&e, seed);
        for word in script {
            let r = step(&mut net, &mut e, &topo, word);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
        e.run_to_quiescence();
        let r = refresh_checked(&mut net, &e);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same differential check on hand-made databases, which reach
    /// what flooding over a real topology does not: one-sided
    /// adjacencies, endpoints advertising different metrics for one link,
    /// metric-only re-originations, and a server re-pointed at a fresh
    /// database that shares only some of the old one's LSAs.
    #[test]
    fn per_origin_sync_matches_the_full_view_diff_on_any_lsas(
        seed in 0u64..u64::MAX,
        script in proptest::collection::vec(0u64..u64::MAX, 1..24),
    ) {
        let mut d = Draws(seed);
        let n = 5 + d.next(5) as usize;
        let mut db = LsDb::new(n);
        for o in 0..n {
            if d.next(4) != 0 {
                db.insert(random_lsa(o, 1, n, &mut d));
            }
        }
        let mut rs = RouteServer::from_lsdb(AdId(0), &db, Strategy::Cached { capacity: 8 });
        for word in script {
            let mut w = Draws(word);
            let o = w.next(n as u64) as usize;
            let seq = db.get(AdId(o as u32)).map_or(1, |l| l.seq + 1);
            match w.next(6) {
                0 | 1 => {
                    db.insert(random_lsa(o, seq, n, &mut w));
                }
                2 => {
                    if let Some(l) = db.get(AdId(o as u32)).cloned() {
                        db.insert(remetric(&l, &mut w));
                    }
                }
                3 => {
                    // A fresh database: some LSAs carried over (the same
                    // shared copies), some re-learned anew, some missing.
                    let mut fresh = LsDb::new(n);
                    for p in 0..n {
                        match (w.next(3), db.get(AdId(p as u32))) {
                            (0, Some(l)) => {
                                fresh.insert(l.clone());
                            }
                            (1, _) => {
                                fresh.insert(random_lsa(p, seq, n, &mut w));
                            }
                            _ => {}
                        }
                    }
                    db = fresh;
                }
                4 => {
                    // Out of band: a delta the database never produced.
                    let pick = rs.view_topo().links().nth(w.next(8) as usize).map(|l| (l.a, l.b, !l.up));
                    if let Some((a, b, up)) = pick {
                        rs.apply_delta(&ViewDelta::Topo(if w.next(2) == 0 {
                            TopoDelta::LinkState { a, b, up }
                        } else {
                            TopoDelta::Metric { a, b, metric: 1 + w.next(5) as u32 }
                        }));
                    }
                }
                _ => {
                    // Out of band: a full install of some other view.
                    let mut other = LsDb::new(n);
                    for p in 0..n {
                        other.insert(random_lsa(p, 1, n, &mut w));
                    }
                    let (t, pols) = other.view();
                    rs.update_view(t, pols);
                }
            }
            let r = check_deltas(&rs, &db);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
            rs.sync_from(&db);
            let r = check_view(&rs, &db);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
    }
}

/// A router that crashes and restarts mid-flood comes back with an empty
/// database and sequence number 1; its neighbors still hold its previous
/// incarnation's LSAs, so it jumps past them. Every refresh along the way
/// matches the oracle.
#[test]
fn crash_restart_and_seq_jumps_resync_exactly() {
    let topo = small_internet(7);
    let db = PolicyWorkload::default_mix(7).generate(&topo);
    let mut e = Engine::new(topo.clone(), OrwgProtocol::new(&topo, db));
    e.run_to_quiescence();
    let mut net = network(&e, 7);
    let hub = topo
        .ad_ids()
        .max_by_key(|&ad| topo.degree(ad))
        .expect("non-empty topology");
    // Flap a hub link until the hub's sequence number is well past what
    // its restart will reach by itself (one origination per adjacency).
    let (_, l) = topo.neighbors(hub).next().expect("the hub has a link");
    while e.router(hub).flooder.seq <= 2 * topo.degree(hub) as u64 + 2 {
        let t = e.now().plus_us(1_000);
        e.schedule_link_change(l, false, t);
        e.schedule_link_change(l, true, t.plus_us(5_000));
        e.run_to_quiescence();
    }
    refresh_checked(&mut net, &e).unwrap();
    let t = e.now().plus_us(1_000);
    e.schedule_router_change(hub, false, t);
    e.schedule_router_change(hub, true, t.plus_us(3_000));
    for k in 1..=12 {
        e.run_until(t.plus_us(k * 700));
        refresh_checked(&mut net, &e).unwrap();
    }
    e.run_to_quiescence();
    refresh_checked(&mut net, &e).unwrap();
    assert!(
        e.stats.counter("ls_seq_jump") > 0,
        "no ghost was superseded"
    );
    assert!(e.router(hub).flooder.seq > 1);
}

/// An out-of-band change the engine never saw is undone by the next
/// refresh: the detached snapshot makes the sync examine every origin.
#[test]
fn out_of_band_changes_are_reverted_by_the_next_refresh() {
    let topo = small_internet(3);
    let db = PolicyWorkload::default_mix(3).generate(&topo);
    let mut e = Engine::new(topo.clone(), OrwgProtocol::new(&topo, db.clone()));
    e.run_to_quiescence();
    let mut net = network(&e, 3);
    let link = topo.links().next().expect("a link").id;
    let (a, b) = (topo.link(link).a, topo.link(link).b);
    net.fail_link(link);
    let down = |net: &OrwgNetwork| {
        let v = net.server(AdId(0)).view_topo();
        !v.link(v.link_between(a, b).unwrap()).up
    };
    assert!(down(&net));
    refresh_checked(&mut net, &e).unwrap();
    assert!(!down(&net), "refresh left the out-of-band failure in place");

    let other = if *db.policy(b) == TransitPolicy::deny_all(b) {
        TransitPolicy::permit_all(b)
    } else {
        TransitPolicy::deny_all(b)
    };
    net.change_policy(other);
    assert_ne!(net.server(AdId(0)).view_db().policy(b), db.policy(b));
    refresh_checked(&mut net, &e).unwrap();
    assert_eq!(net.server(AdId(0)).view_db().policy(b), db.policy(b));
}
