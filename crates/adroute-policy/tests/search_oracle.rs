//! Differential test of the policy-route search against its plain
//! reference: the `HashMap`-keyed `(current AD, previous AD)` Dijkstra the
//! link-indexed, epoch-stamped search replaced, kept here verbatim (plus a
//! revisit-fallback counter) as the oracle.
//!
//! The fast search must return the same `(path, cost)` and the same
//! `settled`/`relaxations` counters as the oracle, solo and for every
//! destination of a sweep. Each property case alternates searches over two
//! topologies of different size on one thread, so the per-thread scratch
//! grows between searches and meets stale stamps from the other topology.

use adroute_policy::legality::{self, SearchStats};
use adroute_policy::terms::{AdSet, PolicyAction, PolicyCondition, RouteSelection, TransitPolicy};
use adroute_policy::{FlowSpec, PolicyDb, QosClass};
use adroute_topology::{AdId, HierarchyConfig, LinkId, Topology};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod oracle {
    use std::cell::Cell;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    use adroute_policy::legality::{
        legal_route_bruteforce, route_is_legal, LegalRoute, SearchStats,
    };
    use adroute_policy::terms::RouteSelection;
    use adroute_policy::{FlowSpec, PolicyDb};
    use adroute_topology::{AdId, Topology};

    thread_local! {
        /// Walks that revisited an AD and fell back to the simple-path
        /// search, so the property can show it exercised that branch.
        pub static FALLBACKS: Cell<u64> = const { Cell::new(0) };
    }

    pub fn legal_route_with(
        topo: &Topology,
        db: &PolicyDb,
        flow: &FlowSpec,
        selection: &RouteSelection,
        stats: &mut SearchStats,
    ) -> Option<LegalRoute> {
        if flow.src == flow.dst {
            return Some(LegalRoute {
                path: vec![flow.src],
                cost: 0,
            });
        }
        let n = topo.num_ads();
        if flow.src.index() >= n || flow.dst.index() >= n {
            return None;
        }

        // State: (current AD, previous AD). Start state uses prev = current
        // (sentinel, never consulted because the source's own policy is not
        // evaluated).
        type State = (AdId, AdId);
        let start: State = (flow.src, flow.src);
        let mut dist: HashMap<State, u64> = HashMap::new();
        let mut parent: HashMap<State, State> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(u64, AdId, AdId)>> = BinaryHeap::new();
        dist.insert(start, 0);
        heap.push(Reverse((0, flow.src, flow.src)));

        let mut best_final: Option<(u64, State)> = None;

        while let Some(Reverse((cost, cur, prev))) = heap.pop() {
            let state = (cur, prev);
            if dist.get(&state).is_none_or(|&d| cost > d) {
                continue;
            }
            stats.settled += 1;
            if cur == flow.dst {
                best_final = Some((cost, state));
                break; // first settle of dst is optimal
            }
            for (nbr, link) in topo.neighbors(cur) {
                stats.relaxations += 1;
                if nbr == prev && cur != flow.src {
                    continue; // immediate backtrack is never useful
                }
                // The *current* AD (if transit) must permit forwarding from
                // `prev` to `nbr`.
                let transit_cost = if cur == flow.src {
                    0
                } else {
                    match db.policy(cur).evaluate(flow, Some(prev), Some(nbr)) {
                        Some(c) => u64::from(c),
                        None => continue,
                    }
                };
                // Source route-selection: never transit an avoided AD.
                if nbr != flow.dst && !selection.allows_transit(nbr) {
                    continue;
                }
                let ncost = cost + u64::from(topo.link(link).metric) + transit_cost;
                let nstate: State = (nbr, cur);
                if dist.get(&nstate).is_none_or(|&d| ncost < d) {
                    dist.insert(nstate, ncost);
                    parent.insert(nstate, state);
                    heap.push(Reverse((ncost, nbr, cur)));
                }
            }
        }

        let (cost, final_state) = best_final?;
        // Reconstruct.
        let mut path = Vec::new();
        let mut cur = final_state;
        loop {
            path.push(cur.0);
            if cur == start {
                break;
            }
            cur = parent[&cur];
        }
        path.reverse();

        // The (current, previous) state graph searches *walks*; with policies
        // conditioned on the previous AD the optimal walk can, in adversarial
        // cases, revisit an AD. Inter-AD routes must be loop-free (paper
        // Section 2.1), so fall back to an exact simple-path search when that
        // happens. The walk cost is a valid lower bound for pruning.
        let has_revisit = {
            let mut seen = std::collections::HashSet::new();
            path.iter().any(|a| !seen.insert(*a))
        };
        let route = if has_revisit {
            FALLBACKS.set(FALLBACKS.get() + 1);
            legal_route_bruteforce(topo, db, flow)?
        } else {
            LegalRoute { path, cost }
        };

        if selection.accepts(&route.path, route.cost) {
            return Some(route);
        }
        // The least-cost route violated the source's criteria. If a hop bound
        // is the problem, retry minimizing hops instead of cost (best-effort:
        // the full bicriteria problem is out of scope for the oracle).
        if selection.max_hops.is_some() {
            if let Some(r) = legal_route_min_hops(topo, db, flow, selection) {
                if selection.accepts(&r.path, r.cost) {
                    return Some(r);
                }
            }
        }
        None
    }

    pub fn legal_routes_sweep(
        topo: &Topology,
        db: &PolicyDb,
        template: &FlowSpec,
        dsts: &[AdId],
        selection: &RouteSelection,
    ) -> Vec<(Option<LegalRoute>, SearchStats)> {
        let flow_for = |d: AdId| FlowSpec {
            dst: d,
            ..*template
        };
        let solo = |d: AdId| {
            let f = flow_for(d);
            let mut st = SearchStats::default();
            let r = legal_route_with(topo, db, &f, selection, &mut st);
            (r, st)
        };
        // A dst-conditioned Policy Term makes transit evaluation vary across
        // the batch: no sharing is sound.
        if db.dst_sensitive() {
            return dsts.iter().map(|&d| solo(d)).collect();
        }

        let n = topo.num_ads();
        let src = template.src;
        let mut out: Vec<Option<(Option<LegalRoute>, SearchStats)>> = vec![None; dsts.len()];
        // Destinations the shared search will answer, by index. Trivial and
        // out-of-range flows never search; avoided destinations get private
        // searches (for them `nbr != dst` admits an otherwise-avoided AD).
        let mut swept: Vec<(usize, AdId)> = Vec::new();
        for (i, &d) in dsts.iter().enumerate() {
            if d == src {
                out[i] = Some((
                    Some(LegalRoute {
                        path: vec![src],
                        cost: 0,
                    }),
                    SearchStats::default(),
                ));
            } else if src.index() >= n || d.index() >= n {
                out[i] = Some((None, SearchStats::default()));
            } else if !selection.allows_transit(d) {
                out[i] = Some(solo(d));
            } else {
                swept.push((i, d));
            }
        }

        if !swept.is_empty() {
            // Same loop as `legal_route_with`, minus the break at the (single)
            // destination: instead, snapshot effort at each destination's
            // first settle. Policy evaluation uses an arbitrary batch flow —
            // sound because `db` is not dst-sensitive (checked above).
            type State = (AdId, AdId);
            let probe = flow_for(swept[0].1);
            let start: State = (src, src);
            let mut dist: HashMap<State, u64> = HashMap::new();
            let mut parent: HashMap<State, State> = HashMap::new();
            let mut heap: BinaryHeap<Reverse<(u64, AdId, AdId)>> = BinaryHeap::new();
            dist.insert(start, 0);
            heap.push(Reverse((0, src, src)));

            let mut stats = SearchStats::default();
            // First-settle snapshot per destination AD: final state plus the
            // effort counters a solo run would have reported at its break.
            let mut settle: HashMap<AdId, (State, SearchStats)> = HashMap::new();
            let mut remaining: usize = {
                let mut uniq: Vec<AdId> = swept.iter().map(|&(_, d)| d).collect();
                uniq.sort_unstable();
                uniq.dedup();
                uniq.len()
            };
            let wanted: std::collections::HashSet<AdId> = swept.iter().map(|&(_, d)| d).collect();

            while let Some(Reverse((cost, cur, prev))) = heap.pop() {
                let state = (cur, prev);
                if dist.get(&state).is_none_or(|&d| cost > d) {
                    continue;
                }
                stats.settled += 1;
                if wanted.contains(&cur) && !settle.contains_key(&cur) {
                    // Solo for `cur` breaks exactly here, after counting this
                    // pop but before relaxing its edges.
                    settle.insert(cur, (state, stats));
                    remaining -= 1;
                    if remaining == 0 {
                        break;
                    }
                }
                for (nbr, link) in topo.neighbors(cur) {
                    stats.relaxations += 1;
                    if nbr == prev && cur != src {
                        continue;
                    }
                    let transit_cost = if cur == src {
                        0
                    } else {
                        match db.policy(cur).evaluate(&probe, Some(prev), Some(nbr)) {
                            Some(c) => u64::from(c),
                            None => continue,
                        }
                    };
                    // Swept destinations are never avoided, so the solo test
                    // `nbr != dst && !allows_transit(nbr)` reduces to this for
                    // every flow in the batch.
                    if !selection.allows_transit(nbr) {
                        continue;
                    }
                    let ncost = cost + u64::from(topo.link(link).metric) + transit_cost;
                    let nstate: State = (nbr, cur);
                    if dist.get(&nstate).is_none_or(|&d| ncost < d) {
                        dist.insert(nstate, ncost);
                        parent.insert(nstate, state);
                        heap.push(Reverse((ncost, nbr, cur)));
                    }
                }
            }

            for (i, d) in swept {
                let f = flow_for(d);
                let entry = match settle.get(&d) {
                    // Unsettled: solo exhausts the identical heap, reporting
                    // the full-run totals.
                    None => (None, stats),
                    Some(&(fstate, st)) => {
                        let mut path = Vec::new();
                        let mut cur = fstate;
                        loop {
                            path.push(cur.0);
                            if cur == start {
                                break;
                            }
                            cur = parent[&cur];
                        }
                        path.reverse();
                        let cost = dist[&fstate];
                        // Identical post-processing to `legal_route_with`:
                        // revisiting walks fall back to the exact simple-path
                        // search; selection rejection retries minimizing hops
                        // when a hop bound is present. Neither touches stats.
                        let has_revisit = {
                            let mut seen = std::collections::HashSet::new();
                            path.iter().any(|a| !seen.insert(*a))
                        };
                        let route = if has_revisit {
                            FALLBACKS.set(FALLBACKS.get() + 1);
                            legal_route_bruteforce(topo, db, &f)
                        } else {
                            Some(LegalRoute { path, cost })
                        };
                        let result = match route {
                            None => None,
                            Some(r) if selection.accepts(&r.path, r.cost) => Some(r),
                            Some(_) if selection.max_hops.is_some() => {
                                legal_route_min_hops(topo, db, &f, selection)
                                    .filter(|r| selection.accepts(&r.path, r.cost))
                            }
                            Some(_) => None,
                        };
                        (result, st)
                    }
                };
                out[i] = Some(entry);
            }
        }

        out.into_iter()
            .map(|o| o.expect("every dst answered"))
            .collect()
    }

    /// Hop-minimizing variant: BFS over the same `(current, previous)` state
    /// graph, used when a source's `max_hops` criterion rejects the least-cost
    /// route.
    fn legal_route_min_hops(
        topo: &Topology,
        db: &PolicyDb,
        flow: &FlowSpec,
        selection: &RouteSelection,
    ) -> Option<LegalRoute> {
        type State = (AdId, AdId);
        let start: State = (flow.src, flow.src);
        let mut parent: HashMap<State, State> = HashMap::new();
        let mut visited: std::collections::HashSet<State> = std::collections::HashSet::new();
        let mut queue = std::collections::VecDeque::new();
        visited.insert(start);
        queue.push_back(start);
        while let Some((cur, prev)) = queue.pop_front() {
            if cur == flow.dst {
                let mut path = Vec::new();
                let mut s = (cur, prev);
                loop {
                    path.push(s.0);
                    if s == start {
                        break;
                    }
                    s = parent[&s];
                }
                path.reverse();
                let cost = route_is_legal(topo, db, flow, &path)?;
                return Some(LegalRoute { path, cost });
            }
            for (nbr, _) in topo.neighbors(cur) {
                if nbr == prev && cur != flow.src {
                    continue;
                }
                if cur != flow.src
                    && db
                        .policy(cur)
                        .evaluate(flow, Some(prev), Some(nbr))
                        .is_none()
                {
                    continue;
                }
                if nbr != flow.dst && !selection.allows_transit(nbr) {
                    continue;
                }
                let nstate = (nbr, cur);
                if visited.insert(nstate) {
                    parent.insert(nstate, (cur, prev));
                    queue.push_back(nstate);
                }
            }
        }
        None
    }
}

/// A random small hierarchy with some links down. `large` roughly doubles
/// it. Laterals, bypasses and multi-homing are frequent so that prev/next
/// terms open detours; the size stays small enough for the simple-path
/// fallback, which is exponential.
fn hierarchy(rng: &mut SmallRng, large: bool) -> Topology {
    let mut topo = HierarchyConfig {
        backbones: 1 + usize::from(large),
        regionals_per_backbone: rng.gen_range(1..3),
        metros_per_regional: rng.gen_range(1..3),
        campuses_per_metro: rng.gen_range(1..3usize) + usize::from(large),
        lateral_prob: 0.4,
        bypass_prob: 0.3,
        multihome_prob: 0.4,
        seed: rng.gen_range(0..u64::MAX),
    }
    .generate();
    for l in 0..topo.num_links() as u32 {
        if rng.gen_bool(0.1) {
            topo.set_link_up(LinkId(l), false);
        }
    }
    topo
}

fn some_ads(rng: &mut SmallRng, topo: &Topology, p: f64) -> AdSet {
    AdSet::only(topo.ad_ids().filter(|_| rng.gen_bool(p)))
}

fn qos(rng: &mut SmallRng) -> QosClass {
    QosClass(rng.gen_range(0..3))
}

/// Term-bearing policies over every condition the search consults: the
/// source, previous and next AD (which make walks revisit ADs), QOS, and,
/// in some databases, the destination (which turns sweeps into solo
/// searches).
fn policies(rng: &mut SmallRng, topo: &Topology) -> PolicyDb {
    let dst_terms = rng.gen_bool(0.25);
    let mut db = PolicyDb::permissive(topo);
    for ad in topo.ad_ids() {
        let mut p = TransitPolicy::permit_all(ad);
        let nbrs: Vec<AdId> = topo.all_neighbors(ad).map(|(n, _)| n).collect();
        for _ in 0..rng.gen_range(0..3) {
            // A turn restriction: from one neighbor, not on to another. A
            // least-cost walk then loops back through `ad` to make the turn.
            let mut pick = || AdSet::only([nbrs[rng.gen_range(0..nbrs.len())]]);
            p.push_term(
                vec![
                    PolicyCondition::PrevIn(pick()),
                    PolicyCondition::NextIn(pick()),
                ],
                PolicyAction::Deny,
            );
        }
        for _ in 0..rng.gen_range(0..4) {
            let mut conds = Vec::new();
            if rng.gen_bool(0.6) {
                conds.push(PolicyCondition::PrevIn(some_ads(rng, topo, 0.3)));
            }
            if rng.gen_bool(0.6) {
                conds.push(PolicyCondition::NextIn(some_ads(rng, topo, 0.3)));
            }
            if rng.gen_bool(0.2) {
                conds.push(PolicyCondition::SrcIn(some_ads(rng, topo, 0.5)));
            }
            if rng.gen_bool(0.2) {
                conds.push(PolicyCondition::QosIn(vec![qos(rng)]));
            }
            if dst_terms && rng.gen_bool(0.3) {
                conds.push(PolicyCondition::DstIn(some_ads(rng, topo, 0.3)));
            }
            let action = if rng.gen_bool(0.5) {
                PolicyAction::Deny
            } else {
                PolicyAction::Permit {
                    cost: rng.gen_range(0..6),
                }
            };
            p.push_term(conds, action);
        }
        if rng.gen_bool(0.3) {
            p.default = PolicyAction::Permit {
                cost: rng.gen_range(0..4),
            };
        }
        if rng.gen_bool(0.05) {
            p = TransitPolicy::deny_all(ad);
        }
        db.set_policy(p);
    }
    db
}

/// Unconstrained, or an avoid-set with optional hop and cost bounds (a
/// rejected least-cost route sends the search to its hop-minimizing retry).
fn selection(rng: &mut SmallRng, topo: &Topology) -> RouteSelection {
    if rng.gen_bool(0.4) {
        return RouteSelection::unconstrained();
    }
    RouteSelection {
        avoid: some_ads(rng, topo, 0.15),
        max_hops: rng.gen_bool(0.4).then(|| rng.gen_range(1..5)),
        max_cost: rng.gen_bool(0.3).then(|| rng.gen_range(2..12)),
    }
}

#[test]
fn search_matches_hashmap_oracle() {
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        fn cases(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nets: Vec<(Topology, PolicyDb)> = [false, true]
                .into_iter()
                .map(|large| {
                    let t = hierarchy(&mut rng, large);
                    let db = policies(&mut rng, &t);
                    (t, db)
                })
                .collect();
            // Alternate the two internets so each search starts on a
            // scratch the other size left behind.
            for round in 0..12 {
                let (topo, db) = &nets[round % 2];
                let n = topo.num_ads() as u32;
                let sel = selection(&mut rng, topo);
                let src = AdId(rng.gen_range(0..n));
                let dst = AdId(rng.gen_range(0..n));
                let f = FlowSpec::best_effort(src, dst).with_qos(qos(&mut rng));
                let (mut fast, mut slow) = (SearchStats::default(), SearchStats::default());
                let a = legality::legal_route_with(topo, db, &f, &sel, &mut fast);
                let b = oracle::legal_route_with(topo, db, &f, &sel, &mut slow);
                prop_assert_eq!((a, fast), (b, slow), "solo {} under {:?}, round {}",
                    f, sel, round);

                // Sweep: repeated, trivial and out-of-range destinations too.
                let dsts: Vec<AdId> = (0..rng.gen_range(1..9))
                    .map(|_| match rng.gen_range(0..10) {
                        0 => src,
                        1 => AdId(n + 3),
                        _ => AdId(rng.gen_range(0..n)),
                    })
                    .collect();
                let fast = legality::legal_routes_sweep(topo, db, &f, &dsts, &sel);
                let slow = oracle::legal_routes_sweep(topo, db, &f, &dsts, &sel);
                for (i, d) in dsts.iter().enumerate() {
                    prop_assert_eq!(&fast[i], &slow[i], "sweep from {} to {} under {:?}",
                        src, d, sel);
                }
            }
        }
    }
    cases();
    assert!(
        oracle::FALLBACKS.get() > 0,
        "no walk revisited an AD: the fallback went untested"
    );
}
