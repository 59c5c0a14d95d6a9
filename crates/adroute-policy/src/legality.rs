//! The route-legality oracle: exact policy-constrained route search.
//!
//! Paper Section 5.1 observes that hop-by-hop designs can leave a source
//! with "no available route when in fact a legal route exists (i.e., a
//! route that is permitted by the policies of all transit ADs involved)".
//! This module decides, with complete information, whether such a legal
//! route exists — and finds the least-cost one. Every protocol in the
//! workspace is scored against it.
//!
//! Because Policy Terms may condition on the **previous** and **next** AD
//! of a traversal, path legality is not a per-edge property: the search
//! runs over the product state `(current AD, previous AD)`, which is
//! exactly the state space a Route Server must explore (`adroute-core`
//! uses the same routine for synthesis).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use adroute_topology::{AdId, Link, LinkId, Topology};

use crate::class::FlowSpec;
use crate::db::PolicyDb;
use crate::terms::RouteSelection;

/// A legal route found by the oracle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LegalRoute {
    /// The AD-level path, `src … dst`.
    pub path: Vec<AdId>,
    /// Total cost: link metrics plus transit charges from the permitting
    /// Policy Terms.
    pub cost: u64,
}

impl LegalRoute {
    /// Number of inter-AD hops.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// Search-effort statistics, for the synthesis experiments.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SearchStats {
    /// `(state, edge)` relaxations attempted.
    pub relaxations: u64,
    /// States settled (popped with best cost).
    pub settled: u64,
}

/// Finds the least-cost policy-legal route for `flow`, or `None` if no
/// legal route exists.
///
/// A route is legal when every *transit* AD on it permits the traversal —
/// given the flow attributes and that AD's previous/next neighbors on the
/// path — and every link is operational. Endpoint ADs do not evaluate
/// transit policy (Section 2.3: policy routing is resource control, not
/// end-system access control).
pub fn legal_route(topo: &Topology, db: &PolicyDb, flow: &FlowSpec) -> Option<LegalRoute> {
    legal_route_with(
        topo,
        db,
        flow,
        &RouteSelection::unconstrained(),
        &mut SearchStats::default(),
    )
}

/// Full-control variant of [`legal_route`]: honors the source's
/// [`RouteSelection`] criteria and accumulates [`SearchStats`].
///
/// The avoid-set is enforced during the search (avoided ADs are never used
/// for transit); `max_cost`/`max_hops` are checked on the result.
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

    let (path, cost) = SCRATCH.with_borrow_mut(|sc| {
        sc.begin(topo);
        let start = start_state(topo);
        sc.reach(start, 0, start);
        sc.heap.push(Reverse((0, flow.src, flow.src, start)));

        while let Some(Reverse((cost, cur, prev, state))) = sc.heap.pop() {
            if sc.dist(state).is_none_or(|d| cost > d) {
                continue;
            }
            stats.settled += 1;
            if cur == flow.dst {
                // First settle of dst is optimal.
                return Some((sc.path_to(topo, flow.src, state), cost));
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
                let l = topo.link(link);
                let ncost = cost + u64::from(l.metric) + transit_cost;
                let nstate = link_state(l, nbr);
                if sc.dist(nstate).is_none_or(|d| ncost < d) {
                    sc.reach(nstate, ncost, state);
                    sc.heap.push(Reverse((ncost, nbr, cur, nstate)));
                }
            }
        }
        None
    })?;
    finish_route(topo, db, flow, selection, path, cost)
}

/// Post-processing shared by the solo search and the sweep, given the
/// least-cost walk the state search settled. Touches no search counters.
fn finish_route(
    topo: &Topology,
    db: &PolicyDb,
    flow: &FlowSpec,
    selection: &RouteSelection,
    path: Vec<AdId>,
    cost: u64,
) -> Option<LegalRoute> {
    // The (current, previous) state graph searches *walks*; with policies
    // conditioned on the previous AD the optimal walk can, in adversarial
    // cases, revisit an AD. Inter-AD routes must be loop-free (paper
    // Section 2.1), so fall back to an exact simple-path search when that
    // happens. The walk cost is a valid lower bound for pruning.
    let has_revisit = {
        let mut sorted = path.clone();
        sorted.sort_unstable();
        sorted.windows(2).any(|w| w[0] == w[1])
    };
    let route = if has_revisit {
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

/// Batched multi-destination variant of [`legal_route_with`]: one search
/// from `template.src` answers every destination in `dsts`, with results
/// and per-destination [`SearchStats`] **exactly equal** to calling
/// [`legal_route_with`] once per destination (flow `i` is `template` with
/// `dst = dsts[i]`, starting from fresh stats).
///
/// The wall-clock win comes from work sharing: the Dijkstra frontier from
/// `src` is computed once and read off at each destination's first
/// settle, instead of being regrown per open. Equivalence holds because,
/// when no policy conditions on the destination and no requested
/// destination sits in the avoid-set, the solo search's loop body is
/// destination-independent until the moment it breaks — so the shared
/// sweep's pop/relax sequence is a common prefix of every solo run, and
/// each solo run's effort counters can be snapshotted at its
/// destination's settle (settled *includes* the destination pop;
/// relaxations exclude its outgoing edges, which solo never visits).
/// Destinations that violate a sharing precondition — a dst-conditioned
/// Policy Term anywhere in `db`, or a destination the selection avoids
/// (which flips the `nbr != dst` transit test) — are transparently
/// answered by private per-destination searches, so the equivalence
/// contract is unconditional.
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
        // destination: instead, snapshot effort at each destination's first
        // settle. Policy evaluation uses an arbitrary batch flow — sound
        // because `db` is not dst-sensitive (checked above). The walks are
        // read off before the scratch is released, since the post-processing
        // may search again.
        let probe = flow_for(swept[0].1);
        let (walks, total) = SCRATCH.with_borrow_mut(|sc| {
            sc.begin(topo);
            // First-settle snapshot per distinct destination AD: final state
            // plus the effort counters a solo run would have reported at its
            // break. `ad_mark[d] == epoch` flags a wanted AD, whose snapshot
            // sits at `settles[ad_slot[d]]`.
            let mut settles: Vec<Option<(u32, SearchStats)>> = Vec::new();
            for &(_, d) in &swept {
                if sc.ad_mark[d.index()] != sc.epoch {
                    sc.ad_mark[d.index()] = sc.epoch;
                    sc.ad_slot[d.index()] = settles.len() as u32;
                    settles.push(None);
                }
            }
            let mut remaining = settles.len();
            let start = start_state(topo);
            sc.reach(start, 0, start);
            sc.heap.push(Reverse((0, src, src, start)));

            let mut stats = SearchStats::default();
            while let Some(Reverse((cost, cur, prev, state))) = sc.heap.pop() {
                if sc.dist(state).is_none_or(|d| cost > d) {
                    continue;
                }
                stats.settled += 1;
                if sc.ad_mark[cur.index()] == sc.epoch {
                    let slot = &mut settles[sc.ad_slot[cur.index()] as usize];
                    if slot.is_none() {
                        // Solo for `cur` breaks exactly here, after counting
                        // this pop but before relaxing its edges.
                        *slot = Some((state, stats));
                        remaining -= 1;
                        if remaining == 0 {
                            break;
                        }
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
                    let l = topo.link(link);
                    let ncost = cost + u64::from(l.metric) + transit_cost;
                    let nstate = link_state(l, nbr);
                    if sc.dist(nstate).is_none_or(|d| ncost < d) {
                        sc.reach(nstate, ncost, state);
                        sc.heap.push(Reverse((ncost, nbr, cur, nstate)));
                    }
                }
            }

            let walks: Vec<Option<(Vec<AdId>, u64, SearchStats)>> = swept
                .iter()
                .map(|&(_, d)| {
                    settles[sc.ad_slot[d.index()] as usize].map(|(fstate, st)| {
                        let cost = sc.dist(fstate).expect("settled state was reached");
                        (sc.path_to(topo, src, fstate), cost, st)
                    })
                })
                .collect();
            (walks, stats)
        });

        for (&(i, d), walk) in swept.iter().zip(walks) {
            out[i] = Some(match walk {
                // Unsettled: solo exhausts the identical heap, reporting the
                // full-run totals.
                None => (None, total),
                // Identical post-processing to `legal_route_with`.
                Some((path, cost, st)) => (
                    finish_route(topo, db, &flow_for(d), selection, path, cost),
                    st,
                ),
            });
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
    let path = SCRATCH.with_borrow_mut(|sc| {
        sc.begin(topo);
        let start = start_state(topo);
        sc.reach(start, 0, start);
        let mut queue = VecDeque::from([(flow.src, flow.src, start)]);
        while let Some((cur, prev, state)) = queue.pop_front() {
            if cur == flow.dst {
                return Some(sc.path_to(topo, flow.src, state));
            }
            for (nbr, link) in topo.neighbors(cur) {
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
                let nstate = link_state(topo.link(link), nbr);
                if sc.dist(nstate).is_none() {
                    sc.reach(nstate, 0, state);
                    queue.push_back((nbr, cur, nstate));
                }
            }
        }
        None
    })?;
    let cost = route_is_legal(topo, db, flow, &path)?;
    Some(LegalRoute { path, cost })
}

/// Index of the search state `(cur, prev)` entered over link `l`:
/// `2·l + (cur != l.a)`. Exact because a [`Topology`] has neither
/// self-loops nor parallel links, so `l` names the AD pair.
#[inline]
fn link_state(l: &Link, cur: AdId) -> u32 {
    2 * l.id.0 + u32::from(cur != l.a)
}

/// Index of the start state `(src, src)`, one past the link states.
#[inline]
fn start_state(topo: &Topology) -> u32 {
    u32::try_from(2 * topo.num_links()).expect("state indices fit in u32")
}

/// Dense, reusable search state over the state indices of [`link_state`].
///
/// A state's `dist`/`parent` slots count as set only while its stamp
/// equals the current search's `epoch`, so [`Scratch::begin`] resets the
/// whole table by bumping the epoch and a search costs the states it
/// touches, never `O(links)`. One scratch lives per thread.
#[derive(Default)]
struct Scratch {
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<u64>,
    parent: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, AdId, AdId, u32)>>,
    /// Per-AD marks under the same epoch (the sweep's wanted set).
    ad_mark: Vec<u32>,
    /// Per-AD payload of a marked AD (the sweep's snapshot slot).
    ad_slot: Vec<u32>,
}

impl Scratch {
    /// Starts a new search over `topo`: grows the tables to its size and
    /// invalidates every earlier entry.
    fn begin(&mut self, topo: &Topology) {
        let states = start_state(topo) as usize + 1;
        if self.stamp.len() < states {
            self.stamp.resize(states, 0);
            self.dist.resize(states, 0);
            self.parent.resize(states, 0);
        }
        if self.ad_mark.len() < topo.num_ads() {
            self.ad_mark.resize(topo.num_ads(), 0);
            self.ad_slot.resize(topo.num_ads(), 0);
        }
        self.heap.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: no stale stamp may alias a future epoch.
            self.stamp.fill(0);
            self.ad_mark.fill(0);
            self.epoch = 1;
        }
    }

    /// Best cost recorded for `state` in this search, if any.
    #[inline]
    fn dist(&self, state: u32) -> Option<u64> {
        let s = state as usize;
        (self.stamp[s] == self.epoch).then(|| self.dist[s])
    }

    #[inline]
    fn reach(&mut self, state: u32, cost: u64, parent: u32) {
        let s = state as usize;
        self.stamp[s] = self.epoch;
        self.dist[s] = cost;
        self.parent[s] = parent;
    }

    /// The walk `src … cur` that ends in `state`, through the parent links.
    fn path_to(&self, topo: &Topology, src: AdId, mut state: u32) -> Vec<AdId> {
        let start = start_state(topo);
        let mut path = Vec::new();
        while state != start {
            let l = topo.link(LinkId(state / 2));
            path.push(if state & 1 == 0 { l.a } else { l.b });
            state = self.parent[state as usize];
        }
        path.push(src);
        path.reverse();
        path
    }
}

thread_local! {
    /// The calling thread's search scratch; each search borrows it whole.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Checks a complete candidate route for legality, returning the total
/// cost if legal. This is what a chain of Policy Gateways does during
/// route setup, and what the forwarding harness uses to audit protocols.
pub fn route_is_legal(
    topo: &Topology,
    db: &PolicyDb,
    flow: &FlowSpec,
    path: &[AdId],
) -> Option<u64> {
    if path.len() == 1 {
        return (path[0] == flow.src && flow.src == flow.dst).then_some(0);
    }
    if path.first() != Some(&flow.src) || path.last() != Some(&flow.dst) {
        return None;
    }
    if !topo.is_simple_path(path) {
        return None;
    }
    let mut cost = 0u64;
    for w in path.windows(2) {
        let link = topo.link_between(w[0], w[1])?;
        cost += u64::from(topo.link(link).metric);
    }
    for i in 1..path.len() - 1 {
        let c = db
            .policy(path[i])
            .evaluate(flow, Some(path[i - 1]), Some(path[i + 1]))?;
        cost += u64::from(c);
    }
    Some(cost)
}

/// Exhaustive reference implementation: enumerates **all simple paths**
/// and returns the least-cost legal one. Exponential; only for testing the
/// oracle on small graphs.
pub fn legal_route_bruteforce(
    topo: &Topology,
    db: &PolicyDb,
    flow: &FlowSpec,
) -> Option<LegalRoute> {
    fn rec(
        topo: &Topology,
        db: &PolicyDb,
        flow: &FlowSpec,
        path: &mut Vec<AdId>,
        on_path: &mut Vec<bool>,
        best: &mut Option<LegalRoute>,
    ) {
        let cur = *path.last().unwrap();
        if cur == flow.dst {
            if let Some(cost) = route_is_legal(topo, db, flow, path) {
                if best.as_ref().is_none_or(|b| cost < b.cost) {
                    *best = Some(LegalRoute {
                        path: path.clone(),
                        cost,
                    });
                }
            }
            return;
        }
        for (nbr, _) in topo.neighbors(cur) {
            if !on_path[nbr.index()] {
                on_path[nbr.index()] = true;
                path.push(nbr);
                rec(topo, db, flow, path, on_path, best);
                path.pop();
                on_path[nbr.index()] = false;
            }
        }
    }
    if flow.src == flow.dst {
        return Some(LegalRoute {
            path: vec![flow.src],
            cost: 0,
        });
    }
    let mut best = None;
    let mut on_path = vec![false; topo.num_ads()];
    on_path[flow.src.index()] = true;
    rec(topo, db, flow, &mut vec![flow.src], &mut on_path, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terms::{AdSet, PolicyAction, PolicyCondition, TransitPolicy};
    use adroute_topology::generate::{line, ring};

    #[test]
    fn permissive_oracle_matches_shortest_path() {
        let t = ring(6);
        let db = PolicyDb::permissive(&t);
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let r = legal_route(&t, &db, &f).unwrap();
        assert_eq!(r.cost, 3);
        assert_eq!(r.hops(), 3);
    }

    #[test]
    fn deny_all_transit_blocks_route() {
        let t = line(3);
        let mut db = PolicyDb::permissive(&t);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        assert!(legal_route(&t, &db, &f).is_none());
        // But the middle AD can still originate/terminate.
        let f2 = FlowSpec::best_effort(AdId(0), AdId(1));
        assert!(legal_route(&t, &db, &f2).is_some());
    }

    #[test]
    fn oracle_routes_around_denials() {
        let t = ring(6); // two paths 0->3: via 1,2 and via 5,4
        let mut db = PolicyDb::permissive(&t);
        db.set_policy(TransitPolicy::deny_all(AdId(1)));
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let r = legal_route(&t, &db, &f).unwrap();
        assert_eq!(r.path, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
    }

    #[test]
    fn transit_charges_affect_choice() {
        let t = ring(4); // 0->2 via 1 or via 3
        let mut db = PolicyDb::permissive(&t);
        db.policy_mut(AdId(1)).default = PolicyAction::Permit { cost: 10 };
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        let r = legal_route(&t, &db, &f).unwrap();
        assert_eq!(r.path, vec![AdId(0), AdId(3), AdId(2)]);
        assert_eq!(r.cost, 2);
    }

    #[test]
    fn prev_next_conditions_enforced() {
        // 0 - 1 - 2 and 0 - 3 - 1: AD1 refuses packets arriving from AD0
        // directly but accepts them via AD3.
        let t = ring(4); // edges 0-1, 1-2, 2-3, 0-3
        let mut db = PolicyDb::permissive(&t);
        let mut p1 = TransitPolicy::permit_all(AdId(1));
        p1.push_term(
            vec![PolicyCondition::PrevIn(AdSet::only([AdId(0)]))],
            PolicyAction::Deny,
        );
        db.set_policy(p1);
        let f = FlowSpec::best_effort(AdId(0), AdId(2));
        let r = legal_route(&t, &db, &f).unwrap();
        // Direct 0-1-2 is illegal (prev=0 at AD1); 0-3-2 works.
        assert_eq!(r.path, vec![AdId(0), AdId(3), AdId(2)]);
    }

    #[test]
    fn route_is_legal_checks_everything() {
        let t = line(4);
        let mut db = PolicyDb::permissive(&t);
        db.policy_mut(AdId(1)).default = PolicyAction::Permit { cost: 5 };
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let p = [AdId(0), AdId(1), AdId(2), AdId(3)];
        assert_eq!(route_is_legal(&t, &db, &f, &p), Some(3 + 5));
        // wrong endpoints
        assert_eq!(
            route_is_legal(&t, &db, &f, &[AdId(1), AdId(2), AdId(3)]),
            None
        );
        // non-adjacent
        assert_eq!(
            route_is_legal(&t, &db, &f, &[AdId(0), AdId(2), AdId(3)]),
            None
        );
        // denial on path
        db.set_policy(TransitPolicy::deny_all(AdId(2)));
        assert_eq!(route_is_legal(&t, &db, &f, &p), None);
    }

    #[test]
    fn route_selection_avoidance() {
        let t = ring(6);
        let db = PolicyDb::permissive(&t);
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let sel = RouteSelection::avoiding([AdId(1), AdId(2)]);
        let mut stats = SearchStats::default();
        let r = legal_route_with(&t, &db, &f, &sel, &mut stats).unwrap();
        assert_eq!(r.path, vec![AdId(0), AdId(5), AdId(4), AdId(3)]);
        assert!(stats.settled > 0 && stats.relaxations > 0);
    }

    #[test]
    fn route_selection_max_cost_rejects() {
        let t = line(5);
        let db = PolicyDb::permissive(&t);
        let f = FlowSpec::best_effort(AdId(0), AdId(4));
        let sel = RouteSelection {
            max_cost: Some(3),
            ..RouteSelection::unconstrained()
        };
        let mut stats = SearchStats::default();
        assert!(legal_route_with(&t, &db, &f, &sel, &mut stats).is_none());
    }

    #[test]
    fn oracle_agrees_with_bruteforce_on_random_policies() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        for trial in 0..30 {
            let t = if trial % 2 == 0 {
                ring(6)
            } else {
                adroute_topology::generate::grid(2, 3)
            };
            let mut db = PolicyDb::permissive(&t);
            for ad in t.ad_ids() {
                if rng.gen_bool(0.4) {
                    let p = db.policy_mut(ad);
                    let denied: Vec<AdId> = t.ad_ids().filter(|_| rng.gen_bool(0.3)).collect();
                    p.push_term(
                        vec![PolicyCondition::SrcIn(AdSet::only(denied))],
                        PolicyAction::Deny,
                    );
                }
                if rng.gen_bool(0.3) {
                    db.policy_mut(ad).default = PolicyAction::Permit {
                        cost: rng.gen_range(0..5),
                    };
                }
            }
            let src = AdId(rng.gen_range(0..t.num_ads() as u32));
            let dst = AdId(rng.gen_range(0..t.num_ads() as u32));
            let f = FlowSpec::best_effort(src, dst);
            let fast = legal_route(&t, &db, &f);
            let slow = legal_route_bruteforce(&t, &db, &f);
            match (&fast, &slow) {
                (Some(a), Some(b)) => assert_eq!(a.cost, b.cost, "trial {trial}: {f}"),
                (None, None) => {}
                _ => panic!("trial {trial}: oracle {fast:?} vs brute {slow:?} for {f}"),
            }
            if let Some(r) = fast {
                assert_eq!(route_is_legal(&t, &db, &f, &r.path), Some(r.cost));
            }
        }
    }

    #[test]
    fn trivial_flow() {
        let t = line(2);
        let db = PolicyDb::permissive(&t);
        let f = FlowSpec::best_effort(AdId(0), AdId(0));
        let r = legal_route(&t, &db, &f).unwrap();
        assert_eq!(r.path, vec![AdId(0)]);
        assert_eq!(r.cost, 0);
        assert_eq!(route_is_legal(&t, &db, &f, &[AdId(0)]), Some(0));
    }

    /// The sweep's contract is exact equivalence with one solo search per
    /// destination — routes AND effort counters.
    fn assert_sweep_matches_solo(
        t: &Topology,
        db: &PolicyDb,
        template: &FlowSpec,
        dsts: &[AdId],
        sel: &RouteSelection,
        what: &str,
    ) {
        let swept = legal_routes_sweep(t, db, template, dsts, sel);
        assert_eq!(swept.len(), dsts.len());
        for (i, &d) in dsts.iter().enumerate() {
            let f = FlowSpec {
                dst: d,
                ..*template
            };
            let mut st = SearchStats::default();
            let solo = legal_route_with(t, db, &f, sel, &mut st);
            assert_eq!(swept[i].0, solo, "{what}: route for dst {d} diverged");
            assert_eq!(swept[i].1, st, "{what}: stats for dst {d} diverged");
        }
    }

    use adroute_topology::Topology;

    /// An epoch wrap must clear the stamps: otherwise a state stamped just
    /// before the wrap reads as set once the epoch climbs back to it.
    #[test]
    fn scratch_epoch_wrap_leaves_no_stale_state() {
        let t = ring(6);
        let db = PolicyDb::permissive(&t);
        let f = FlowSpec::best_effort(AdId(0), AdId(3));
        let fresh = legal_route(&t, &db, &f);
        SCRATCH.with_borrow_mut(|sc| sc.epoch = u32::MAX - 1);
        // The first search stamps the states it reaches with u32::MAX; the
        // second, in the other direction, touches none of them and wraps.
        legal_route(&t, &db, &f);
        legal_route(&t, &db, &FlowSpec::best_effort(AdId(3), AdId(0)));
        // The next search runs at epoch u32::MAX again.
        SCRATCH.with_borrow_mut(|sc| sc.epoch = u32::MAX - 1);
        assert_eq!(legal_route(&t, &db, &f), fresh);
    }

    #[test]
    fn sweep_matches_solo_on_ring() {
        let t = ring(8);
        let mut db = PolicyDb::permissive(&t);
        db.set_policy(TransitPolicy::deny_all(AdId(2)));
        db.policy_mut(AdId(5)).default = PolicyAction::Permit { cost: 3 };
        let template = FlowSpec::best_effort(AdId(0), AdId(0));
        let dsts: Vec<AdId> = t.ad_ids().collect();
        assert_sweep_matches_solo(
            &t,
            &db,
            &template,
            &dsts,
            &RouteSelection::unconstrained(),
            "ring",
        );
    }

    #[test]
    fn sweep_matches_solo_with_avoided_and_trivial_dsts() {
        let t = ring(8);
        let db = PolicyDb::permissive(&t);
        let template = FlowSpec::best_effort(AdId(0), AdId(0));
        // Avoid 3: dst 3 takes the private-search path; dst 0 is trivial;
        // dst 99 is out of range; duplicates must each be answered.
        let sel = RouteSelection::avoiding([AdId(3)]);
        let dsts = [AdId(4), AdId(3), AdId(0), AdId(99), AdId(4), AdId(6)];
        assert_sweep_matches_solo(&t, &db, &template, &dsts, &sel, "avoid");
    }

    #[test]
    fn sweep_falls_back_on_dst_sensitive_policies() {
        let t = ring(6);
        let mut db = PolicyDb::permissive(&t);
        let mut p = TransitPolicy::permit_all(AdId(1));
        p.push_term(
            vec![PolicyCondition::DstIn(AdSet::only([AdId(3)]))],
            PolicyAction::Deny,
        );
        db.set_policy(p);
        assert!(db.dst_sensitive());
        let template = FlowSpec::best_effort(AdId(0), AdId(0));
        let dsts: Vec<AdId> = t.ad_ids().collect();
        assert_sweep_matches_solo(
            &t,
            &db,
            &template,
            &dsts,
            &RouteSelection::unconstrained(),
            "dst-sensitive",
        );
    }

    #[test]
    fn sweep_matches_solo_on_random_policies() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(1990);
        for trial in 0..40 {
            let t = match trial % 3 {
                0 => ring(7),
                1 => adroute_topology::generate::grid(3, 3),
                _ => adroute_topology::generate::grid(2, 4),
            };
            let mut db = PolicyDb::permissive(&t);
            for ad in t.ad_ids() {
                if rng.gen_bool(0.35) {
                    let denied: Vec<AdId> = t.ad_ids().filter(|_| rng.gen_bool(0.3)).collect();
                    db.policy_mut(ad).push_term(
                        vec![PolicyCondition::PrevIn(AdSet::only(denied))],
                        PolicyAction::Deny,
                    );
                }
                if rng.gen_bool(0.3) {
                    db.policy_mut(ad).default = PolicyAction::Permit {
                        cost: rng.gen_range(0..5),
                    };
                }
                if rng.gen_bool(0.15) {
                    // Exercise the dst-sensitivity fallback in some trials.
                    let picked: Vec<AdId> = t.ad_ids().filter(|_| rng.gen_bool(0.2)).collect();
                    db.policy_mut(ad).push_term(
                        vec![PolicyCondition::DstIn(AdSet::only(picked))],
                        PolicyAction::Deny,
                    );
                }
            }
            let src = AdId(rng.gen_range(0..t.num_ads() as u32));
            let template = FlowSpec::best_effort(src, src);
            let sel = if rng.gen_bool(0.4) {
                let avoided: Vec<AdId> = t.ad_ids().filter(|_| rng.gen_bool(0.2)).collect();
                RouteSelection {
                    max_hops: rng.gen_bool(0.3).then(|| rng.gen_range(1..5)),
                    ..RouteSelection::avoiding(avoided)
                }
            } else {
                RouteSelection::unconstrained()
            };
            let dsts: Vec<AdId> = t.ad_ids().collect();
            assert_sweep_matches_solo(&t, &db, &template, &dsts, &sel, &format!("trial {trial}"));
        }
    }
}
