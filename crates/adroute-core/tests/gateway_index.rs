//! Differential test of the Policy Gateway's flow index.
//!
//! `PolicyGateway::purge_flow` takes a flow's handles from an index kept
//! beside the LRU handle cache instead of scanning the table. The oracle
//! here is a plain model with no index: the same LRU cache, driven by the
//! same operations, purging with a full `retain` scan. After every step
//! the purge counts, the surviving handles and their recency order must
//! agree, and the index must list exactly the cached handles per flow.

use adroute_core::dataplane::{DataPacket, HandleId, SetupPacket};
use adroute_core::gateway::HandleEntry;
use adroute_core::lru::LruCache;
use adroute_core::PolicyGateway;
use adroute_policy::{FlowSpec, TransitPolicy};
use adroute_topology::AdId;
use proptest::prelude::*;

const GW: AdId = AdId(1);
const SRCS: [AdId; 3] = [AdId(0), AdId(2), AdId(3)];
const DSTS: [AdId; 2] = [AdId(4), AdId(5)];

/// The index-free oracle: an LRU table purged by scanning it.
struct Model {
    handles: LruCache<HandleId, HandleEntry>,
    up: bool,
    epoch: u64,
}

impl Model {
    /// Mirrors `validate_setup` under a permit-all policy and
    /// `force_install`: install iff the gateway is up and transit.
    fn install(&mut self, setup: &SetupPacket) -> bool {
        let pos = setup.route.iter().position(|&a| a == GW);
        let Some(pos) = pos.filter(|&p| self.up && p > 0 && p + 1 < setup.route.len()) else {
            return false;
        };
        self.handles.insert(
            setup.handle,
            HandleEntry {
                flow: setup.flow,
                prev: setup.route[pos - 1],
                next: setup.route[pos + 1],
                pt: None,
                epoch: self.epoch,
            },
        );
        true
    }

    fn purge(&mut self, flow: &FlowSpec) -> usize {
        let before = self.handles.len();
        self.handles.retain(|_, e| e.flow != *flow);
        before - self.handles.len()
    }

    fn snapshot(&self) -> Vec<(HandleId, FlowSpec, AdId, AdId, u64)> {
        self.handles
            .iter_recency()
            .map(|(h, e)| (*h, e.flow, e.prev, e.next, e.epoch))
            .collect()
    }
}

fn snapshot(pg: &PolicyGateway) -> Vec<(HandleId, FlowSpec, AdId, AdId, u64)> {
    pg.handles_by_recency()
        .map(|(h, e)| (h, e.flow, e.prev, e.next, e.epoch))
        .collect()
}

fn all_flows() -> Vec<FlowSpec> {
    SRCS.iter()
        .flat_map(|&s| DSTS.iter().map(move |&d| FlowSpec::best_effort(s, d)))
        .collect()
}

/// Decodes one op word into a setup: a transit route through the gateway
/// most of the time, sometimes one it ends or is absent from.
fn setup_for(word: u32) -> SetupPacket {
    let src = SRCS[(word % 3) as usize];
    let dst = DSTS[((word / 3) % 2) as usize];
    let route = match (word / 6) % 6 {
        0 => vec![GW, dst],
        1 => vec![src, AdId(7), dst],
        _ => vec![src, GW, dst],
    };
    SetupPacket {
        flow: FlowSpec::best_effort(src, dst),
        route,
        claimed_pts: vec![None],
        handle: HandleId(u64::from((word / 36) % 6)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_purge_matches_the_retain_oracle(
        capacity in 1usize..9,
        ops in proptest::collection::vec(0u32..1_000_000, 1..120),
    ) {
        let policy = TransitPolicy::permit_all(GW);
        let mut pg = PolicyGateway::new(GW, capacity);
        let mut model = Model {
            handles: LruCache::new(capacity),
            up: true,
            epoch: 0,
        };
        for op in ops {
            let word = op / 10;
            let setup = setup_for(word);
            match op % 10 {
                0..=2 => {
                    let ok = pg.validate_setup(&policy, &setup).is_ok();
                    prop_assert_eq!(ok, model.install(&setup));
                }
                3 => {
                    let ok = pg.force_install(&setup).is_ok();
                    prop_assert_eq!(ok, model.install(&setup));
                }
                4 => {
                    pg.teardown(setup.handle);
                    model.handles.remove(&setup.handle);
                }
                5 => {
                    // A failed adjacency or a policy change on one source.
                    let hit = setup.route[setup.route.len() - 1];
                    let src = setup.flow.src;
                    if word % 2 == 0 {
                        pg.invalidate(|e| e.next == hit);
                        model.handles.retain(|_, e| e.next != hit);
                    } else {
                        pg.invalidate(|e| e.flow.src == src);
                        model.handles.retain(|_, e| e.flow.src != src);
                    }
                }
                6 => {
                    if pg.is_up() {
                        pg.crash();
                        model.up = false;
                        model.epoch += 1;
                        model.handles.clear();
                    } else {
                        pg.restart();
                        model.up = true;
                    }
                }
                7 => {
                    // Forwarding refreshes recency, which steers eviction.
                    let pkt = DataPacket { handle: setup.handle, src: setup.flow.src };
                    let _ = pg.forward_data(&pkt, setup.flow.src);
                    if model.up {
                        let _ = model.handles.get(&setup.handle);
                    }
                }
                _ => {
                    prop_assert_eq!(pg.purge_flow(&setup.flow), model.purge(&setup.flow));
                }
            }
            prop_assert_eq!(snapshot(&pg), model.snapshot());
            prop_assert_eq!(pg.cached_handles(), model.handles.len());
            prop_assert_eq!(pg.evictions(), model.handles.evictions);
            // The index lists exactly the cached handles of each flow:
            // purging every flow from a copy empties it, flow by flow.
            let mut copy = pg.clone();
            for flow in all_flows() {
                let cached = model.handles.iter().filter(|(_, e)| e.flow == flow).count();
                prop_assert_eq!(copy.purge_flow(&flow), cached);
            }
            prop_assert_eq!(copy.cached_handles(), 0);
        }
    }
}

/// Eviction and re-install both move a handle between index lists; the
/// proptest above reaches them at random, this pins each one down.
#[test]
fn eviction_and_reinstall_keep_the_index_exact() {
    let policy = TransitPolicy::permit_all(GW);
    let mut pg = PolicyGateway::new(GW, 2);
    let f = |s: AdId| FlowSpec::best_effort(s, AdId(4));
    let setup = |s: AdId, h: u64| SetupPacket {
        flow: f(s),
        route: vec![s, GW, AdId(4)],
        claimed_pts: vec![None],
        handle: HandleId(h),
    };
    pg.validate_setup(&policy, &setup(AdId(0), 1)).unwrap();
    pg.validate_setup(&policy, &setup(AdId(0), 2)).unwrap();
    // Re-installing handle 1 for another flow moves it off flow 0's list.
    pg.validate_setup(&policy, &setup(AdId(2), 1)).unwrap();
    // Handle 3 evicts handle 2 (now least recent), flow 0's last handle.
    pg.validate_setup(&policy, &setup(AdId(3), 3)).unwrap();
    assert_eq!(pg.evictions(), 1);
    assert_eq!(pg.clone().purge_flow(&f(AdId(0))), 0);
    assert_eq!(pg.purge_flow(&f(AdId(2))), 1);
    assert_eq!(pg.purge_flow(&f(AdId(3))), 1);
    assert_eq!(pg.cached_handles(), 0);
}
