//! `churn`: link failures and repairs beneath established policy routes,
//! in the E12 operating regime.
//!
//! A ~500-AD internet runs the ORWG link-state control plane to
//! quiescence, 400 flows open with spare routes, and a fixed-seed
//! MTBF/MTTR failure process plays over one simulated second in 20
//! epochs. Each epoch advances the control plane, re-syncs every Route
//! Server's view, repairs the flows the faults tore down, and sends five
//! packets on every open flow. These are the writes beside `serve`'s
//! reads.

use std::time::Instant;

use adroute_core::{OrwgNetwork, OrwgProtocol, Strategy};
use adroute_policy::route_is_legal;
use adroute_policy::workload::PolicyWorkload;
use adroute_protocols::forwarding::sample_flows;
use adroute_sim::{Engine, FailureModel, FailureSchedule, SimTime};
use adroute_topology::HierarchyConfig;

use crate::report::{ratio, Fnv, Metric, Mode, Rep, Span, Trace};

/// Approximate internet size and its fixed topology/policy seed.
const ADS: usize = 500;
const TOPO_SEED: u64 = 44;
/// Fixed seed of the failure process (E12's), so every replay absorbs
/// the same link events; the benchmark seed picks the flows.
const CHURN_SEED: u64 = 43;
/// Flows opened before the churn starts.
const FLOWS: usize = 400;
/// Simulated churn horizon, cut into equal epochs.
const HORIZON_MS: u64 = 1_000;
const EPOCHS: u64 = 20;
/// Packets sent on every open flow per epoch.
const SENDS_PER_FLOW: usize = 5;
/// Detour attempts per repair (as `adroute chaos`).
const REPAIR_RETRIES: usize = 3;
/// Event-log ring capacity for logged replays.
const LOG_CAPACITY: usize = 1 << 18;

#[derive(Default)]
struct Spans {
    run_until: Span,
    refresh: Span,
    repair: Span,
    send: Span,
    /// Each epoch, including the layer calls it makes.
    driver: Span,
}

#[derive(Default)]
struct Tally {
    repairs: u64,
    repaired_alt: u64,
    repaired_synth: u64,
    unrepairable: u64,
    sends: u64,
    failed_sends: u64,
}

/// One replay of the churn beneath `seed`'s flows.
pub fn rep(seed: u64, mode: Mode) -> Rep {
    let t_setup = Instant::now();
    let topo = HierarchyConfig {
        lateral_prob: 0.25,
        bypass_prob: 0.1,
        multihome_prob: 0.2,
        ..HierarchyConfig::with_approx_size(ADS, TOPO_SEED)
    }
    .generate();
    let db = PolicyWorkload::structural(TOPO_SEED).generate(&topo);
    let mut e = Engine::new(topo.clone(), OrwgProtocol::new(&topo, db));
    e.run_to_quiescence();
    let mut net = OrwgNetwork::from_engine(
        &e,
        Strategy::Cached { capacity: 1024 },
        OrwgNetwork::DEFAULT_HANDLE_CAPACITY,
    );
    for f in &sample_flows(&topo, FLOWS, seed) {
        let _ = net.open_repairable(f);
    }
    let opened = net.open_flow_count();
    let model = FailureModel {
        mtbf_ms: 300.0,
        mttr_ms: 60.0,
        fallible_fraction: 0.15,
        seed: CHURN_SEED,
    };
    let start = e.now().plus_us(1_000);
    let schedule = FailureSchedule::draw(e.topo(), &model, start, HORIZON_MS);
    schedule.apply(&mut e);
    if mode == Mode::Logged {
        e.enable_obs(LOG_CAPACITY);
        net.enable_obs(LOG_CAPACITY);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let traced = mode == Mode::Traced;
    let mut sp = Spans::default();
    let mut tally = Tally::default();
    let (events0, msgs0) = (e.stats.events, e.stats.msgs_sent);
    let synth0 = net.aggregate_synth_stats();
    let installs0 = net.obs.metrics.counter("view_full_installs");
    let t = Instant::now();
    for k in 1..=EPOCHS {
        let t_epoch = traced.then(Instant::now);
        let until = SimTime(start.as_us() + k * HORIZON_MS * 1000 / EPOCHS);
        sp.run_until.time_if(traced, || e.run_until(until));
        sp.refresh.time_if(traced, || net.refresh_from_engine(&e));
        let pending = net.pending_repair_count();
        let r = sp
            .repair
            .time_if(traced, || net.repair_pending(REPAIR_RETRIES));
        tally.repairs += pending as u64;
        tally.repaired_alt += r.repaired_via_alternate;
        tally.repaired_synth += r.repaired_via_synthesis;
        tally.unrepairable += r.failures;
        let mut handles: Vec<_> = net.open_flows().map(|(h, _)| h).collect();
        handles.sort_by_key(|h| h.0);
        for h in handles {
            for _ in 0..SENDS_PER_FLOW {
                let ok = sp.send.time_if(traced, || net.send(h)).is_ok();
                tally.sends += 1;
                tally.failed_sends += u64::from(!ok);
            }
        }
        if let Some(t0) = t_epoch {
            sp.driver.add(t0.elapsed());
        }
    }
    let wall_s = t.elapsed().as_secs_f64();

    // Ground truth is the engine's topology and policies: every surviving
    // flow must be policy-legal on it and ride only up links.
    let truth = e.topo();
    let policies = &e.protocol().policies;
    let mut errors = Vec::new();
    let mut flows: Vec<_> = net.open_flows().collect();
    flows.sort_by_key(|(h, _)| h.0);
    let mut routes = Fnv::default();
    for (h, of) in &flows {
        routes.u64(h.0);
        for ad in &of.route {
            routes.u64(u64::from(ad.0));
        }
        let links_up = of.route.windows(2).all(|w| {
            truth
                .link_between(w[0], w[1])
                .is_some_and(|l| truth.link(l).up)
        });
        if !links_up || route_is_legal(truth, policies, &of.flow, &of.route).is_none() {
            errors.push(format!(
                "flow {h} ({} -> {}) holds an illegal or dead route",
                of.flow.src, of.flow.dst
            ));
            break;
        }
    }
    if tally.repaired_alt + tally.repaired_synth + tally.unrepairable != tally.repairs {
        errors.push(format!(
            "repairs not conserved: {} pending, {} alternate + {} synthesis + {} failed",
            tally.repairs, tally.repaired_alt, tally.repaired_synth, tally.unrepairable
        ));
    }

    let link_events = schedule.len() as u64;
    let msgs = e.stats.msgs_sent - msgs0;
    let synth = net.aggregate_synth_stats();
    let digest = format!(
        "opened={opened} link_events={link_events} repairs={}/{}/{}/{} sends={}/{} \
         open_flows={} routes={:016x} stats={}",
        tally.repairs,
        tally.repaired_alt,
        tally.repaired_synth,
        tally.unrepairable,
        tally.sends,
        tally.failed_sends,
        flows.len(),
        routes.finish(),
        e.stats.to_json()
    );
    let sim = vec![
        Metric::new(
            "fail_ratio",
            ratio(
                tally.unrepairable + tally.failed_sends,
                tally.repairs + tally.sends,
            ),
            "ratio",
        ),
        Metric::new("ctl_msgs_per_link_event", ratio(msgs, link_events), "count"),
        Metric::new("link_events", link_events as f64, "count"),
        Metric::new("flows_opened", opened as f64, "count"),
    ];
    let trace = traced.then(|| {
        let layer_s = sp.run_until.secs() + sp.refresh.secs() + sp.repair.secs() + sp.send.secs();
        let driver_s = sp.driver.secs() - layer_s;
        Trace {
            layers: vec![
                Metric::new("sim.engine.run_until_s", sp.run_until.secs(), "s"),
                Metric::new(
                    "sim.engine.events",
                    (e.stats.events - events0) as f64,
                    "count",
                ),
                Metric::new("sim.engine.msgs_sent", msgs as f64, "count"),
                Metric::new("core.network.refresh_s", sp.refresh.secs(), "s"),
                Metric::new(
                    "core.synthesis.entries_invalidated",
                    (synth.entries_invalidated - synth0.entries_invalidated) as f64,
                    "count",
                ),
                Metric::new(
                    "core.synthesis.revalidations",
                    (synth.revalidations - synth0.revalidations) as f64,
                    "count",
                ),
                Metric::new(
                    "core.network.view_full_installs",
                    (net.obs.metrics.counter("view_full_installs") - installs0) as f64,
                    "count",
                ),
                Metric::new("core.network.repair_s", sp.repair.secs(), "s"),
                Metric::new(
                    "core.network.repaired_via_alternate",
                    tally.repaired_alt as f64,
                    "count",
                ),
                Metric::new(
                    "core.network.repaired_via_synthesis",
                    tally.repaired_synth as f64,
                    "count",
                ),
                Metric::new(
                    "core.network.repair_failures",
                    tally.unrepairable as f64,
                    "count",
                ),
                Metric::new("core.network.send_s", sp.send.secs(), "s"),
                Metric::new("core.network.sends", sp.send.calls as f64, "count"),
            ],
            layer_s,
            driver_s,
        }
    });
    Rep {
        setup_s,
        wall_s,
        ops: link_events,
        digest,
        sim,
        errors,
        trace,
    }
}
