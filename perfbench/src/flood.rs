//! `flood` and `flood-par`: the cheap gossip flood over a ~10⁴-AD
//! hierarchy, run sequentially or on two region-parallel lanes.
//!
//! Gossip handlers are a few array reads, so the engine's dispatch and
//! queueing carry almost all the work. The sequential run is the control
//! for the parallel one: both must end in the same state.

use std::cell::Cell;
use std::time::Instant;

use adroute_protocols::gossip::{Gossip, GossipRouter};
use adroute_sim::{Ctx, Engine, Protocol, SimTime, Stats};
use adroute_topology::{AdId, HierarchyConfig, LinkId, Topology};

use crate::report::{timed, Fnv, Metric, Mode, Rep, Trace};

/// Approximate internet size (`adroute bench --engine`'s default).
const ADS: usize = 10_000;
/// `bench --engine`'s flood, run for four times as many rounds so one
/// replay lasts long enough to time steadily.
const GOSSIP: Gossip = Gossip {
    origins: 8,
    rounds: 16,
    period_us: 50_000,
    work: 0,
};
/// Region lanes of `flood-par` (the host has two CPUs).
const LANES: usize = 2;
/// Event-log ring capacity for logged replays (as `bench --obs`).
const LOG_CAPACITY: usize = 1 << 16;

thread_local! {
    /// Set on the thread that calls into the engine, so handler time is
    /// split between the calling thread and the parallel lanes.
    static ON_CALLER: Cell<bool> = const { Cell::new(false) };
}

/// [`Gossip`] with every handler call timed. The time is kept in each
/// router's own state, which only one lane touches at a time, so lanes
/// never contend on a shared counter.
struct Timed(Gossip);

struct TimedRouter {
    inner: GossipRouter,
    caller_ns: u64,
    lane_ns: u64,
    calls: u64,
}

impl TimedRouter {
    #[inline]
    fn charge(&mut self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        if ON_CALLER.with(Cell::get) {
            self.caller_ns += ns;
        } else {
            self.lane_ns += ns;
        }
        self.calls += 1;
    }
}

impl Protocol for Timed {
    type Router = TimedRouter;
    type Msg = u32;

    fn make_router(&self, topo: &Topology, ad: AdId) -> TimedRouter {
        TimedRouter {
            inner: self.0.make_router(topo, ad),
            caller_ns: 0,
            lane_ns: 0,
            calls: 0,
        }
    }

    fn on_start(&self, r: &mut TimedRouter, ctx: &mut Ctx<'_, u32>) {
        let t = Instant::now();
        self.0.on_start(&mut r.inner, ctx);
        r.charge(t);
    }

    fn on_message(
        &self,
        r: &mut TimedRouter,
        ctx: &mut Ctx<'_, u32>,
        from: AdId,
        link: LinkId,
        wave: u32,
    ) {
        let t = Instant::now();
        self.0.on_message(&mut r.inner, ctx, from, link, wave);
        r.charge(t);
    }

    fn on_timer(&self, r: &mut TimedRouter, ctx: &mut Ctx<'_, u32>, round: u64) {
        let t = Instant::now();
        self.0.on_timer(&mut r.inner, ctx, round);
        r.charge(t);
    }

    fn msg_size(&self, msg: &u32) -> usize {
        self.0.msg_size(msg)
    }
}

fn drive<P>(e: &mut Engine<P>, parallel: bool) -> SimTime
where
    P: Protocol + Sync,
    P::Router: Send,
    P::Msg: Send,
{
    if parallel {
        e.run_to_quiescence_parallel(LANES)
    } else {
        e.run_to_quiescence()
    }
}

/// The final state both engines must agree on, plus oracle checks that
/// need neither engine: every router saw every wave, and the message and
/// event totals match the flood's closed form.
fn outcome<'a>(
    topo: &Topology,
    stats: &Stats,
    quiesced: SimTime,
    routers: impl Iterator<Item = &'a GossipRouter>,
) -> (String, Vec<String>) {
    let waves = u64::from(GOSSIP.total_waves());
    let mut errors = Vec::new();
    let mut state = Fnv::default();
    for (i, r) in routers.enumerate() {
        state.u64(r.waves_seen);
        state.u64(r.checksum);
        if r.waves_seen != waves && errors.is_empty() {
            errors.push(format!("AD{i} saw {} of {waves} waves", r.waves_seen));
        }
    }
    let up_links = topo.links().filter(|l| l.up).count() as u64;
    let sends = waves * 2 * up_links;
    let timers = GOSSIP.origins.min(topo.num_ads()) as u64 * u64::from(GOSSIP.rounds - 1);
    let events = topo.num_ads() as u64 + timers + sends;
    if stats.msgs_sent != sends || stats.msgs_delivered != sends || stats.events != events {
        errors.push(format!(
            "flood totals: sent {} delivered {} events {}, expected {sends}/{sends}/{events}",
            stats.msgs_sent, stats.msgs_delivered, stats.events
        ));
    }
    let mut per_ad = Fnv::default();
    for &m in &stats.per_ad_msgs {
        per_ad.u64(m);
    }
    let digest = format!(
        "quiesced_us={} routers={:016x} per_ad_msgs={:016x} stats={}",
        quiesced.as_us(),
        state.finish(),
        per_ad.finish(),
        stats.to_json()
    );
    (digest, errors)
}

/// One replay of the flood from `seed`'s topology.
pub fn rep(seed: u64, parallel: bool, mode: Mode) -> Rep {
    let t_setup = Instant::now();
    let topo = HierarchyConfig::with_approx_size(ADS, seed).generate();
    if mode == Mode::Traced {
        let mut e = Engine::new(topo, Timed(GOSSIP));
        if parallel {
            // The lane and pool figures live in the profiler-gated registry.
            e.enable_prof();
        }
        let setup_s = t_setup.elapsed().as_secs_f64();
        let ((quiesced, engine_s), wall_s) = timed(|| {
            ON_CALLER.with(|c| c.set(true));
            let r = timed(|| drive(&mut e, parallel));
            ON_CALLER.with(|c| c.set(false));
            r
        });
        let n = e.topo().num_ads();
        let routers: Vec<&TimedRouter> = (0..n).map(|i| e.router(AdId(i as u32))).collect();
        let (digest, errors) = outcome(
            e.topo(),
            &e.stats,
            quiesced,
            routers.iter().map(|r| &r.inner),
        );
        let caller_ns: u64 = routers.iter().map(|r| r.caller_ns).sum();
        let lane_ns: u64 = routers.iter().map(|r| r.lane_ns).sum();
        let calls: u64 = routers.iter().map(|r| r.calls).sum();
        let m = &e.obs.metrics;
        let hist_sum = |name: &str| m.histogram(name).map_or(0, |h| h.sum) as f64;
        let layers = vec![
            Metric::new(
                "sim.engine.dispatch_s",
                engine_s - caller_ns as f64 * 1e-9,
                "s",
            ),
            Metric::new("sim.engine.events", e.stats.events as f64, "count"),
            Metric::new("sim.engine.msgs_sent", e.stats.msgs_sent as f64, "count"),
            Metric::new(
                "protocols.gossip.handler_s",
                (caller_ns + lane_ns) as f64 * 1e-9,
                "s",
            ),
            Metric::new("protocols.gossip.calls", calls as f64, "count"),
            Metric::new(
                "sim.parallel.windows",
                m.counter("parallel_windows") as f64,
                "count",
            ),
            Metric::new(
                "sim.parallel.lane_imbalance_us",
                hist_sum("lane_imbalance_us"),
                "us",
            ),
            Metric::new(
                "sim.parallel.lookahead_stall_us",
                hist_sum("lookahead_stall_us"),
                "us",
            ),
            Metric::new(
                "sim.pool.busy_s",
                m.counter("pool_busy_us") as f64 * 1e-6,
                "s",
            ),
            Metric::new("sim.pool.jobs", m.counter("pool_jobs_run") as f64, "count"),
        ];
        return Rep {
            setup_s,
            wall_s,
            ops: e.stats.events,
            digest,
            sim: Vec::new(),
            errors,
            trace: Some(Trace {
                layers,
                // The replay is one engine call; there is no driver loop.
                layer_s: engine_s,
                driver_s: 0.0,
            }),
        };
    }
    let mut e = Engine::new(topo, GOSSIP);
    if mode == Mode::Logged {
        e.enable_obs(LOG_CAPACITY);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    let (quiesced, wall_s) = timed(|| drive(&mut e, parallel));
    let n = e.topo().num_ads();
    let (digest, errors) = outcome(
        e.topo(),
        &e.stats,
        quiesced,
        (0..n).map(|i| e.router(AdId(i as u32))),
    );
    Rep {
        setup_s,
        wall_s,
        ops: e.stats.events,
        digest,
        sim: vec![Metric::new("events", e.stats.events as f64, "count")],
        errors,
        trace: None,
    }
}
