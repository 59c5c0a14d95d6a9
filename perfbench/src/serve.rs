//! `serve`: the e9b open-loop storm through sharded Route Server service.
//!
//! Plain and logged replays call `run_load_ramp`. The traced replay drives
//! the same storm through the public `OrwgNetwork` entry points in a loop
//! of its own that mirrors the library's driver, so each call into a
//! layer can be timed; its report must equal the library's field for
//! field, which the digest comparison enforces.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use adroute_core::{
    run_load_ramp, AdmissionVerdict, BrownoutRung, OrwgNetwork, PendingOpen, PhaseReport,
    ServeOutcome, ShardConfig, StressConfig, StressReport,
};
use adroute_policy::workload::PolicyWorkload;
use adroute_policy::FlowSpec;
use adroute_sim::{EventId, OpenStorm, SimTime, StormPhase};
use adroute_topology::{AdId, HierarchyConfig, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::{ratio, Metric, Mode, Rep, Span, Trace};

/// The e9b scenario's seed: it fixes the topology, the policies and the
/// storm, so every replay offers the same 30,100 opens. The benchmark
/// seed drives the clients' retry jitter.
const E9B_SEED: u64 = 23;
/// Phase length and offered rates of the e9b ramp (30,100 opens).
const PHASE_MS: u64 = 100;
const RATES: [u64; 4] = [6_000, 25_000, 70_000, 200_000];
/// Event-log ring capacity for logged replays (as `adroute stress`).
const LOG_CAPACITY: usize = 1 << 18;

fn e9b_topology() -> Topology {
    HierarchyConfig {
        lateral_prob: 0.25,
        bypass_prob: 0.1,
        multihome_prob: 0.2,
        ..HierarchyConfig::with_approx_size(120, E9B_SEED)
    }
    .generate()
}

/// `adroute stress e9b --sharded`'s configuration, without the crash;
/// `seed` drives the retry jitter.
fn config(seed: u64) -> StressConfig {
    StressConfig {
        seed,
        sharding: Some(ShardConfig::default()),
        service_full_us: 6_000,
        service_cached_us: 1_200,
        service_stored_us: 600,
        crash: None,
        ..StressConfig::default()
    }
}

/// Timed entry points of the traced replay.
#[derive(Default)]
struct Spans {
    offer: Span,
    serve_batch: Span,
    abandon: Span,
    retry: Span,
    refill: Span,
    /// The driver loop: each iteration, including the layer calls it makes.
    driver: Span,
    admission_shed: u64,
    opens_popped: u64,
    handles_purged: u64,
}

impl Spans {
    fn layer_s(&self) -> f64 {
        self.offer.secs()
            + self.serve_batch.secs()
            + self.abandon.secs()
            + self.retry.secs()
            + self.refill.secs()
    }
}

enum Ev {
    Offer(PendingOpen),
    Serve(AdId),
}

struct HeapEv {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapEv {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEv {}
impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-first on (time, insertion order).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The benchmark's own storm driver: the client and server-slot logic of
/// `run_load_ramp` for sharded service without a crash.
struct Loop<'a> {
    net: &'a mut OrwgNetwork,
    cfg: &'a StressConfig,
    shard: ShardConfig,
    spans: &'a mut Spans,
    heap: BinaryHeap<HeapEv>,
    seq: u64,
    rng: SmallRng,
    next_free: Vec<SimTime>,
    serve_scheduled: Vec<bool>,
    phases: Vec<PhaseReport>,
    retries: u64,
}

impl Loop<'_> {
    fn push(&mut self, at: SimTime, ev: Ev) {
        self.seq += 1;
        self.heap.push(HeapEv {
            at,
            seq: self.seq,
            ev,
        });
    }

    fn service_us(&self, rung: BrownoutRung) -> u64 {
        match rung {
            BrownoutRung::Full => self.cfg.service_full_us,
            BrownoutRung::Cached => self.cfg.service_cached_us,
            BrownoutRung::Stored => self.cfg.service_stored_us,
        }
    }

    fn on_shed(&mut self, now: SimTime, open: PendingOpen, retry_after_us: u64) {
        self.phases[open.phase].shed += 1;
        let next_attempt = open.attempt + 1;
        let jitter = self.rng.gen_range(0..self.cfg.retry.jitter_us.max(1));
        let wait = self.cfg.retry.wait_us(open.attempt, retry_after_us, jitter);
        let retry_at = now.plus_us(wait);
        if next_attempt >= self.cfg.retry.max_attempts || retry_at >= open.deadline {
            self.phases[open.phase].abandoned += 1;
            let net = &mut *self.net;
            self.spans.handles_purged += self.spans.abandon.time(|| {
                net.abandon_open(
                    &open.flow,
                    u64::from(next_attempt),
                    open.arrival,
                    open.cause,
                )
            }) as u64;
        } else {
            self.retries += 1;
            let net = &mut *self.net;
            let retry_id: Option<EventId> = self
                .spans
                .retry
                .time(|| net.note_retry(&open.flow, next_attempt, wait, open.cause));
            self.push(
                retry_at,
                Ev::Offer(PendingOpen {
                    offered_at: retry_at,
                    attempt: next_attempt,
                    cause: retry_id,
                    ..open
                }),
            );
        }
    }

    fn on_offer(&mut self, now: SimTime, open: PendingOpen) {
        if open.attempt == 0 {
            self.phases[open.phase].offered += 1;
        }
        let src = open.flow.src;
        let net = &mut *self.net;
        match self.spans.offer.time(|| net.offer_open(open)) {
            AdmissionVerdict::Queued { .. } => {
                if !self.serve_scheduled[src.index()] {
                    self.serve_scheduled[src.index()] = true;
                    let at = now.max(self.next_free[src.index()]);
                    self.push(at, Ev::Serve(src));
                }
            }
            AdmissionVerdict::Shed {
                open,
                retry_after_us,
                event,
            } => {
                self.spans.admission_shed += 1;
                let open = PendingOpen {
                    cause: event.or(open.cause),
                    ..open
                };
                self.on_shed(now, open, retry_after_us);
            }
        }
    }

    /// Phase bookkeeping for one outcome; the rung the slot is charged
    /// for, or `None` for a free expiry.
    fn record(&mut self, now: SimTime, outcome: ServeOutcome) -> Option<BrownoutRung> {
        match outcome {
            ServeOutcome::Expired { open } => {
                self.phases[open.phase].abandoned += 1;
                None
            }
            ServeOutcome::Served { open, rung, .. } => {
                let p = &mut self.phases[open.phase];
                p.served += 1;
                match rung {
                    BrownoutRung::Full => p.served_full += 1,
                    BrownoutRung::Cached => p.served_cached += 1,
                    BrownoutRung::Stored => p.served_stored += 1,
                }
                Some(rung)
            }
            ServeOutcome::Shed {
                open,
                retry_after_us,
                event,
            } => {
                let open = PendingOpen {
                    cause: event.or(open.cause),
                    ..open
                };
                self.on_shed(now, open, retry_after_us);
                Some(BrownoutRung::Stored)
            }
            ServeOutcome::NoRoute { open, rung } => {
                self.phases[open.phase].no_route += 1;
                Some(rung)
            }
            ServeOutcome::Failed { open, rung, .. } => {
                self.phases[open.phase].failed += 1;
                Some(rung)
            }
        }
    }

    /// One sharded service slot, charged as the library charges it.
    fn on_serve(&mut self, now: SimTime, ad: AdId) {
        let classes_before = self.net.server(ad).sweep.classes;
        let (net, shard) = (&mut *self.net, self.shard);
        let outcomes = self.spans.serve_batch.time(|| net.serve_batch(ad, shard));
        self.spans.opens_popped += outcomes.len() as u64;
        let classes = self.net.server(ad).sweep.classes - classes_before;
        let mut busy_us = 0;
        let mut cached = 0u64;
        for outcome in outcomes {
            match self.record(now, outcome) {
                Some(BrownoutRung::Cached) => cached += 1,
                Some(rung) => busy_us += self.service_us(rung),
                None => {}
            }
        }
        busy_us += classes.min(cached) * self.cfg.service_cached_us
            + cached.saturating_sub(classes) * self.cfg.service_stored_us;
        self.next_free[ad.index()] = now.plus_us(busy_us);
        if self.net.admission(ad).is_empty() {
            self.serve_scheduled[ad.index()] = false;
            let (net, budget) = (&mut *self.net, self.shard.refill_budget);
            self.spans.refill.time(|| net.background_refill(ad, budget));
        } else {
            let at = self.next_free[ad.index()];
            self.push(at, Ev::Serve(ad));
        }
    }
}

/// Replays the storm through the benchmark's own loop, timing each layer
/// call. Returns the report `run_load_ramp` would have returned.
fn replay_traced(
    net: &mut OrwgNetwork,
    storm: &OpenStorm,
    durations_us: &[u64],
    cfg: &StressConfig,
    spans: &mut Spans,
) -> StressReport {
    let t_init = Instant::now();
    let shard = cfg.sharding.expect("the serve workload is sharded");
    let n_ads = net.topo().num_ads();
    let mut admission = cfg.admission;
    admission.age_watermark_us = admission
        .age_watermark_us
        .saturating_mul(shard.max_batch.max(1) as u64);
    net.set_admission(admission);
    let mut lp = Loop {
        net,
        cfg,
        shard,
        spans,
        heap: BinaryHeap::new(),
        seq: 0,
        rng: SmallRng::seed_from_u64(cfg.seed ^ 0x6f76_6572_6c6f_6164),
        next_free: vec![SimTime::ZERO; n_ads],
        serve_scheduled: vec![false; n_ads],
        phases: durations_us
            .iter()
            .map(|&d| PhaseReport {
                duration_us: d,
                ..PhaseReport::default()
            })
            .collect(),
        retries: 0,
    };
    for a in storm.arrivals() {
        lp.push(
            a.at,
            Ev::Offer(PendingOpen {
                flow: FlowSpec::best_effort(a.src, a.dst),
                offered_at: a.at,
                arrival: a.at,
                deadline: a.at.plus_us(cfg.deadline_us),
                attempt: 0,
                phase: a.phase,
                cause: None,
            }),
        );
    }
    lp.spans.driver.add(t_init.elapsed());
    loop {
        let t = Instant::now();
        let Some(HeapEv { at, ev, .. }) = lp.heap.pop() else {
            lp.spans.driver.add(t.elapsed());
            break;
        };
        lp.net.set_clock(at);
        match ev {
            Ev::Offer(open) => lp.on_offer(at, open),
            Ev::Serve(ad) => lp.on_serve(at, ad),
        }
        lp.spans.driver.add(t.elapsed());
    }
    let t_fin = Instant::now();
    let phases = lp.phases;
    let total = |f: fn(&PhaseReport) -> u64| phases.iter().map(f).sum::<u64>();
    let (p50, p99) = lp
        .net
        .obs
        .metrics
        .histogram("setup_wait_us")
        .map(|h| (h.quantile(0.5), h.quantile(0.99)))
        .unwrap_or((0, 0));
    let report = StressReport {
        offered: total(|p| p.offered),
        served: total(|p| p.served),
        shed: total(|p| p.shed),
        abandoned: total(|p| p.abandoned),
        no_route: total(|p| p.no_route),
        failed: total(|p| p.failed),
        retries: lp.retries,
        p50_wait_us: p50,
        p99_wait_us: p99,
        failover: None,
        chain: None,
        phases,
    };
    lp.spans.driver.add(t_fin.elapsed());
    report
}

/// One replay of the e9b storm with `seed`'s retry jitter.
pub fn rep(seed: u64, mode: Mode) -> Rep {
    let t_setup = Instant::now();
    let topo = e9b_topology();
    let db = PolicyWorkload::structural(E9B_SEED).generate(&topo);
    let mut net = OrwgNetwork::converged(&topo, &db);
    let phases: Vec<StormPhase> = RATES
        .iter()
        .map(|&opens_per_sec| StormPhase {
            duration_ms: PHASE_MS,
            opens_per_sec,
        })
        .collect();
    let storm = OpenStorm::draw(&topo, &phases, SimTime::ZERO, E9B_SEED);
    let durations_us: Vec<u64> = phases.iter().map(|p| p.duration_ms * 1000).collect();
    let cfg = config(seed);
    if mode == Mode::Logged {
        net.enable_obs(LOG_CAPACITY);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut spans = Spans::default();
    let mut report = match mode {
        Mode::Traced => replay_traced(&mut net, &storm, &durations_us, &cfg, &mut spans),
        _ => run_load_ramp(&mut net, &storm, &durations_us, &cfg),
    };
    let wall_s = t.elapsed().as_secs_f64();

    let mut errors = Vec::new();
    let settled = report.served + report.abandoned + report.no_route + report.failed;
    if report.offered != storm.len() as u64 || settled != report.offered {
        errors.push(format!(
            "opens not conserved: drawn {}, offered {}, served+abandoned+no_route+failed {settled}",
            storm.len(),
            report.offered
        ));
    }
    // The exemplar chain is made of event-log ids, which exist only when
    // the log is on; everything else is the simulated outcome.
    report.chain = None;
    let digest = format!("{report:?}");
    let attempts = report.offered + report.retries;
    let sim = vec![
        Metric::new(
            "fail_ratio",
            ratio(
                report.abandoned + report.no_route + report.failed,
                report.offered,
            ),
            "ratio",
        ),
        Metric::new(
            "served_ratio",
            ratio(report.served, report.offered),
            "ratio",
        ),
        Metric::new("shed_rate", ratio(report.shed, attempts), "ratio"),
        Metric::new("setup_wait_p50_us", report.p50_wait_us as f64, "us"),
        Metric::new("setup_wait_p99_us", report.p99_wait_us as f64, "us"),
        Metric::new(
            "peak_goodput_per_s",
            report
                .phases
                .iter()
                .map(|p| p.goodput_per_sec())
                .max()
                .unwrap_or(0) as f64,
            "1/s",
        ),
    ];
    let trace = (mode == Mode::Traced).then(|| {
        let synth = net.aggregate_synth_stats();
        let sweep = net.aggregate_sweep_stats();
        let layer_s = spans.layer_s();
        let driver_self_s = spans.driver.secs() - layer_s;
        Trace {
            layers: vec![
                Metric::new("core.overload.offer_s", spans.offer.secs(), "s"),
                Metric::new("core.overload.offers", spans.offer.calls as f64, "count"),
                Metric::new(
                    "core.overload.admission_shed",
                    spans.admission_shed as f64,
                    "count",
                ),
                Metric::new("core.overload.driver_self_s", driver_self_s, "s"),
                Metric::new("core.network.serve_batch_s", spans.serve_batch.secs(), "s"),
                Metric::new(
                    "core.network.opens_popped",
                    spans.opens_popped as f64,
                    "count",
                ),
                Metric::new("core.network.abandon_s", spans.abandon.secs(), "s"),
                Metric::new("core.network.abandons", spans.abandon.calls as f64, "count"),
                Metric::new("core.network.retry_s", spans.retry.secs(), "s"),
                Metric::new("core.network.retries", spans.retry.calls as f64, "count"),
                Metric::new("core.network.refill_s", spans.refill.secs(), "s"),
                Metric::new("core.synthesis.searches", synth.searches as f64, "count"),
                Metric::new(
                    "core.synthesis.cache_hits",
                    synth.cache_hits as f64,
                    "count",
                ),
                Metric::new("core.synthesis.hot_hits", sweep.hot_hits as f64, "count"),
                Metric::new("core.synthesis.sweeps", sweep.sweeps as f64, "count"),
                Metric::new(
                    "core.synthesis.hit_ratio",
                    ratio(synth.cache_hits, synth.requests),
                    "ratio",
                ),
                Metric::new("core.synthesis.refills", sweep.refills as f64, "count"),
                Metric::new(
                    "core.gateway.handles_purged",
                    spans.handles_purged as f64,
                    "count",
                ),
            ],
            layer_s,
            driver_s: driver_self_s,
        }
    });
    Rep {
        setup_s,
        wall_s,
        ops: report.offered,
        digest,
        sim,
        errors,
        trace,
    }
}
