//! adroute's benchmark runner: four workloads, end-to-end metrics from
//! plain replays, per-layer metrics from traced ones (see README.md).
//!
//! ```text
//! perfbench --workload <flood|flood-par|serve|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Standard output ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). The line before it carries provenance, every metric the
//! workload defines under its own name, and the attribution rows.

mod churn;
mod flood;
mod host;
mod report;
mod serve;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use report::{Fnv, Metric, Mode, Rep, Trace};

const USAGE: &str = "usage: perfbench --workload <flood|flood-par|serve|churn> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// Fewest replays a plain run makes, whatever `--seconds` says.
const MIN_REPLAYS: usize = 3;
/// Fewest (plain, traced, logged) triples a traced run makes.
const MIN_CYCLES: usize = 2;

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.engine.dispatch_s", "s"),
    ("sim.engine.run_until_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.engine.msgs_sent", "count"),
    ("protocols.gossip.handler_s", "s"),
    ("protocols.gossip.calls", "count"),
    ("sim.parallel.windows", "count"),
    ("sim.parallel.lane_imbalance_us", "us"),
    ("sim.parallel.lookahead_stall_us", "us"),
    ("sim.pool.busy_s", "s"),
    ("sim.pool.jobs", "count"),
    ("core.overload.offer_s", "s"),
    ("core.overload.offers", "count"),
    ("core.overload.admission_shed", "count"),
    ("core.overload.driver_self_s", "s"),
    ("core.network.serve_batch_s", "s"),
    ("core.network.opens_popped", "count"),
    ("core.network.abandon_s", "s"),
    ("core.network.abandons", "count"),
    ("core.network.retry_s", "s"),
    ("core.network.retries", "count"),
    ("core.network.refill_s", "s"),
    ("core.network.refresh_s", "s"),
    ("core.network.view_full_installs", "count"),
    ("core.network.repair_s", "s"),
    ("core.network.repaired_via_alternate", "count"),
    ("core.network.repaired_via_synthesis", "count"),
    ("core.network.repair_failures", "count"),
    ("core.network.send_s", "s"),
    ("core.network.sends", "count"),
    ("core.synthesis.searches", "count"),
    ("core.synthesis.cache_hits", "count"),
    ("core.synthesis.hot_hits", "count"),
    ("core.synthesis.sweeps", "count"),
    ("core.synthesis.hit_ratio", "ratio"),
    ("core.synthesis.refills", "count"),
    ("core.synthesis.entries_invalidated", "count"),
    ("core.synthesis.revalidations", "count"),
    ("core.gateway.handles_purged", "count"),
    ("sim.obs.log_overhead", "ratio"),
    ("layers_s", "s"),
    ("driver_s", "s"),
    ("unattributed_s", "s"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Flood,
    FloodPar,
    Serve,
    Churn,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "flood" => Workload::Flood,
            "flood-par" => Workload::FloodPar,
            "serve" => Workload::Serve,
            "churn" => Workload::Churn,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Flood => "flood",
            Workload::FloodPar => "flood-par",
            Workload::Serve => "serve",
            Workload::Churn => "churn",
        }
    }

    /// The workload's own name for `ops_per_s`.
    fn ops_name(self) -> &'static str {
        match self {
            Workload::Flood | Workload::FloodPar => "events_per_s",
            Workload::Serve => "opens_per_s",
            Workload::Churn => "link_events_per_s",
        }
    }

    fn replay(self, seed: u64, mode: Mode) -> Rep {
        match self {
            Workload::Flood => flood::rep(seed, false, mode),
            Workload::FloodPar => flood::rep(seed, true, mode),
            Workload::Serve => serve::rep(seed, mode),
            Workload::Churn => churn::rep(seed, mode),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, found '{value}'")),
                    }
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: seconds.max(1),
            trace,
        })
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Digest of the program's sources in the working directory, for
/// checkouts that carry no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.bytes(f.to_string_lossy().as_bytes());
            h.bytes(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn provenance(seed: u64) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git_rev = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten();
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"host_cpus\":{host_cpus},\"git_rev\":{},\"src_digest\":\"{}\",\"rustc\":{},\"seed\":{seed}}}",
        git_rev.map_or("null".into(), |r| json_str(&r)),
        source_digest(),
        json_str(&rustc)
    )
}

/// Replays, checks, and the errors found across them.
#[derive(Default)]
struct Run {
    reps: Vec<Rep>,
    /// Host factor of each replay (see [`host`]).
    factors: Vec<f64>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Run {
    /// Records one replay: its own checks, and agreement with the first
    /// replay's simulated outcome.
    fn push(&mut self, rep: Rep, mode: Mode, factor: f64) {
        self.attempted += 1;
        let mut errors: Vec<String> = rep
            .errors
            .iter()
            .map(|e| format!("{mode:?}: {e}"))
            .collect();
        if let Some(first) = self.reps.first() {
            if first.digest != rep.digest {
                errors.push(format!(
                    "{mode:?} replay's simulated outcome differs from the first replay's: {} vs {}",
                    rep.digest, first.digest
                ));
            }
        }
        if !errors.is_empty() {
            self.failed += 1;
            self.errors.extend(errors);
        }
        self.reps.push(rep);
        self.factors.push(factor);
    }
}

/// `flood` and `flood-par` are each other's control: one replay on the
/// other engine must end in exactly the same state.
fn cross_check(args: &Args, run: &mut Run) {
    let other = match args.workload {
        Workload::Flood => Workload::FloodPar,
        Workload::FloodPar => Workload::Flood,
        _ => return,
    };
    let rep = other.replay(args.seed, Mode::Plain);
    run.attempted += 1;
    let first = &run.reps[0].digest;
    if rep.digest != *first || !rep.errors.is_empty() {
        run.failed += 1;
        run.errors.push(format!(
            "{} and {} disagree: {} vs {first} {:?}",
            other.name(),
            args.workload.name(),
            rep.digest,
            rep.errors
        ));
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut run = Run::default();
    let mut calibrator = host::Calibrator::new();
    let mut before = calibrator.factor();
    let mut replay = |run: &mut Run, mode: Mode| {
        let rep = w.replay(args.seed, mode);
        let after = calibrator.factor();
        run.push(rep, mode, (before + after) / 2.0);
        before = after;
    };
    if args.trace {
        let mut cycles = 0;
        while cycles < MIN_CYCLES || started.elapsed() < budget {
            for mode in [Mode::Plain, Mode::Traced, Mode::Logged] {
                replay(&mut run, mode);
            }
            cycles += 1;
        }
    } else {
        while run.reps.len() < MIN_REPLAYS || started.elapsed() < budget {
            replay(&mut run, Mode::Plain);
        }
    }
    // Sampled before the cross-check, whose engine may differ in memory,
    // and net of the calibration table, which stays resident throughout.
    let rss = peak_rss_mb().map(|mb| mb - host::TABLE_BYTES as f64 / (1 << 20) as f64);
    cross_check(&args, &mut run);

    // A traced run replays in (plain, traced, logged) triples.
    let stride = if args.trace { 3 } else { 1 };
    let plain_reps: Vec<&Rep> = run.reps.iter().step_by(stride).collect();
    let plain_factors: Vec<f64> = run.factors.iter().step_by(stride).copied().collect();
    let corrected = |f: fn(&Rep) -> f64| {
        median(
            plain_reps
                .iter()
                .zip(&plain_factors)
                .map(|(r, k)| f(r) / k)
                .collect(),
        )
    };
    let setup_s = corrected(|r| r.setup_s);
    let ops_per_s = 1.0 / corrected(|r| r.wall_s / r.ops as f64);
    let raw_setup_s = median(plain_reps.iter().map(|r| r.setup_s).collect());
    let raw_ops_per_s = median(plain_reps.iter().map(|r| r.ops as f64 / r.wall_s).collect());
    if rss.is_none() {
        run.errors
            .push("peak RSS unavailable (no /proc/self/status)".into());
        run.failed += 1;
    }
    let end_to_end = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ops_per_s", ops_per_s, "1/s"),
        Metric::new("peak_rss_mb", rss.unwrap_or(0.0), "MiB"),
    ];
    let mut named = end_to_end.clone();
    named[1].name = w.ops_name();
    named.extend([
        Metric::new("host_factor", median(plain_factors), "ratio"),
        Metric::new("setup_s_uncorrected", raw_setup_s, "s"),
        Metric::new("ops_per_s_uncorrected", raw_ops_per_s, "1/s"),
    ]);
    named.extend(run.reps[0].sim.iter().cloned());

    let mut detail = format!(
        "{{\"perfbench\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"provenance\":{},\"replays\":{},\"untraced_walls_s\":[{}],\"metrics\":{}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        provenance(args.seed),
        run.reps.len(),
        plain_reps
            .iter()
            .map(|r| r.wall_s.to_string())
            .collect::<Vec<_>>()
            .join(","),
        json_metrics(&named)
    );
    let mut metrics = if args.trace {
        let untraced_s = median(plain_reps.iter().map(|r| r.wall_s).collect());
        // Report the traced replay whose wall time is the median, so its
        // layer figures add up against one measured wall time.
        let mut traced: Vec<&Rep> = run.reps.iter().skip(1).step_by(stride).collect();
        traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let pick = traced[(traced.len() - 1) / 2];
        let logged_walls = run
            .reps
            .iter()
            .skip(2)
            .step_by(stride)
            .map(|r| r.wall_s)
            .collect();
        let Trace {
            layers,
            layer_s,
            driver_s,
        } = pick.trace.clone().expect("traced replays carry a trace");
        let unattributed_s = pick.wall_s - layer_s - driver_s;
        let attribution = vec![
            Metric::new("traced_wall_s", pick.wall_s, "s"),
            Metric::new("untraced_median_s", untraced_s, "s"),
            Metric::new("layers_s", layer_s, "s"),
            Metric::new("driver_s", driver_s, "s"),
            Metric::new("unattributed_s", unattributed_s, "s"),
            Metric::new("unattributed_share", unattributed_s / pick.wall_s, "ratio"),
            Metric::new("trace_overhead", pick.wall_s / untraced_s, "ratio"),
            Metric::new(
                "sim.obs.log_overhead",
                median(logged_walls) / untraced_s,
                "ratio",
            ),
        ];
        let _ = write!(detail, ",\"attribution\":{}", json_metrics(&attribution));
        let mut out = Vec::new();
        for &(name, unit) in PER_LAYER {
            let value = layers
                .iter()
                .chain(&attribution)
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            out.push(Metric::new(name, value, unit));
        }
        for m in &layers {
            if !PER_LAYER.iter().any(|&(n, _)| n == m.name) {
                run.errors
                    .push(format!("layer metric {} is not listed", m.name));
                run.failed += 1;
            }
        }
        out
    } else {
        end_to_end
    };
    for m in &mut metrics {
        if !m.value.is_finite() {
            run.errors.push(format!("metric {} is not finite", m.name));
            run.failed += 1;
            m.value = 0.0;
        }
    }
    let errors: Vec<String> = run.errors.iter().map(|e| json_str(e)).collect();
    let _ = write!(detail, ",\"errors\":[{}]}}}}", errors.join(","));
    println!("{detail}");
    for e in &run.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.errors.is_empty(),
        run.attempted,
        run.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
