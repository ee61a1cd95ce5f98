//! `layerbench`: the end-to-end and per-layer benchmark of the
//! compilation service as `qcs-supervisor` deploys it, one router in
//! front of two shards.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload near-dup --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `README.md` beside this file for the workloads, every metric and
//! the layer-to-end-to-end map.

mod check;
mod fleet;
mod json;
mod load;
mod trace;
mod workload;

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use qcs_serve::{read_frame, write_frame};

use check::{Checker, Verdict};
use fleet::Fleet;
use load::{Clients, Sample};
use trace::{Layer, Replay};
use workload::{Name, Plan, PAPER_SEED};

const USAGE: &str = "\
usage: layerbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                  [--fault SPEC] [--record PATH]

  --workload NAME  suite-hits, suite-cold, near-dup, or all
  --seed N         workload seed, decimal or 0x-hex (default 0xDA7E_2022)
  --seconds S      length of the timed phase, 1 to 120 (default 20)
  --trace 0|1      0: end-to-end metrics; 1: per-layer metrics (default 0)
  --fault SPEC     arm qcs-faults failpoints in this process first, in the
                   QCS_FAULTS grammar (e.g. serve.worker.job=delay:1)
  --record PATH    also write the result line to PATH
  --help           print this text and exit

The last line of standard output is the result as one JSON object.
";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A run whose open-loop generator sent its requests later than this
/// (p95 of actual minus scheduled send) is invalid.
const LATENESS_LIMIT: Duration = Duration::from_millis(5);

/// A run stops itself with an error after this long, whatever happens.
const WATCHDOG: Duration = Duration::from_secs(170);

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Name>,
    seed: u64,
    seconds: u64,
    trace: bool,
    fault: Option<String>,
    record: Option<PathBuf>,
}

fn parse_u64(text: &str) -> Option<u64> {
    let text = text.replace('_', "");
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Parses the command line; `Ok(None)` asks for the usage text.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut values: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        if !matches!(
            flag,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--fault" | "--record"
        ) {
            return Err(format!("unknown argument '{flag}'"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if values.insert(flag, value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let workload = match values.get("--workload") {
        None => return Err("--workload is required".to_string()),
        Some(&"all") => None,
        Some(name) => Some(Name::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?),
    };
    let seed = match values.get("--seed") {
        None => PAPER_SEED,
        Some(text) => parse_u64(text).ok_or_else(|| format!("bad --seed '{text}'"))?,
    };
    let seconds = match values.get("--seconds") {
        None => 20,
        Some(text) => parse_u64(text)
            .filter(|s| (1..=120).contains(s))
            .ok_or_else(|| format!("--seconds must be 1 to 120, not '{text}'"))?,
    };
    let trace = match values.get("--trace").copied() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        fault: values.get("--fault").map(|s| s.to_string()),
        record: values.get("--record").map(PathBuf::from),
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("layerbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload {
        None => run_all(&args),
        Some(name) => {
            std::thread::spawn(|| {
                std::thread::sleep(WATCHDOG);
                eprintln!(
                    "layerbench: run exceeded {} s; stopping",
                    WATCHDOG.as_secs()
                );
                std::process::exit(3);
            });
            RunDir::create().and_then(|dir| run(name, &args, &dir.0))
        }
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.print();
    if let Some(path) = &args.record {
        if let Err(e) = std::fs::write(path, format!("{}\n", report.json())) {
            eprintln!("layerbench: cannot record to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-process scratch directory for WAL directories, removed on
/// drop. It sits in `.bench_build/`, inside the checkout.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> io::Result<RunDir> {
        let dir = Path::new(".bench_build")
            .join("layerbench")
            .join(std::process::id().to_string());
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: String,
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Lines printed before the result line.
    notes: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for m in &self.metrics {
            println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json());
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile; `values` need not be sorted.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// A fleet with its clients connected and its warm phase done.
struct Ready {
    fleet: Fleet,
    clients: Clients,
    warm: Vec<Sample>,
}

/// Starts a fleet on empty WAL directories, connects the clients and
/// sends the plan's warm requests; returns it and the seconds it took.
fn set_up(plan: &Plan, dir: &Path) -> io::Result<(Ready, f64)> {
    let start = Instant::now();
    let fleet = Fleet::start(dir)?;
    let mut clients = Clients::connect(fleet.router_addr())?;
    fleet.prime(&mut clients)?;
    let warm = load::closed_loop(&mut clients, &plan.reqs, &plan.warm, None);
    let ready = Ready {
        fleet,
        clients,
        warm,
    };
    Ok((ready, start.elapsed().as_secs_f64()))
}

/// Sets up `times` times, keeping the last fleet.
fn set_up_repeated(plan: &Plan, dir: &Path, times: usize) -> io::Result<(Ready, Vec<f64>)> {
    let mut setups = Vec::with_capacity(times);
    for i in 1..=times {
        let (ready, seconds) = set_up(plan, &dir.join(format!("fleet{i}")))?;
        setups.push(seconds);
        if i == times {
            return Ok((ready, setups));
        }
        ready.fleet.stop()?;
    }
    unreachable!("times is at least 1")
}

/// What the fleet did in one run.
struct FleetRun {
    warm: Vec<Sample>,
    timed: Vec<Sample>,
    /// Seconds the timed phase lasted.
    wall: f64,
    setups: Vec<f64>,
    peak_rss_mb: f64,
    /// Counter changes over the timed phase (suite-cold: its last pass).
    counters: Option<fleet::Counters>,
    /// Traced runs with a warm phase: router p50 minus direct-to-shard
    /// p50 of the warmed requests, in µs.
    hop_us: f64,
}

fn run_fleet(plan: &mut Plan, args: &Args, dir: &Path) -> io::Result<FleetRun> {
    let setups_wanted = if args.trace { 1 } else { SETUPS };
    let seconds = Duration::from_secs(args.seconds);
    match plan.name {
        Name::SuiteHits | Name::NearDup => {
            let (ready, setups) = set_up_repeated(plan, dir, setups_wanted)?;
            let Ready {
                fleet,
                mut clients,
                warm,
            } = ready;
            let before = fleet.counters()?;
            let (timed, wall) = if plan.name == Name::SuiteHits {
                let start = Instant::now() + Duration::from_millis(20);
                let timed =
                    load::open_loop(&mut clients, &plan.reqs, &plan.timed, &plan.offsets, start)?;
                let end = timed.iter().map(|s| s.done).max().unwrap_or(start);
                (timed, (end - start).as_secs_f64())
            } else {
                let start = Instant::now();
                let timed =
                    load::closed_loop(&mut clients, &plan.reqs, &plan.timed, Some(start + seconds));
                if timed.len() == plan.timed.len() {
                    eprintln!("layerbench: near-dup used its whole pre-generated mix");
                }
                let end = timed.iter().map(|s| s.done).max().unwrap_or(start);
                (timed, (end - start).as_secs_f64())
            };
            let peak_rss_mb = peak_rss_mb()?;
            let counters = Some(fleet.counters()?.since(&before));
            let hop_us = if args.trace {
                router_hop(&fleet, plan)?
            } else {
                0.0
            };
            drop(clients);
            fleet.stop()?;
            Ok(FleetRun {
                warm,
                timed,
                wall,
                setups,
                peak_rss_mb,
                counters,
                hop_us,
            })
        }
        Name::SuiteCold => {
            // Every pass runs on a fresh fleet, so every request misses.
            let (mut ready, mut setups) = set_up_repeated(plan, dir, setups_wanted)?;
            let warm = std::mem::take(&mut ready.warm);
            let mut timed = Vec::new();
            let mut wall = 0.0;
            let mut counters;
            loop {
                let order = plan.cold_order();
                let before = ready.fleet.counters()?;
                let start = Instant::now();
                let pass = load::closed_loop(&mut ready.clients, &plan.reqs, &order, None);
                let end = pass.iter().map(|s| s.done).max().unwrap_or(start);
                wall += (end - start).as_secs_f64();
                timed.extend(pass);
                counters = Some(ready.fleet.counters()?.since(&before));
                drop(ready.clients);
                ready.fleet.stop()?;
                if args.trace || wall >= seconds.as_secs_f64() {
                    break;
                }
                let (next, seconds) = set_up(plan, &dir.join(format!("pass{}", setups.len())))?;
                setups.push(seconds);
                ready = next;
            }
            Ok(FleetRun {
                warm,
                timed,
                wall,
                setups,
                peak_rss_mb: peak_rss_mb()?,
                counters,
                hop_us: 0.0,
            })
        }
    }
}

/// Sends each warmed request, now a cache hit, once through the router
/// and once straight to the shard that owns it (the one whose
/// `forwarded` count moved), one request at a time; returns router p50
/// minus direct p50 in µs.
fn router_hop(fleet: &Fleet, plan: &Plan) -> io::Result<f64> {
    let connect = |addr: SocketAddr| -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    };
    let time = |stream: &mut TcpStream, frame: &[u8]| -> io::Result<f64> {
        let start = Instant::now();
        write_frame(stream, frame)?;
        read_frame(stream)?.ok_or_else(|| io::Error::other("connection closed"))?;
        Ok(start.elapsed().as_secs_f64() * 1e6)
    };
    let mut router = connect(fleet.router_addr())?;
    let mut shards = fleet
        .shard_addrs()
        .into_iter()
        .map(connect)
        .collect::<io::Result<Vec<_>>>()?;
    let mut forwarded = fleet.forwarded()?;
    let (mut via, mut direct) = (Vec::new(), Vec::new());
    for &req in &plan.warm {
        let frame = &plan.reqs[req].frame;
        via.push(time(&mut router, frame)?);
        let now = fleet.forwarded()?;
        let owner = (0..now.len())
            .find(|&k| now[k] > forwarded.get(k).copied().unwrap_or(0.0))
            .ok_or_else(|| io::Error::other("no shard's forwarded count moved"))?;
        forwarded = now;
        direct.push(time(&mut shards[owner], frame)?);
    }
    Ok(median(&via) - median(&direct))
}

/// Checks every response; returns the failures and the verdict of each
/// passing response, by sample.
fn check_all(checker: &mut Checker, samples: &[&Sample]) -> (Vec<String>, Vec<Option<Verdict>>) {
    let mut failures = Vec::new();
    let verdicts = samples
        .iter()
        .map(|s| match checker.check(s) {
            Ok(v) => Some(v),
            Err(e) => {
                failures.push(format!("request {}: {e}", s.req));
                None
            }
        })
        .collect();
    (failures, verdicts)
}

fn run(name: Name, args: &Args, dir: &Path) -> io::Result<Report> {
    let mut plan = Plan::build(name, args.seed, args.seconds);
    if let Some(spec) = &args.fault {
        qcs_faults::arm_from_spec(spec).map_err(|e| io::Error::other(e.to_string()))?;
    }
    let run = run_fleet(&mut plan, args, dir)?;

    // Everything below runs after the clock stopped.
    let samples: Vec<&Sample> = run.warm.iter().chain(run.timed.iter()).collect();
    let mut checker = Checker::new(&plan.reqs, &samples);
    let (failures, verdicts) = check_all(&mut checker, &samples);
    let timed_verdicts = &verdicts[run.warm.len()..];
    let latencies: Vec<f64> = run
        .timed
        .iter()
        .zip(timed_verdicts)
        .map(|(s, v)| {
            if v.is_some() {
                ms(s.latency())
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let successes = timed_verdicts.iter().filter(|v| v.is_some()).count();

    // Output quality over the workload's fixed job set: the first
    // verified response of each job.
    let mut quality: HashMap<usize, Verdict> = HashMap::new();
    for (s, v) in samples.iter().zip(&verdicts) {
        if let Some(v) = v {
            quality.entry(s.req).or_insert(*v);
        }
    }
    let mut missing_quality = 0;
    let (mut gates, mut fidelity) = (0.0, 0.0);
    for job in &plan.quality {
        match quality.get(job) {
            Some(v) => {
                gates += v.routed_gates;
                fidelity += v.fidelity_after;
            }
            None => missing_quality += 1,
        }
    }
    let fidelity_mean = fidelity / plan.quality.len() as f64;

    let mut notes = vec![format!(
        "workload {} seed {:#x}: {} warm + {} timed requests in {:.3} s, {} failed",
        name.as_str(),
        args.seed,
        run.warm.len(),
        run.timed.len(),
        run.wall,
        failures.len()
    )];
    if let Some(c) = &run.counters {
        notes.push(format!(
            "shards: {} exact hits, {} canonical hits, {} misses; router: {} hedges, {} shed",
            c.exact_hits, c.canonical_hits, c.misses, c.hedges_fired, c.admission_shed
        ));
    }
    notes.extend(failures.iter().take(10).map(|f| format!("FAIL {f}")));
    if missing_quality > 0 {
        notes.push(format!(
            "FAIL {missing_quality} quality jobs have no verified result"
        ));
    }
    let mut correct = failures.is_empty() && missing_quality == 0;
    let lateness: Vec<f64> = run
        .timed
        .iter()
        .filter_map(|s| s.lateness())
        .map(ms)
        .collect();
    let lateness_p95 = if lateness.is_empty() {
        0.0
    } else {
        percentile(&lateness, 0.95)
    };
    if plan.name == Name::SuiteHits {
        notes.push(format!("generator lateness p95 {lateness_p95:.3} ms"));
        if lateness_p95 > ms(LATENESS_LIMIT) {
            notes.push("INVALID: the open-loop generator fell behind its schedule".to_string());
            correct = false;
        }
    }
    let error_frac = 1.0 - successes as f64 / run.timed.len().max(1) as f64;
    notes.push(format!(
        "error_frac {error_frac} ({} of {} timed requests); latency samples {}",
        run.timed.len() - successes,
        run.timed.len(),
        latencies.len()
    ));

    let e2e_p50_ms = median(&latencies);
    let metrics = if args.trace {
        let mut replay = Replay::new(&dir.join("replay")).map_err(io::Error::other)?;
        for s in &run.warm {
            let reference = checker.reference(s.req).map_err(io::Error::other)?;
            replay
                .warm(&plan.reqs[s.req].frame, reference)
                .map_err(io::Error::other)?;
        }
        // A traced suite-cold run makes one pass, so this replays it.
        let replayed: Vec<&Sample> = run.timed.iter().collect();
        layer_metrics(
            &mut replay,
            &plan,
            &replayed,
            &run,
            e2e_p50_ms,
            lateness_p95,
        )?
    } else {
        vec![
            metric("setup_s", median(&run.setups), "s"),
            metric("latency_p50_ms", e2e_p50_ms, "ms"),
            metric("latency_p95_ms", percentile(&latencies, 0.95), "ms"),
            metric("throughput_rps", successes as f64 / run.wall, "1/s"),
            metric("peak_rss_mb", run.peak_rss_mb, "MB"),
            metric("routed_gates_sum", gates, "count"),
            metric("fidelity_mean", fidelity_mean, "ratio"),
        ]
    };
    Ok(Report {
        correct,
        attempted: samples.len() as u64,
        failed: (samples.len() - verdicts.iter().filter(|v| v.is_some()).count()) as u64,
        metrics,
        notes,
    })
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// Replays the timed requests with spans and turns spans and `stats`
/// counters into the per-layer metrics.
fn layer_metrics(
    replay: &mut Replay,
    plan: &Plan,
    replayed: &[&Sample],
    run: &FleetRun,
    e2e_p50_ms: f64,
    lateness_p95_ms: f64,
) -> io::Result<Vec<Metric>> {
    let first_span = replay.tracer.spans.len();
    let mut request_micros = Vec::with_capacity(replayed.len());
    let mut bytes = Vec::with_capacity(replayed.len());
    for (id, s) in replayed.iter().enumerate() {
        let served = replay
            .serve(id as u32, &plan.reqs[s.req].frame)
            .map_err(io::Error::other)?;
        request_micros.push(served.micros);
        bytes.push(served.response_bytes as f64);
    }
    let spans = &replay.tracer.spans[first_span..];

    let mut out = Vec::new();
    for layer in Layer::ALL {
        let durations: Vec<f64> = spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.micros)
            .collect();
        let name = layer.name();
        out.push(metric(
            &format!("{name}.calls"),
            durations.len() as f64,
            "count",
        ));
        out.push(metric(
            &format!("{name}.busy_ms"),
            // `+ 0.0` turns the empty sum's -0.0 into 0.0.
            durations.iter().sum::<f64>() / 1e3 + 0.0,
            "ms",
        ));
        let p50 = if durations.is_empty() {
            0.0
        } else {
            median(&durations)
        };
        out.push(metric(&format!("{name}.p50_us"), p50, "us"));
    }
    // The request's attributed time: its spans on the request path.
    let mut attributed = vec![0.0; replayed.len()];
    for s in spans.iter().filter(|s| s.layer.on_path()) {
        attributed[s.request as usize] += s.micros;
    }
    let attributed_p50_us = median(&attributed);
    let e2e_p50_us = e2e_p50_ms * 1e3;
    let c = run.counters.clone().unwrap_or_default();
    let shard_requests = c.exact_hits + c.canonical_hits + c.misses;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.extend([
        metric("router.hop_us", run.hop_us, "us"),
        metric(
            "canon.useful_ratio",
            ratio(
                replay.canonical_hits as f64,
                replay.canonicalize_calls as f64,
            ),
            "ratio",
        ),
        metric("response.bytes_p50", median(&bytes), "bytes"),
        metric("response.bytes_max", percentile(&bytes, 1.0), "bytes"),
        metric("shard.total_p50_us", c.shard_p50_us, "us"),
        metric("shard.total_p99_us", c.shard_p99_us, "us"),
        metric(
            "shard.total_mean_us",
            ratio(c.shard_micros, c.shard_requests),
            "us",
        ),
        metric("cache.exact_hits", c.exact_hits, "count"),
        metric("cache.canonical_hits", c.canonical_hits, "count"),
        metric("cache.misses", c.misses, "count"),
        metric("cache.canonical_rejected", c.canonical_rejected, "count"),
        metric(
            "cache.exact_hit_ratio",
            ratio(c.exact_hits, shard_requests),
            "ratio",
        ),
        metric("portfolio.raced", c.portfolio_raced, "count"),
        metric("router.reroutes", c.reroutes, "count"),
        metric("router.hedges_fired", c.hedges_fired, "count"),
        metric("router.admission_shed", c.admission_shed, "count"),
        metric("router.breaker_opens", c.breaker_opens, "count"),
        metric("shard.deadline_rejected", c.deadline_rejected, "count"),
        metric("shard.jobs_panicked", c.jobs_panicked, "count"),
        metric("persist.errors", c.persist_errors, "count"),
        metric("load.lateness_p95_us", lateness_p95_ms * 1e3, "us"),
        metric("trace.request_p50_us", median(&request_micros), "us"),
        metric("trace.attributed_p50_us", attributed_p50_us, "us"),
        metric("trace.e2e_p50_us", e2e_p50_us, "us"),
        metric(
            "unattributed_frac",
            1.0 - ratio(attributed_p50_us, e2e_p50_us),
            "ratio",
        ),
    ]);
    Ok(out)
}

/// `--workload all`: runs each workload in its own process (so
/// `peak_rss_mb` is per workload) and merges their results, prefixing
/// each metric with its workload.
fn run_all(args: &Args) -> io::Result<Report> {
    let exe = std::env::current_exe()?;
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    for name in Name::ALL {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", name.as_str()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(spec) = &args.fault {
            command.args(["--fault", spec]);
        }
        let output = command.stderr(std::process::Stdio::inherit()).output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        report
            .notes
            .extend(lines.iter().map(|l| format!("[{}] {l}", name.as_str())));
        let result = json::parse(last.as_bytes())
            .map_err(|e| io::Error::other(format!("{}: no result line ({e})", name.as_str())))?;
        report.correct &= output.status.success()
            && result.get("correct").and_then(json::Value::as_bool) == Some(true);
        report.attempted += result
            .get("attempted")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64;
        report.failed += result
            .get("failed")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64;
        if let Some(json::Value::Object(metrics)) = result.get("metrics") {
            for (key, m) in metrics {
                report.metrics.push(Metric {
                    name: format!("{}/{key}", name.as_str()),
                    value: m
                        .get("value")
                        .and_then(json::Value::as_f64)
                        .unwrap_or(f64::NAN),
                    unit: m
                        .get("unit")
                        .and_then(json::Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn cli_accepts_the_benchmark_flags() {
        let args = parse_args(&argv(
            "--workload suite-hits --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(args.workload, Some(Name::SuiteHits));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10, true));
        let args = parse_args(&argv("--workload all")).unwrap().unwrap();
        assert_eq!((args.workload, args.seed), (None, PAPER_SEED));
        assert_eq!(parse_u64("0xDA7E_2022"), Some(PAPER_SEED));
    }

    #[test]
    fn cli_rejects_unknown_and_malformed_flags() {
        for bad in [
            "--workload suite-hits --bogus 1",
            "--workload nope",
            "--seed 1",
            "--workload near-dup --trace 2",
            "--workload near-dup --seconds 0",
            "--workload near-dup --seed",
            "--workload near-dup --seed 1 --seed 2",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
        assert!(parse_args(&argv("--workload x --help")).unwrap().is_none());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&v), 10.0);
        assert_eq!(percentile(&v, 0.95), 19.0);
        assert_eq!(percentile(&v, 1.0), 20.0);
    }
}
