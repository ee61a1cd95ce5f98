//! Serving-tier load generator and regression gate.
//!
//! Boots the sharded serving tier **in-process** (N shard daemons behind
//! one `qcs-router`, all on loopback) and measures it two ways:
//!
//! - **Locality run** — 3 shards; a deterministic warm pass compiles
//!   every distinct job once, then 8 open-loop clients replay the warm
//!   set under a seeded arrival schedule. Per-shard forwarded/hit/miss
//!   counts are pure functions of the consistent-hash ring and the
//!   workload, so they are gated **exactly**; latency percentiles and
//!   throughput are wall-clock and get the relative budget.
//! - **Saturation sweep** — closed-loop hammer at fixed shard counts
//!   (1, 2, 3): 8 clients drain a shared pool of all-hit requests as
//!   fast as the tier will go. Request/error counts are exact;
//!   `throughput_rps` is budgeted (higher is better).
//! - **Semantic run** — the 200-circuit suite warms one daemon with
//!   canonical keying and one exact-only, then replays a seeded mix
//!   (`--near-dup-frac`, default 0.5) of renamed + relabeled +
//!   commuting-reordered near-duplicates and exact repeats against
//!   both. Hit counters gate exactly and the run itself asserts
//!   canonical keying lifts the mix hit count >= 1.5x with zero
//!   verifier rejections.
//!
//! Numbers land in `BENCH_serve.json` with the same record/check split
//! as `bench_baseline`: integers and counter arrays must match the
//! committed baseline exactly; keys ending `_ms`/`_micros` may grow up
//! to `QCS_BENCH_WALL_BUDGET`× (default 4.0, `0` disables) plus a small
//! absolute floor so microsecond-scale percentiles don't flake on
//! scheduler noise; keys ending `_rps` may shrink to 1/budget.
//!
//! The locality run also snapshots the router's **resilience counters**
//! (hedges fired/won, admission sheds, deadline rejections, per-shard
//! breaker opens). Under the bench's pinned hedge delay and healthy
//! loopback fleet every one of them is deterministically zero, so they
//! gate exactly: a hedge that fires or a breaker that opens during the
//! bench is a regression, not noise.
//!
//! ```text
//! bench_load                   # re-record BENCH_serve.json in CWD
//! bench_load --check           # fresh run, compare against the committed file
//! bench_load --sustained ADDR    # warm + open-loop phase against an already
//!                                # running daemon/router; prints JSON to stdout
//! bench_load --interactive ADDR  # warm + 16 closed-loop clients with think
//!                                # time on persistent connections; prints JSON
//! bench_load --chaos ADDR        # fault-tolerant closed-loop hammer against a
//!     [--seconds N] [--seed S]   # (possibly faulty) fleet: reconnects through
//!                                # resets, retries `retry_after_ms` hints, and
//!                                # exits nonzero if any request finally fails
//! ```
//!
//! Any other argument prints usage and exits 2 without running, so a
//! mistyped `--check` can never re-record `BENCH_serve.json`.
//!
//! The external modes exist for apples-to-apples A/B runs against
//! separately started servers (e.g. an old binary), so architecture
//! changes can be quantified with the identical load schedule.
//! `--interactive` models a fleet of interactive clients — each waits
//! for its response, thinks, and sends the next request on the same
//! connection. A server that parks a thread per connection can only
//! make progress on `workers` such clients at a time; an event-driven
//! tier interleaves all of them, which is where the sustained
//! requests/sec multiple comes from.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qcs_circuit::canon::{commuting_shuffle, permute_qubits};
use qcs_circuit::qasm;
use qcs_json::Json;
use qcs_rng::{Rng, SeedableRng, Xoshiro256StarStar};
use qcs_serve::protocol::{read_frame, write_frame};
use qcs_serve::router::{Router, RouterConfig, RouterHandle};
use qcs_serve::server::{Server, ServerConfig, ServerHandle};
use qcs_workloads::suite::{generate_suite, SuiteConfig};

const FILE: &str = "BENCH_serve.json";
const SCHEMA: &str = "qcs-bench-serve/1";

/// Open-loop clients (and closed-loop hammer threads).
const CLIENTS: usize = 8;
/// Sustained-phase copies of each distinct job per client.
const COPIES: usize = 3;
/// Mean open-loop inter-arrival gap per client, milliseconds.
const MEAN_GAP_MS: f64 = 2.0;
/// Shard counts for the saturation sweep.
const SWEEP: [usize; 3] = [1, 2, 3];
/// Base seed for the per-client arrival schedules.
const SEED: u64 = 0xC0FFEE;

const USAGE: &str = "usage: bench_load [--check] [--near-dup-frac F]
       bench_load --sustained HOST:PORT
       bench_load --interactive HOST:PORT
       bench_load --chaos HOST:PORT [--seconds N] [--seed S]
  (no flags)         re-record BENCH_serve.json in CWD
  --check            fresh run, compare against the committed file
  --near-dup-frac F  near-duplicate share of the semantic mix (default 0.5)
  --help             print this message";

/// Flags followed by a value.
const VALUE_FLAGS: &[&str] = &[
    "--sustained",
    "--interactive",
    "--chaos",
    "--seconds",
    "--seed",
    "--near-dup-frac",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--check" => {}
            "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if VALUE_FLAGS.contains(&flag) => {
                rest.next();
            }
            other => {
                eprintln!("bench_load: unknown argument '{other}'\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--sustained") {
        let Some(addr) = args.get(i + 1) else {
            eprintln!("usage: bench_load --sustained HOST:PORT");
            return ExitCode::FAILURE;
        };
        let addr: SocketAddr = addr.parse().expect("--sustained takes HOST:PORT");
        run_sustained_external(addr);
        return ExitCode::SUCCESS;
    }
    if let Some(i) = args.iter().position(|a| a == "--interactive") {
        let Some(addr) = args.get(i + 1) else {
            eprintln!("usage: bench_load --interactive HOST:PORT");
            return ExitCode::FAILURE;
        };
        let addr: SocketAddr = addr.parse().expect("--interactive takes HOST:PORT");
        run_interactive_external(addr);
        return ExitCode::SUCCESS;
    }
    if let Some(i) = args.iter().position(|a| a == "--chaos") {
        let Some(addr) = args.get(i + 1) else {
            eprintln!("usage: bench_load --chaos HOST:PORT [--seconds N] [--seed S]");
            return ExitCode::FAILURE;
        };
        let addr: SocketAddr = addr.parse().expect("--chaos takes HOST:PORT");
        let seconds = flag_u64(&args, "--seconds").unwrap_or(10);
        let seed = flag_u64(&args, "--seed").unwrap_or(SEED);
        return run_chaos_external(addr, Duration::from_secs(seconds), seed);
    }
    let check = args.iter().any(|a| a == "--check");
    let near_dup_frac = flag_f64(&args, "--near-dup-frac").unwrap_or(NEAR_DUP_FRAC);
    assert!(
        (0.0..=1.0).contains(&near_dup_frac),
        "--near-dup-frac takes a fraction in [0, 1]"
    );
    let locality = run_locality();
    let saturation: Vec<SweepRow> = SWEEP.iter().map(|&n| run_sweep_point(n)).collect();
    let semantic = run_semantic(near_dup_frac);
    let doc = doc(&locality, &saturation, &semantic);

    if check {
        if check_file(FILE, &doc, wall_budget()) {
            println!("serve bench gate OK ({FILE})");
            ExitCode::SUCCESS
        } else {
            eprintln!("serve bench gate FAILED");
            ExitCode::FAILURE
        }
    } else {
        std::fs::write(FILE, doc.to_string_pretty() + "\n").expect("write baseline");
        println!("wrote {FILE}");
        ExitCode::SUCCESS
    }
}

fn flag_f64(args: &[String], flag: &str) -> Option<f64> {
    let i = args.iter().position(|a| a == flag)?;
    let value = args.get(i + 1)?;
    Some(
        value
            .parse()
            .unwrap_or_else(|_| panic!("{flag} takes a number, got '{value}'")),
    )
}

fn flag_u64(args: &[String], flag: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    let value = args.get(i + 1)?;
    Some(
        value
            .parse()
            .unwrap_or_else(|_| panic!("{flag} takes an integer, got '{value}'")),
    )
}

fn wall_budget() -> f64 {
    std::env::var("QCS_BENCH_WALL_BUDGET")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(4.0)
}

// ---------------------------------------------------------------------
// Fleet plumbing
// ---------------------------------------------------------------------

/// The distinct compile jobs: 16 small workloads spanning three
/// families. Every phase draws from this fixed set so cache hit/miss
/// counts are exact.
fn specs() -> Vec<String> {
    let mut out = Vec::new();
    out.extend((4..=9).map(|n| format!("ghz:{n}")));
    out.extend((3..=6).map(|n| format!("qft:{n}")));
    out.extend((4..=9).map(|n| format!("wstate:{n}")));
    out
}

fn compile_request(spec: &str) -> String {
    format!(r#"{{"type":"compile","workload":"{spec}"}}"#)
}

/// Shard resources are pinned (never CPU-count defaults) so the tier
/// does identical work on every host.
fn start_shards(count: usize) -> Vec<ServerHandle> {
    (0..count)
        .map(|_| {
            Server::start(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                event_loops: 1,
                max_connections: 64,
                cache_bytes: 32 << 20,
                frame_deadline: Duration::from_secs(30),
                persist_dir: None,
                semantic_cache: true,
                bucket_angles: false,
            })
            .expect("shard starts")
        })
        .collect()
}

fn start_router(shards: &[ServerHandle]) -> RouterHandle {
    Router::start(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        replicas: 64,
        health_interval: Duration::from_millis(250),
        connect_timeout: Duration::from_secs(1),
        io_timeout: Duration::from_secs(60),
        // Pin the hedge delay far above any bench latency so the
        // resilience counters in BENCH_serve.json stay deterministic.
        hedge_after: Some(Duration::from_secs(5)),
        ..RouterConfig::default()
    })
    .expect("router starts")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("tier accepts connections");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

fn exchange_json(stream: &mut TcpStream, request: &str) -> Json {
    write_frame(stream, request.as_bytes()).expect("request written");
    let payload = read_frame(stream)
        .expect("response read")
        .expect("peer replied");
    qcs_json::parse(std::str::from_utf8(&payload).expect("utf8 response")).expect("JSON response")
}

fn response_type(value: &Json) -> &str {
    value.get("type").and_then(Json::as_str).unwrap_or("?")
}

/// Per-shard `forwarded` counters from the router's stats endpoint.
fn forwarded_counts(control: &mut TcpStream) -> Vec<u64> {
    let stats = exchange_json(control, r#"{"type":"stats"}"#);
    let Some(Json::Array(shards)) = stats.get("shards") else {
        panic!("router stats carry a shards array: {stats:?}");
    };
    shards
        .iter()
        .map(|s| s.get("forwarded").and_then(Json::as_usize).unwrap() as u64)
        .collect()
}

fn router_counter(control: &mut TcpStream, key: &str) -> u64 {
    let stats = exchange_json(control, r#"{"type":"stats"}"#);
    stats
        .get(key)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("router stats carry {key}")) as u64
}

/// Router resilience counters: fleet-wide hedge/shed/deadline tallies
/// plus per-shard breaker open counts, all from one stats exchange.
struct ResilienceSnapshot {
    hedges_fired: u64,
    hedges_won: u64,
    admission_shed: u64,
    deadline_rejected: u64,
    breaker_opens: Vec<u64>,
}

fn resilience_snapshot(control: &mut TcpStream) -> ResilienceSnapshot {
    let stats = exchange_json(control, r#"{"type":"stats"}"#);
    let r = stats
        .get("resilience")
        .expect("router stats carry resilience");
    let counter = |key: &str| {
        r.get(key)
            .and_then(Json::as_usize)
            .unwrap_or_else(|| panic!("resilience stats carry {key}")) as u64
    };
    let Some(Json::Array(shards)) = stats.get("shards") else {
        panic!("router stats carry a shards array: {stats:?}");
    };
    ResilienceSnapshot {
        hedges_fired: counter("hedges_fired"),
        hedges_won: counter("hedges_won"),
        admission_shed: counter("admission_shed"),
        deadline_rejected: counter("deadline_rejected"),
        breaker_opens: shards
            .iter()
            .map(|s| s.get("breaker_opens").and_then(Json::as_usize).unwrap() as u64)
            .collect(),
    }
}

/// Per-shard (hits, misses) straight from each shard's own stats.
fn shard_cache_counts(shards: &[ServerHandle]) -> (Vec<u64>, Vec<u64>) {
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    for shard in shards {
        let mut direct = connect(shard.local_addr());
        let stats = exchange_json(&mut direct, r#"{"type":"stats"}"#);
        let cache = stats.get("cache").expect("shard stats carry cache");
        hits.push(cache.get("hits").and_then(Json::as_usize).unwrap() as u64);
        misses.push(cache.get("misses").and_then(Json::as_usize).unwrap() as u64);
    }
    (hits, misses)
}

fn shutdown_fleet(router: RouterHandle, shards: Vec<ServerHandle>) {
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

// ---------------------------------------------------------------------
// Locality run: warm pass + open-loop sustained phase
// ---------------------------------------------------------------------

struct LocalityRun {
    shards: usize,
    distinct_jobs: usize,
    warm_forwarded: Vec<u64>,
    sustained_requests: u64,
    sustained_errors: u64,
    forwarded: Vec<u64>,
    hits: Vec<u64>,
    misses: Vec<u64>,
    reroutes: u64,
    forward_errors: u64,
    resilience: ResilienceSnapshot,
    wall_ms: f64,
    achieved_rps: f64,
    p50_micros: f64,
    p95_micros: f64,
    p99_micros: f64,
}

/// Seeded Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256StarStar) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Exponential inter-arrival gap with the given mean, in milliseconds.
fn exp_gap_ms(rng: &mut Xoshiro256StarStar, mean_ms: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -mean_ms * (1.0 - u).ln()
}

/// The open-loop sustained phase against any already-listening server:
/// sorted latencies (micros), non-`result` responses, and wall time.
struct OpenLoop {
    lats: Vec<u64>,
    errors: u64,
    wall_ms: f64,
}

/// Each client fires its requests on a pre-computed seeded schedule
/// regardless of response arrival (writer half), while a reader half
/// records latency against the *scheduled* send time — so queueing
/// delay counts, as open-loop measurement demands.
fn open_loop(addr: SocketAddr, specs: &[String]) -> OpenLoop {
    let errors = AtomicU64::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let errors = &errors;
            let latencies = &latencies;
            scope.spawn(move || {
                let mut rng = Xoshiro256StarStar::seed_from_u64(SEED + client as u64);
                let mut order: Vec<usize> =
                    (0..specs.len() * COPIES).map(|i| i % specs.len()).collect();
                shuffle(&mut order, &mut rng);
                let mut offsets = Vec::with_capacity(order.len());
                let mut at = 0.0f64;
                for _ in &order {
                    at += exp_gap_ms(&mut rng, MEAN_GAP_MS);
                    offsets.push(Duration::from_secs_f64(at / 1e3));
                }

                let mut tx = connect(addr);
                let mut rx = tx.try_clone().expect("split connection");
                let base = Instant::now();
                let reader = {
                    let offsets = offsets.clone();
                    std::thread::spawn(move || {
                        let mut lats = Vec::with_capacity(offsets.len());
                        let mut errs = 0u64;
                        for offset in offsets {
                            let payload = read_frame(&mut rx)
                                .expect("response read")
                                .expect("tier replied");
                            let sent = base + offset;
                            lats.push(sent.elapsed().as_micros() as u64);
                            let text = std::str::from_utf8(&payload).expect("utf8");
                            let value = qcs_json::parse(text).expect("JSON");
                            if response_type(&value) != "result" {
                                errs += 1;
                            }
                        }
                        (lats, errs)
                    })
                };
                for (i, &spec_idx) in order.iter().enumerate() {
                    let due = base + offsets[i];
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    write_frame(&mut tx, compile_request(&specs[spec_idx]).as_bytes())
                        .expect("request written");
                    tx.flush().expect("flush");
                }
                let (lats, errs) = reader.join().expect("reader joins");
                errors.fetch_add(errs, Ordering::Relaxed);
                latencies.lock().unwrap().extend(lats);
            });
        }
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut lats = latencies.into_inner().unwrap();
    lats.sort_unstable();
    OpenLoop {
        lats,
        errors: errors.load(Ordering::Relaxed),
        wall_ms,
    }
}

fn run_locality() -> LocalityRun {
    let specs = specs();
    let shards = start_shards(3);
    let router = start_router(&shards);
    let addr = router.local_addr();
    let mut control = connect(addr);

    // Warm pass: every distinct job exactly once, sequentially, so each
    // shard's miss count is exactly the keyspace slice it owns.
    for spec in &specs {
        let reply = exchange_json(&mut control, &compile_request(spec));
        assert_eq!(
            response_type(&reply),
            "result",
            "warm compile failed: {reply:?}"
        );
    }
    let warm_forwarded = forwarded_counts(&mut control);

    let sustained = open_loop(addr, &specs);

    let forwarded = forwarded_counts(&mut control);
    let reroutes = router_counter(&mut control, "reroutes");
    let forward_errors = router_counter(&mut control, "forward_errors");
    let resilience = resilience_snapshot(&mut control);
    let (hits, misses) = shard_cache_counts(&shards);

    let run = LocalityRun {
        shards: shards.len(),
        distinct_jobs: specs.len(),
        warm_forwarded,
        sustained_requests: sustained.lats.len() as u64,
        sustained_errors: sustained.errors,
        forwarded,
        hits,
        misses,
        reroutes,
        forward_errors,
        resilience,
        wall_ms: sustained.wall_ms,
        achieved_rps: sustained.lats.len() as f64 / (sustained.wall_ms / 1e3),
        p50_micros: percentile(&sustained.lats, 50.0),
        p95_micros: percentile(&sustained.lats, 95.0),
        p99_micros: percentile(&sustained.lats, 99.0),
    };
    shutdown_fleet(router, shards);
    run
}

/// `--sustained ADDR`: the identical warm + open-loop schedule against
/// an externally started server, result as JSON on stdout. The warm
/// connection is dropped before the phase starts so servers that pin a
/// thread per connection aren't handicapped by the control channel.
fn run_sustained_external(addr: SocketAddr) {
    let specs = specs();
    {
        let mut control = connect(addr);
        for spec in &specs {
            let reply = exchange_json(&mut control, &compile_request(spec));
            assert_eq!(
                response_type(&reply),
                "result",
                "warm compile failed: {reply:?}"
            );
        }
    }
    let run = open_loop(addr, &specs);
    let doc = Json::object([
        ("requests", Json::from(run.lats.len())),
        ("errors", Json::from(run.errors)),
        ("wall_ms", Json::Number(round3(run.wall_ms))),
        (
            "achieved_rps",
            Json::Number(round3(run.lats.len() as f64 / (run.wall_ms / 1e3))),
        ),
        (
            "latency_p50_micros",
            Json::Number(percentile(&run.lats, 50.0)),
        ),
        (
            "latency_p95_micros",
            Json::Number(percentile(&run.lats, 95.0)),
        ),
        (
            "latency_p99_micros",
            Json::Number(percentile(&run.lats, 99.0)),
        ),
    ]);
    println!("{}", doc.to_string_pretty());
}

/// Closed-loop interactive clients for `--interactive ADDR`.
const INTERACTIVE_CLIENTS: usize = 16;
/// Mean think time between a response and the next request. Must
/// dominate per-request compute so the measurement isolates connection
/// interleaving rather than raw CPU.
const INTERACTIVE_THINK_MS: f64 = 5.0;

/// `--interactive ADDR`: 16 closed-loop clients, each on one persistent
/// connection, each waiting for its response and then thinking (seeded
/// ~2 ms) before the next request. Sustained requests/sec over the
/// whole fleet is the headline: think time dominates per-request cost,
/// so the number measures how many concurrent clients the server can
/// interleave, not raw CPU.
fn run_interactive_external(addr: SocketAddr) {
    let specs = specs();
    {
        let mut control = connect(addr);
        for spec in &specs {
            let reply = exchange_json(&mut control, &compile_request(spec));
            assert_eq!(
                response_type(&reply),
                "result",
                "warm compile failed: {reply:?}"
            );
        }
    }

    let errors = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..INTERACTIVE_CLIENTS {
            let specs = &specs;
            let errors = &errors;
            scope.spawn(move || {
                let mut rng = Xoshiro256StarStar::seed_from_u64(SEED ^ client as u64);
                let mut stream = connect(addr);
                for r in 0..specs.len() * COPIES {
                    std::thread::sleep(Duration::from_secs_f64(
                        exp_gap_ms(&mut rng, INTERACTIVE_THINK_MS) / 1e3,
                    ));
                    let reply =
                        exchange_json(&mut stream, &compile_request(&specs[r % specs.len()]));
                    if response_type(&reply) != "result" {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let requests = INTERACTIVE_CLIENTS * specs.len() * COPIES;

    let doc = Json::object([
        ("clients", Json::from(INTERACTIVE_CLIENTS)),
        ("requests", Json::from(requests)),
        ("errors", Json::from(errors.load(Ordering::Relaxed))),
        ("wall_ms", Json::Number(round3(wall_ms))),
        (
            "sustained_rps",
            Json::Number(round3(requests as f64 / (wall_ms / 1e3))),
        ),
    ]);
    println!("{}", doc.to_string_pretty());
}

// ---------------------------------------------------------------------
// Chaos hammer: fault-tolerant closed loop for the fleet chaos gate
// ---------------------------------------------------------------------

/// Attempts per logical request before declaring it failed. Under the
/// chaos schedule a request can land while a shard is mid-restart, so a
/// single transport error is expected; eight attempts with hint/backoff
/// sleeps ride out any bounded outage.
const CHAOS_ATTEMPTS: usize = 8;
/// Read timeout per attempt — a black-holed or stalled path surfaces as
/// a timeout, the connection is torn down, and the request retries on a
/// fresh one.
const CHAOS_READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Cap on honored `retry_after_ms` hints so a pessimistic server can't
/// stall the hammer.
const CHAOS_HINT_CAP_MS: u64 = 250;

#[derive(Default)]
struct ChaosTally {
    requests: u64,
    ok: u64,
    failed: u64,
    transport_retries: u64,
    hint_retries: u64,
    lats: Vec<u64>,
}

/// One logical request against a possibly faulty fleet: reconnect
/// through resets and timeouts, honor `retry_after_ms` hints (capped),
/// and give up only after [`CHAOS_ATTEMPTS`] tries. Returns whether the
/// request finally produced a `result`.
fn chaos_request(
    addr: SocketAddr,
    stream: &mut Option<TcpStream>,
    request: &str,
    tally: &mut ChaosTally,
) -> bool {
    for _ in 0..CHAOS_ATTEMPTS {
        if stream.is_none() {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(CHAOS_READ_TIMEOUT));
                    *stream = Some(s);
                }
                Err(_) => {
                    tally.transport_retries += 1;
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            }
        }
        let s = stream.as_mut().expect("connection present");
        let sent = write_frame(s, request.as_bytes()).is_ok();
        let payload = if sent {
            read_frame(s).ok().flatten()
        } else {
            None
        };
        let Some(payload) = payload else {
            // Torn write, reset, or timeout: the framing on this
            // connection can no longer be trusted — drop it.
            *stream = None;
            tally.transport_retries += 1;
            continue;
        };
        let Ok(reply) = std::str::from_utf8(&payload).map(qcs_json::parse) else {
            *stream = None;
            tally.transport_retries += 1;
            continue;
        };
        let Ok(reply) = reply else {
            *stream = None;
            tally.transport_retries += 1;
            continue;
        };
        if response_type(&reply) == "result" {
            return true;
        }
        // Structured error. A retry hint means "try again shortly"
        // (shard draining, admission shed, breaker open); anything
        // else is final.
        let Some(hint) = reply.get("retry_after_ms").and_then(Json::as_usize) else {
            return false;
        };
        tally.hint_retries += 1;
        std::thread::sleep(Duration::from_millis((hint as u64).min(CHAOS_HINT_CAP_MS)));
    }
    false
}

/// `--chaos ADDR`: warm every distinct job, then hammer the warm set
/// closed-loop from [`CLIENTS`] seeded clients for `--seconds`. The
/// fleet under test is *expected* to be taking faults, so transport
/// errors are retried, not fatal — but a request that exhausts its
/// attempts (or draws a final error) counts as failed, and any failure
/// makes the exit code nonzero. That is the chaos gate: the fleet may
/// hurt, it may not lose requests.
fn run_chaos_external(addr: SocketAddr, duration: Duration, seed: u64) -> ExitCode {
    let specs = specs();
    let mut warm_failures = 0u64;
    {
        let mut warm = ChaosTally::default();
        let mut control = None;
        for spec in &specs {
            if !chaos_request(addr, &mut control, &compile_request(spec), &mut warm) {
                warm_failures += 1;
            }
        }
    }

    let tallies: Mutex<Vec<ChaosTally>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let until = start + duration;
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let specs = &specs;
            let tallies = &tallies;
            scope.spawn(move || {
                let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ (client as u64) << 32);
                let mut stream = None;
                let mut tally = ChaosTally::default();
                while Instant::now() < until {
                    let spec = &specs[rng.gen_range(0..specs.len())];
                    let begun = Instant::now();
                    tally.requests += 1;
                    if chaos_request(addr, &mut stream, &compile_request(spec), &mut tally) {
                        tally.ok += 1;
                        tally.lats.push(begun.elapsed().as_micros() as u64);
                    } else {
                        tally.failed += 1;
                    }
                }
                tallies.lock().unwrap().push(tally);
            });
        }
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut total = ChaosTally::default();
    for tally in tallies.into_inner().unwrap() {
        total.requests += tally.requests;
        total.ok += tally.ok;
        total.failed += tally.failed;
        total.transport_retries += tally.transport_retries;
        total.hint_retries += tally.hint_retries;
        total.lats.extend(tally.lats);
    }
    total.lats.sort_unstable();

    let doc = Json::object([
        ("clients", Json::from(CLIENTS)),
        ("seed", Json::from(seed)),
        ("warm_failures", Json::from(warm_failures)),
        ("requests", Json::from(total.requests)),
        ("ok", Json::from(total.ok)),
        ("failed", Json::from(total.failed)),
        ("transport_retries", Json::from(total.transport_retries)),
        ("hint_retries", Json::from(total.hint_retries)),
        ("wall_ms", Json::Number(round3(wall_ms))),
        (
            "achieved_rps",
            Json::Number(round3(total.ok as f64 / (wall_ms / 1e3))),
        ),
        (
            "latency_p50_micros",
            Json::Number(percentile(&total.lats, 50.0)),
        ),
        (
            "latency_p95_micros",
            Json::Number(percentile(&total.lats, 95.0)),
        ),
        (
            "latency_p99_micros",
            Json::Number(percentile(&total.lats, 99.0)),
        ),
    ]);
    println!("{}", doc.to_string_pretty());
    if total.failed > 0 || warm_failures > 0 || total.requests == 0 {
        eprintln!(
            "chaos hammer: {} warm failures, {} of {} requests failed",
            warm_failures, total.failed, total.requests
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx] as f64
}

// ---------------------------------------------------------------------
// Saturation sweep: closed-loop hammer at fixed shard counts
// ---------------------------------------------------------------------

struct SweepRow {
    shards: usize,
    requests: u64,
    errors: u64,
    wall_ms: f64,
    throughput_rps: f64,
}

fn run_sweep_point(shard_count: usize) -> SweepRow {
    let specs = specs();
    let shards = start_shards(shard_count);
    let router = start_router(&shards);
    let addr = router.local_addr();
    let mut control = connect(addr);
    for spec in &specs {
        let reply = exchange_json(&mut control, &compile_request(spec));
        assert_eq!(
            response_type(&reply),
            "result",
            "warm compile failed: {reply:?}"
        );
    }

    // Closed loop: clients drain a shared pool of all-hit requests as
    // fast as the tier answers — the sustained ceiling at this width.
    let total = specs.len() * COPIES * CLIENTS;
    let next = AtomicUsize::new(0);
    let errors = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let specs = &specs;
            let next = &next;
            let errors = &errors;
            scope.spawn(move || {
                let mut stream = connect(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let reply =
                        exchange_json(&mut stream, &compile_request(&specs[i % specs.len()]));
                    if response_type(&reply) != "result" {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let row = SweepRow {
        shards: shard_count,
        requests: total as u64,
        errors: errors.load(Ordering::Relaxed),
        wall_ms,
        throughput_rps: total as f64 / (wall_ms / 1e3),
    };
    shutdown_fleet(router, shards);
    row
}

// ---------------------------------------------------------------------
// Semantic-cache run: canonical vs exact keying on a near-dup mix
// ---------------------------------------------------------------------

/// Circuits in the semantic suite (the paper's benchmark count).
const SEMANTIC_SUITE: usize = 200;
/// Default fraction of the second pass that is a renamed + relabeled +
/// commuting-reordered *near-duplicate* rather than an exact repeat.
const NEAR_DUP_FRAC: f64 = 0.5;
/// Minimum canonical-over-exact hit-count lift the gate demands.
const SEMANTIC_LIFT_FLOOR: f64 = 1.5;
/// Semantic device: 12 qubits, inside the server's statevector
/// re-verification bound, so every canonical hit is oracle-checked.
const SEMANTIC_DEVICE: &str = "grid:3x4";

struct SemanticRun {
    suite: usize,
    near_dup_frac: f64,
    near_dups: u64,
    exact_repeats: u64,
    on_mix_exact_hits: u64,
    on_mix_canonical_hits: u64,
    on_mix_misses: u64,
    on_canonical_rejected: u64,
    on_warm_wall_ms: f64,
    on_mix_wall_ms: f64,
    off_mix_hits: u64,
    off_mix_misses: u64,
    off_mix_wall_ms: f64,
    hit_lift: f64,
}

fn qasm_request(source: &str) -> String {
    let escaped = source
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!(
        r#"{{"type":"compile","qasm":"{escaped}","device":"{SEMANTIC_DEVICE}","placer":"trivial","router":"lookahead"}}"#
    )
}

/// The suite in QASM form, plus the seeded second-pass mix: for each
/// circuit either its near-duplicate twin (renamed, qubits relabeled,
/// commuting-adjacent gates reordered) or the exact same text again.
/// Returns (originals, mix, near_dup_count).
fn semantic_workload(near_dup_frac: f64) -> (Vec<String>, Vec<String>, u64) {
    // Over-generate and keep the first SEMANTIC_SUITE circuits that fit
    // the 12-qubit device — some families add ancillas past max_qubits.
    let suite: Vec<_> = generate_suite(&SuiteConfig {
        count: SEMANTIC_SUITE * 2,
        max_qubits: 12,
        max_gates: 300,
        seed: 0xE16,
    })
    .into_iter()
    .filter(|b| b.circuit.qubit_count() <= 12)
    .take(SEMANTIC_SUITE)
    .collect();
    assert_eq!(suite.len(), SEMANTIC_SUITE, "suite fills the target count");
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED ^ 0x5EAC);
    let mut originals = Vec::with_capacity(suite.len());
    let mut mix = Vec::with_capacity(suite.len());
    let mut near_dups = 0u64;
    for bench in &suite {
        let source = qasm::print(&bench.circuit);
        let roll: f64 = rng.gen_range(0.0..1.0);
        if roll < near_dup_frac {
            near_dups += 1;
            let n = bench.circuit.qubit_count();
            let mut relabel: Vec<usize> = (0..n).collect();
            shuffle(&mut relabel, &mut rng);
            let twin = commuting_shuffle(
                &permute_qubits(&bench.circuit, &relabel),
                rng.gen::<u64>(),
                128,
            );
            mix.push(qasm_request(&qasm::print(&twin)));
        } else {
            mix.push(qasm_request(&source));
        }
        originals.push(qasm_request(&source));
    }
    (originals, mix, near_dups)
}

/// Fires every request sequentially on one connection; every response
/// must be a `result`. Returns wall milliseconds.
fn drive(addr: SocketAddr, requests: &[String]) -> f64 {
    let mut stream = connect(addr);
    let start = Instant::now();
    for request in requests {
        let reply = exchange_json(&mut stream, request);
        assert_eq!(
            response_type(&reply),
            "result",
            "semantic bench compile failed: {}",
            reply.to_compact_string()
        );
    }
    start.elapsed().as_secs_f64() * 1e3
}

fn semantic_stats(addr: SocketAddr) -> (u64, u64, u64, u64) {
    let mut control = connect(addr);
    let stats = exchange_json(&mut control, r#"{"type":"stats"}"#);
    let s = stats.get("semantic").expect("stats carry semantic block");
    let counter = |key: &str| {
        s.get(key)
            .and_then(Json::as_usize)
            .unwrap_or_else(|| panic!("semantic stats carry {key}")) as u64
    };
    (
        counter("exact_hits"),
        counter("canonical_hits"),
        counter("misses"),
        counter("canonical_rejected"),
    )
}

fn start_semantic_shard(semantic: bool) -> ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        event_loops: 1,
        max_connections: 16,
        cache_bytes: 64 << 20,
        frame_deadline: Duration::from_secs(30),
        persist_dir: None,
        semantic_cache: semantic,
        bucket_angles: false,
    })
    .expect("shard starts")
}

/// A/B measurement of canonical vs exact keying: warm the suite, then
/// replay the seeded near-dup mix against a semantic daemon and an
/// exact-only daemon. Counters are pure functions of the seeded
/// workload, so they gate exactly; the lift and rejection floors are
/// additionally asserted here so a regression fails even a re-record.
fn run_semantic(near_dup_frac: f64) -> SemanticRun {
    let (originals, mix, near_dups) = semantic_workload(near_dup_frac);

    let on = start_semantic_shard(true);
    let on_warm_wall_ms = drive(on.local_addr(), &originals);
    let warm_stats = semantic_stats(on.local_addr());
    let on_mix_wall_ms = drive(on.local_addr(), &mix);
    let (exact_hits, canonical_hits, misses, rejected) = semantic_stats(on.local_addr());
    on.shutdown();
    // Mix-phase deltas: the warm pass can itself hit canonically when
    // two suite members are structurally equivalent.
    let on_mix_exact_hits = exact_hits - warm_stats.0;
    let on_mix_canonical_hits = canonical_hits - warm_stats.1;
    let on_mix_misses = misses - warm_stats.2;

    let off = start_semantic_shard(false);
    drive(off.local_addr(), &originals);
    let off_warm = semantic_stats(off.local_addr());
    let off_mix_wall_ms = drive(off.local_addr(), &mix);
    let (off_hits, _, off_misses, _) = semantic_stats(off.local_addr());
    off.shutdown();
    let off_mix_hits = off_hits - off_warm.0;
    let off_mix_misses = off_misses - off_warm.2;

    let on_hits = on_mix_exact_hits + on_mix_canonical_hits;
    let hit_lift = on_hits as f64 / (off_mix_hits.max(1)) as f64;
    assert!(
        hit_lift >= SEMANTIC_LIFT_FLOOR,
        "canonical keying must lift the near-dup hit count >= \
         {SEMANTIC_LIFT_FLOOR}x over exact keying (got {hit_lift:.3}: \
         {on_hits} vs {off_mix_hits})"
    );
    assert_eq!(
        rejected, 0,
        "the statevector verifier must never reject a canonical replay"
    );

    SemanticRun {
        suite: SEMANTIC_SUITE,
        near_dup_frac,
        near_dups,
        exact_repeats: SEMANTIC_SUITE as u64 - near_dups,
        on_mix_exact_hits,
        on_mix_canonical_hits,
        on_mix_misses,
        on_canonical_rejected: rejected,
        on_warm_wall_ms,
        on_mix_wall_ms,
        off_mix_hits,
        off_mix_misses,
        off_mix_wall_ms,
        hit_lift,
    }
}

// ---------------------------------------------------------------------
// Document
// ---------------------------------------------------------------------

fn u64_array(values: &[u64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::from(v)).collect())
}

fn doc(locality: &LocalityRun, saturation: &[SweepRow], semantic: &SemanticRun) -> Json {
    Json::object([
        ("schema", Json::from(SCHEMA)),
        (
            "config",
            Json::object([
                ("clients", Json::from(CLIENTS)),
                ("copies_per_client", Json::from(COPIES)),
                ("workers_per_shard", Json::from(2u64)),
                ("event_loops_per_shard", Json::from(1u64)),
                ("ring_replicas", Json::from(64u64)),
                ("mean_gap_ms", Json::Number(MEAN_GAP_MS)),
            ]),
        ),
        (
            "locality",
            Json::object([
                ("shards", Json::from(locality.shards)),
                ("distinct_jobs", Json::from(locality.distinct_jobs)),
                ("warm_forwarded", u64_array(&locality.warm_forwarded)),
                (
                    "sustained",
                    Json::object([
                        ("requests", Json::from(locality.sustained_requests)),
                        ("errors", Json::from(locality.sustained_errors)),
                        ("forwarded", u64_array(&locality.forwarded)),
                        ("hits", u64_array(&locality.hits)),
                        ("misses", u64_array(&locality.misses)),
                        ("reroutes", Json::from(locality.reroutes)),
                        ("forward_errors", Json::from(locality.forward_errors)),
                        ("wall_ms", Json::Number(round3(locality.wall_ms))),
                        ("achieved_rps", Json::Number(round3(locality.achieved_rps))),
                        ("latency_p50_micros", Json::Number(locality.p50_micros)),
                        ("latency_p95_micros", Json::Number(locality.p95_micros)),
                        ("latency_p99_micros", Json::Number(locality.p99_micros)),
                    ]),
                ),
                // Exact-gated: on a healthy loopback fleet with the
                // pinned hedge delay, every counter here must be zero.
                (
                    "resilience",
                    Json::object([
                        ("hedges_fired", Json::from(locality.resilience.hedges_fired)),
                        ("hedges_won", Json::from(locality.resilience.hedges_won)),
                        (
                            "admission_shed",
                            Json::from(locality.resilience.admission_shed),
                        ),
                        (
                            "deadline_rejected",
                            Json::from(locality.resilience.deadline_rejected),
                        ),
                        (
                            "breaker_opens",
                            u64_array(&locality.resilience.breaker_opens),
                        ),
                    ]),
                ),
            ]),
        ),
        (
            "saturation",
            Json::Array(
                saturation
                    .iter()
                    .map(|r| {
                        Json::object([
                            ("shards", Json::from(r.shards)),
                            ("requests", Json::from(r.requests)),
                            ("errors", Json::from(r.errors)),
                            ("wall_ms", Json::Number(round3(r.wall_ms))),
                            ("throughput_rps", Json::Number(round3(r.throughput_rps))),
                        ])
                    })
                    .collect(),
            ),
        ),
        // Counters are pure functions of the seeded workload and gate
        // exactly; `hit_lift` is a deterministic counter ratio.
        (
            "semantic",
            Json::object([
                ("suite", Json::from(semantic.suite)),
                ("near_dup_frac", Json::Number(semantic.near_dup_frac)),
                ("near_dups", Json::from(semantic.near_dups)),
                ("exact_repeats", Json::from(semantic.exact_repeats)),
                (
                    "canonical_keying",
                    Json::object([
                        ("mix_exact_hits", Json::from(semantic.on_mix_exact_hits)),
                        (
                            "mix_canonical_hits",
                            Json::from(semantic.on_mix_canonical_hits),
                        ),
                        ("mix_misses", Json::from(semantic.on_mix_misses)),
                        (
                            "canonical_rejected",
                            Json::from(semantic.on_canonical_rejected),
                        ),
                        (
                            "warm_wall_ms",
                            Json::Number(round3(semantic.on_warm_wall_ms)),
                        ),
                        ("mix_wall_ms", Json::Number(round3(semantic.on_mix_wall_ms))),
                    ]),
                ),
                (
                    "exact_keying",
                    Json::object([
                        ("mix_hits", Json::from(semantic.off_mix_hits)),
                        ("mix_misses", Json::from(semantic.off_mix_misses)),
                        (
                            "mix_wall_ms",
                            Json::Number(round3(semantic.off_mix_wall_ms)),
                        ),
                    ]),
                ),
                ("hit_lift", Json::Number(round3(semantic.hit_lift))),
            ]),
        ),
    ])
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

// ---------------------------------------------------------------------
// Regression check
// ---------------------------------------------------------------------

/// Absolute grace added on top of the relative budget for `_ms` keys —
/// microsecond-to-millisecond measurements on a loaded CI host can eat
/// a whole scheduler quantum without meaning anything.
const GRACE_MS: f64 = 25.0;
const GRACE_MICROS: f64 = 25_000.0;

fn check_file(path: &str, fresh: &Json, budget: f64) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: cannot read baseline: {e} (run bench_load to record it)");
            return false;
        }
    };
    let baseline = match qcs_json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("{path}: malformed baseline: {e}");
            return false;
        }
    };
    let mut ok = true;
    compare(path, &baseline, fresh, budget, &mut ok);
    ok
}

/// Structural comparison with the serving-tier budget conventions:
/// `_ms`/`_micros` keys are lower-is-better wall measurements (budget×
/// the baseline, plus an absolute grace floor), `_rps` keys are
/// higher-is-better throughputs (may shrink to 1/budget), everything
/// else must match exactly.
fn compare(path: &str, baseline: &Json, fresh: &Json, budget: f64, ok: &mut bool) {
    match (baseline, fresh) {
        (Json::Object(b), Json::Object(f)) => {
            if b.len() != f.len() || b.iter().zip(f).any(|((bk, _), (fk, _))| bk != fk) {
                eprintln!("{path}: object shape changed");
                *ok = false;
                return;
            }
            for ((key, bv), (_, fv)) in b.iter().zip(f) {
                compare(&format!("{path}.{key}"), bv, fv, budget, ok);
            }
        }
        (Json::Array(b), Json::Array(f)) => {
            if b.len() != f.len() {
                eprintln!("{path}: array length {} -> {}", b.len(), f.len());
                *ok = false;
                return;
            }
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                compare(&format!("{path}[{i}]"), bv, fv, budget, ok);
            }
        }
        (Json::Number(b), Json::Number(f))
            if path.ends_with("_ms") || path.ends_with("_micros") =>
        {
            let grace = if path.ends_with("_micros") {
                GRACE_MICROS
            } else {
                GRACE_MS
            };
            if budget > 0.0 && *f > *b * budget + grace {
                eprintln!("{path}: wall measurement regressed {b:.3} -> {f:.3} (budget {budget}x)");
                *ok = false;
            }
        }
        (Json::Number(b), Json::Number(f)) if path.ends_with("_rps") => {
            if budget > 0.0 && *f < *b / budget {
                eprintln!("{path}: throughput regressed {b:.3} -> {f:.3} rps (budget {budget}x)");
                *ok = false;
            }
        }
        _ => {
            if baseline != fresh {
                eprintln!("{path}: counter drift {baseline:?} -> {fresh:?}");
                *ok = false;
            }
        }
    }
}
