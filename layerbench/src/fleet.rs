//! The deployment under test: one router in front of two shards, each
//! shard with its own WAL directory, started in-process with default
//! configs apart from addresses, WAL directories and the router's hedge
//! delay (see [`HEDGE_AFTER`]).

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use qcs_serve::{read_frame, write_frame, Router, RouterConfig, RouterHandle, Server};
use qcs_serve::{ServerConfig, ServerHandle};

use crate::json::{self, Value};
use crate::load::Clients;

const SHARDS: usize = 2;

/// The router's hedge delay, pinned above any hit's latency. Derived
/// from the observed p99 (at most 100 ms), it fires on the suite's
/// large-frame hits, whose parse alone takes longer, and each hedge
/// then compiles cold on the shard that does not own the job: a few
/// such compiles per run dominate the run's tail.
const HEDGE_AFTER: Duration = Duration::from_secs(5);

pub struct Fleet {
    shards: Vec<ServerHandle>,
    router: RouterHandle,
    dir: PathBuf,
}

impl Fleet {
    /// Starts the shards on empty WAL directories under `dir`, then the
    /// router in front of them.
    pub fn start(dir: &Path) -> io::Result<Fleet> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        let mut shards = Vec::with_capacity(SHARDS);
        for k in 0..SHARDS {
            let wal = dir.join(format!("shard{k}"));
            std::fs::create_dir_all(&wal)?;
            shards.push(Server::start(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                persist_dir: Some(wal.to_string_lossy().into_owned()),
                ..ServerConfig::default()
            })?);
        }
        let router = Router::start(RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            hedge_after: Some(HEDGE_AFTER),
            ..RouterConfig::default()
        })?;
        Ok(Fleet {
            shards,
            router,
            dir: dir.to_path_buf(),
        })
    }

    pub fn router_addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(ServerHandle::local_addr).collect()
    }

    /// Reads the router's and every shard's `stats`.
    pub fn counters(&self) -> io::Result<Counters> {
        let router = stats(self.router_addr())?;
        let shards = self
            .shard_addrs()
            .into_iter()
            .map(stats)
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Counters::from_stats(&router, &shards))
    }

    /// Requests the router has forwarded to each shard so far.
    pub fn forwarded(&self) -> io::Result<Vec<f64>> {
        Ok(Counters::from_stats(&stats(self.router_addr())?, &[]).forwarded)
    }

    /// Makes the router open each client's connection to each shard at
    /// the same moment. A shard hands accepted connections to its event
    /// loops in turn, so connections opened back to back land on
    /// different loops; opened at random times (the router's health
    /// probes connect in between) they share a loop in about half the
    /// runs, and then one client's large frame blocks the other's.
    pub fn prime(&self, clients: &mut Clients) -> io::Result<()> {
        let mut discover = TcpStream::connect(self.router_addr())?;
        let mut owned: Vec<Option<Vec<u8>>> = vec![None; SHARDS];
        let mut before = self.forwarded()?;
        for n in 2..64 {
            if owned.iter().all(Option::is_some) {
                break;
            }
            let frame = format!(r#"{{"type":"compile","workload":"ghz:{n}","device":"line:{n}"}}"#);
            write_frame(&mut discover, frame.as_bytes())?;
            read_frame(&mut discover)?;
            let after = self.forwarded()?;
            if let Some(owner) = (0..SHARDS).find(|&k| after.get(k) > before.get(k)) {
                owned[owner].get_or_insert_with(|| frame.into_bytes());
            }
            before = after;
        }
        for frame in owned {
            let frame = frame.ok_or_else(|| io::Error::other("a shard owns no probe request"))?;
            clients.send_together(&frame)?;
        }
        Ok(())
    }

    /// Stops the router, then the shards, and removes the WAL directories.
    pub fn stop(self) -> io::Result<()> {
        self.router.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
        std::fs::remove_dir_all(&self.dir)
    }
}

/// One request/response exchange on a fresh connection.
fn exchange(addr: SocketAddr, frame: &[u8]) -> io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(&mut stream, frame)?;
    read_frame(&mut stream)?.ok_or_else(|| io::Error::other("connection closed before a reply"))
}

fn stats(addr: SocketAddr) -> io::Result<Value> {
    let reply = exchange(addr, br#"{"type":"stats"}"#)?;
    json::parse(&reply).map_err(|e| io::Error::other(format!("stats reply: {e}")))
}

/// Counters from the `stats` responses, summed over the shards.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub exact_hits: f64,
    pub canonical_hits: f64,
    pub misses: f64,
    pub canonical_rejected: f64,
    pub portfolio_raced: f64,
    pub deadline_rejected: f64,
    pub jobs_panicked: f64,
    pub persist_errors: f64,
    /// Shard `total` histogram: request count and summed microseconds.
    pub shard_requests: f64,
    pub shard_micros: f64,
    /// Largest per-shard p50 / p99 of the `total` histogram (bucket
    /// upper bounds, over the shard's lifetime).
    pub shard_p50_us: f64,
    pub shard_p99_us: f64,
    pub reroutes: f64,
    pub hedges_fired: f64,
    pub admission_shed: f64,
    pub breaker_opens: f64,
    /// Requests the router forwarded to each shard.
    pub forwarded: Vec<f64>,
}

fn num(value: &Value, path: &[&str]) -> f64 {
    value.path(path).and_then(Value::as_f64).unwrap_or(0.0)
}

impl Counters {
    fn from_stats(router: &Value, shards: &[Value]) -> Counters {
        let mut c = Counters::default();
        for s in shards {
            c.exact_hits += num(s, &["semantic", "exact_hits"]);
            c.canonical_hits += num(s, &["semantic", "canonical_hits"]);
            c.misses += num(s, &["semantic", "misses"]);
            c.canonical_rejected += num(s, &["semantic", "canonical_rejected"]);
            c.portfolio_raced += num(s, &["portfolio", "raced"]);
            c.deadline_rejected += num(s, &["deadline", "rejected"]);
            c.jobs_panicked += num(s, &["faults", "jobs_panicked"]);
            c.persist_errors += num(s, &["persist", "append_errors"]);
            let count = num(s, &["latency_micros", "total", "count"]);
            c.shard_requests += count;
            c.shard_micros += count * num(s, &["latency_micros", "total", "mean_micros"]);
            c.shard_p50_us = c
                .shard_p50_us
                .max(num(s, &["latency_micros", "total", "p50_micros"]));
            c.shard_p99_us = c
                .shard_p99_us
                .max(num(s, &["latency_micros", "total", "p99_micros"]));
        }
        c.reroutes = num(router, &["reroutes"]);
        c.hedges_fired = num(router, &["resilience", "hedges_fired"]);
        c.admission_shed = num(router, &["resilience", "admission_shed"]);
        for shard in router
            .get("shards")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            c.breaker_opens += num(shard, &["breaker_opens"]);
            c.forwarded.push(num(shard, &["forwarded"]));
        }
        c
    }

    /// The change from `before` to `self` of every monotonic counter;
    /// the lifetime percentiles are kept as they are.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            exact_hits: self.exact_hits - before.exact_hits,
            canonical_hits: self.canonical_hits - before.canonical_hits,
            misses: self.misses - before.misses,
            canonical_rejected: self.canonical_rejected - before.canonical_rejected,
            portfolio_raced: self.portfolio_raced - before.portfolio_raced,
            deadline_rejected: self.deadline_rejected - before.deadline_rejected,
            jobs_panicked: self.jobs_panicked - before.jobs_panicked,
            persist_errors: self.persist_errors - before.persist_errors,
            shard_requests: self.shard_requests - before.shard_requests,
            shard_micros: self.shard_micros - before.shard_micros,
            shard_p50_us: self.shard_p50_us,
            shard_p99_us: self.shard_p99_us,
            reroutes: self.reroutes - before.reroutes,
            hedges_fired: self.hedges_fired - before.hedges_fired,
            admission_shed: self.admission_shed - before.admission_shed,
            breaker_opens: self.breaker_opens - before.breaker_opens,
            forwarded: self
                .forwarded
                .iter()
                .zip(before.forwarded.iter().chain(std::iter::repeat(&0.0)))
                .map(|(after, before)| after - before)
                .collect(),
        }
    }
}
