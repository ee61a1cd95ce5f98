//! The traced run: replays a workload's requests single-threaded
//! through the public entry points the router and a shard call, in the
//! daemon's order, and times each call as a span.
//!
//! Every span carries its request's id; the request is the parent span.
//! Spans on the request's path (parse, route key, resolve, key, cache,
//! canonicalize, replay, compile, insert, WAL append) add up to the
//! request; `mapper.*` are the stage timings inside `compile.run`.
//! `portfolio.select`, `verify.outcome` and `dpqa.map` are probes: extra
//! calls that measure a layer the compile runs internally, kept off the
//! request's sum.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::io;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use qcs_circuit::canon::CanonConfig;
use qcs_circuit::hash::circuit_digest;
use qcs_circuit::qasm;
use qcs_core::{verify_outcome, MapperConfig, Selector, VerifyConfig};
use qcs_rng::{ChaCha8Rng, SeedableRng};
use qcs_serve::cache::{CanonicalHit, CanonicalInfo};
use qcs_serve::compile::CanonicalJob;
use qcs_serve::{run_job, Job, Request, ResultCache, ServerConfig, Store};

use crate::check::Reference;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Parse,
    RouterCanon,
    Resolve,
    Key,
    CacheGet,
    Canonicalize,
    ReplayVerify,
    PortfolioSelect,
    CompileRun,
    Decompose,
    Place,
    Route,
    Schedule,
    VerifyOutcome,
    DpqaMap,
    CacheInsert,
    PersistAppend,
}

impl Layer {
    pub const ALL: [Layer; 17] = [
        Layer::Parse,
        Layer::RouterCanon,
        Layer::Resolve,
        Layer::Key,
        Layer::CacheGet,
        Layer::Canonicalize,
        Layer::ReplayVerify,
        Layer::PortfolioSelect,
        Layer::CompileRun,
        Layer::Decompose,
        Layer::Place,
        Layer::Route,
        Layer::Schedule,
        Layer::VerifyOutcome,
        Layer::DpqaMap,
        Layer::CacheInsert,
        Layer::PersistAppend,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Parse => "protocol.parse",
            Layer::RouterCanon => "router.canon",
            Layer::Resolve => "compile.resolve",
            Layer::Key => "compile.key",
            Layer::CacheGet => "cache.get",
            Layer::Canonicalize => "canon.canonicalize",
            Layer::ReplayVerify => "replay.verify",
            Layer::PortfolioSelect => "portfolio.select",
            Layer::CompileRun => "compile.run",
            Layer::Decompose => "mapper.decompose",
            Layer::Place => "mapper.place",
            Layer::Route => "mapper.route",
            Layer::Schedule => "mapper.schedule",
            Layer::VerifyOutcome => "verify.outcome",
            Layer::DpqaMap => "dpqa.map",
            Layer::CacheInsert => "cache.insert",
            Layer::PersistAppend => "persist.append",
        }
    }

    /// Whether the span lies on the request's own path (and so counts
    /// toward the request's attributed time).
    pub fn on_path(self) -> bool {
        !matches!(
            self,
            Layer::PortfolioSelect
                | Layer::Decompose
                | Layer::Place
                | Layer::Route
                | Layer::Schedule
                | Layer::VerifyOutcome
                | Layer::DpqaMap
        )
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u32,
    pub layer: Layer,
    pub micros: f64,
}

/// One replayed request: its span and what it sent back.
pub struct Served {
    pub micros: f64,
    pub response_bytes: usize,
}

/// The spans recorded so far.
#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    fn time<T>(&mut self, request: u32, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.record(request, layer, start.elapsed().as_secs_f64() * 1e6);
        out
    }

    fn record(&mut self, request: u32, layer: Layer, micros: f64) {
        self.spans.push(Span {
            request,
            layer,
            micros,
        });
    }
}

/// The state one shard (and the router's route-key memo) would hold.
pub struct Replay {
    cache: ResultCache,
    store: Store,
    routed: HashSet<u64>,
    canon: CanonConfig,
    selector: Selector,
    pub tracer: Tracer,
    pub canonicalize_calls: u64,
    pub canonical_hits: u64,
}

impl Replay {
    /// A fresh replay whose WAL lives in `wal_dir`.
    pub fn new(wal_dir: &Path) -> io::Result<Replay> {
        std::fs::create_dir_all(wal_dir)?;
        let (store, _) = Store::open(wal_dir)?;
        Ok(Replay {
            cache: ResultCache::new(ServerConfig::default().cache_bytes),
            store,
            routed: HashSet::new(),
            canon: CanonConfig::default(),
            selector: Selector::default(),
            tracer: Tracer::default(),
            canonicalize_calls: 0,
            canonical_hits: 0,
        })
    }

    /// Puts a set-up request's compiled result in place, untimed, as
    /// the warm phase left it on the shard.
    pub fn warm(&mut self, frame: &[u8], reference: &Reference) -> Result<(), String> {
        self.routed.insert(text_key(frame));
        let job = resolve(frame)?;
        let cjob = job.canonicalize(&self.canon);
        self.cache.insert_with_canonical(
            job.digest(),
            job.full_key(),
            reference.payload.clone(),
            Some(canonical_info(
                cjob,
                reference.initial_layout.clone(),
                reference.final_layout.clone(),
            )),
        );
        Ok(())
    }

    /// Serves one request frame the way the router and the owning shard
    /// would, recording a span per call.
    pub fn serve(&mut self, request: u32, frame: &[u8]) -> Result<Served, String> {
        let start = Instant::now();
        let mut probe_micros = 0.0;

        // Router: parse, then the canonical route key for a new text.
        let parsed = self
            .tracer
            .time(request, Layer::Parse, || Request::parse(frame));
        let Ok(Request::Compile(routed)) = parsed else {
            return Err("not a compile request".to_string());
        };
        if self.routed.insert(text_key(frame)) {
            self.tracer
                .time(request, Layer::RouterCanon, || {
                    Job::resolve(&routed).map(|job| job.canonicalize(&self.canon))
                })
                .map_err(|e| e.to_string())?;
        }

        // Shard: parse, resolve, key, exact lookup.
        let parsed = self
            .tracer
            .time(request, Layer::Parse, || Request::parse(frame));
        let Ok(Request::Compile(compile)) = parsed else {
            return Err("not a compile request".to_string());
        };
        let job = self
            .tracer
            .time(request, Layer::Resolve, || Job::resolve(&compile))
            .map_err(|e| e.to_string())?;
        let (digest, key) = self
            .tracer
            .time(request, Layer::Key, || (job.digest(), job.full_key()));
        let hit = self
            .tracer
            .time(request, Layer::CacheGet, || self.cache.get(digest, &key));
        let payload = match hit {
            Some(payload) => payload.as_ref().clone(),
            None => {
                let cjob = self.tracer.time(request, Layer::Canonicalize, || {
                    job.canonicalize(&self.canon)
                });
                self.canonicalize_calls += 1;
                let chit = self.tracer.time(request, Layer::CacheGet, || {
                    self.cache.get_canonical(cjob.digest, &cjob.key)
                });
                let replayed = match chit {
                    Some(chit) => self
                        .tracer
                        .time(request, Layer::ReplayVerify, || replay(&job, &cjob, &chit))
                        .ok(),
                    None => None,
                };
                match replayed {
                    Some(hit) => {
                        self.canonical_hits += 1;
                        let info = canonical_info(cjob, hit.initial, hit.final_layout);
                        self.insert(request, digest, key, &hit.payload, info);
                        hit.payload
                    }
                    None => {
                        if job.portfolio() {
                            let started = Instant::now();
                            self.tracer
                                .time(request, Layer::PortfolioSelect, || {
                                    self.selector.select(&job.circuit)
                                })
                                .map_err(|e| format!("selector failed: {e}"))?;
                            probe_micros += started.elapsed().as_secs_f64() * 1e6;
                        }
                        let out = self
                            .tracer
                            .time(request, Layer::CompileRun, || run_job(&job))
                            .map_err(|e| e.to_string())?;
                        let t = out.timing;
                        for (layer, micros) in [
                            (Layer::Decompose, t.decompose_micros),
                            (Layer::Place, t.place_micros),
                            (Layer::Route, t.route_micros),
                            (Layer::Schedule, t.schedule_micros),
                        ] {
                            self.tracer.record(request, layer, micros);
                        }
                        let info = canonical_info(cjob, out.initial_layout, out.final_layout);
                        self.insert(request, digest, key, &out.payload, info);
                        let started = Instant::now();
                        self.probe(request, &job, &out.strategy)?;
                        probe_micros += started.elapsed().as_secs_f64() * 1e6;
                        out.payload
                    }
                }
            }
        };
        Ok(Served {
            micros: start.elapsed().as_secs_f64() * 1e6 - probe_micros,
            response_bytes: payload.len(),
        })
    }

    /// Cache insert and WAL append of a fresh entry, as the shard does.
    fn insert(
        &mut self,
        request: u32,
        digest: u64,
        key: Vec<u8>,
        payload: &[u8],
        info: CanonicalInfo,
    ) {
        let payload = payload.to_vec();
        let for_wal = info.clone();
        let wal_key = key.clone();
        let wal_payload = payload.clone();
        self.tracer.time(request, Layer::CacheInsert, || {
            self.cache
                .insert_with_canonical(digest, key, payload, Some(info))
        });
        self.tracer.time(request, Layer::PersistAppend, || {
            // A failed append is what the shard counts as a persist
            // error; the request is still served.
            let _ = self
                .store
                .append(digest, &wal_key, &wal_payload, Some(&for_wal));
            if self.store.should_compact() {
                let entries = self.cache.entries_by_recency();
                let _ = self.store.compact(&entries);
            }
        });
    }

    /// Probes for a cold compile's inner layers: the movement backend's
    /// `map` for a DPQA job, else `verify_outcome` on a `Mapper::map`
    /// outcome of the strategy that served.
    fn probe(&mut self, request: u32, job: &Job, strategy: &str) -> Result<(), String> {
        if job.backend.id().starts_with("dpqa") {
            self.tracer
                .time(request, Layer::DpqaMap, || {
                    job.backend.map(&job.circuit, &job.config)
                })
                .map_err(|e| format!("dpqa map failed: {e}"))?;
            return Ok(());
        }
        let (placer, router) = strategy.split_once('/').unwrap_or((strategy, strategy));
        let mapper = MapperConfig::new(placer, router)
            .build()
            .map_err(|e| e.to_string())?;
        let device = job.backend.device();
        let outcome = mapper
            .map(&job.circuit, device)
            .map_err(|e| e.to_string())?;
        self.tracer
            .time(request, Layer::VerifyOutcome, || {
                verify_outcome(&job.circuit, &outcome, device, &VerifyConfig::default())
            })
            .map_err(|e| format!("verify_outcome failed: {e}"))?;
        Ok(())
    }
}

fn text_key(frame: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    frame.hash(&mut h);
    h.finish()
}

fn resolve(frame: &[u8]) -> Result<Job, String> {
    match Request::parse(frame) {
        Ok(Request::Compile(c)) => Job::resolve(&c).map_err(|e| e.to_string()),
        _ => Err("not a compile request".to_string()),
    }
}

fn canonical_info(
    cjob: CanonicalJob,
    initial: Vec<usize>,
    final_layout: Vec<usize>,
) -> CanonicalInfo {
    CanonicalInfo {
        digest: cjob.digest,
        key: Arc::new(cjob.key),
        relabel: Arc::new(cjob.form.relabel),
        initial_layout: Arc::new(initial),
        final_layout: Arc::new(final_layout),
    }
}

/// Devices small enough for the shard's statevector re-check on a
/// canonical hit.
const REPLAY_VERIFY_MAX_QUBITS: usize = 12;

/// A replayed canonical hit: the rewritten payload and the requester's
/// own layouts.
struct Replayed {
    payload: Vec<u8>,
    initial: Vec<usize>,
    final_layout: Vec<usize>,
}

/// The shard's canonical replay: compose the cached layouts through both
/// relabelings, parse the cached payload and its QASM, re-verify, and
/// rewrite the payload's identity fields.
fn replay(job: &Job, cjob: &CanonicalJob, hit: &CanonicalHit) -> Result<Replayed, String> {
    let width = job.circuit.qubit_count();
    if hit.relabel.len() != width || cjob.form.relabel.len() != width {
        return Err("width mismatch".to_string());
    }
    let mut inverse = vec![0; width];
    for (old, &new) in hit.relabel.iter().enumerate() {
        inverse[new] = old;
    }
    let mut initial = vec![0; width];
    let mut final_layout = vec![0; width];
    for (v, &c) in cjob.form.relabel.iter().enumerate() {
        initial[v] = hit.initial_layout[inverse[c]];
        final_layout[v] = hit.final_layout[inverse[c]];
    }
    let text = std::str::from_utf8(&hit.payload).map_err(|e| e.to_string())?;
    let mut value = qcs_json::parse(text).map_err(|e| e.to_string())?;
    let native_text = value
        .get("qasm")
        .and_then(qcs_json::Json::as_str)
        .ok_or("payload carries no qasm")?;
    let qubits = job.backend.qubit_count();
    if qubits <= REPLAY_VERIFY_MAX_QUBITS {
        let native = qasm::parse(native_text).map_err(|e| e.to_string())?;
        let verdict = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(circuit_digest(&job.circuit) ^ 0x5345_4D43);
            qcs_sim::equiv::mapped_equivalent(
                &job.circuit,
                &native,
                qubits,
                &initial,
                &final_layout,
                2,
                &mut rng,
            )
        }));
        if !matches!(verdict, Ok(Ok(()))) {
            return Err("replayed mapping failed re-verification".to_string());
        }
    }
    value.set("digest", format!("{:016x}", job.digest()));
    if let Some(report) = value.get("report") {
        let mut report = report.clone();
        report.set("circuit_name", job.circuit.name().to_string());
        value.set("report", report);
    }
    Ok(Replayed {
        payload: value.to_compact_string().into_bytes(),
        initial,
        final_layout,
    })
}
