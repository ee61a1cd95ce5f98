//! The three workloads: the requests each sends, and in which order.
//!
//! The circuit sets are fixed: the paper's 200-circuit suite and the
//! E16 set of 12-qubit circuits. `--seed` drives everything that is
//! sampled from them: request order, the open-loop arrival times, the
//! near-dup mix, each twin's relabeling and reordering, and the unseen
//! circuits. Runs on different seeds therefore measure the same work in
//! a different order.

use std::collections::HashSet;
use std::time::Duration;

use qcs_circuit::canon::{self, commuting_shuffle, permute_qubits, CanonConfig};
use qcs_circuit::circuit::Circuit;
use qcs_circuit::qasm;
use qcs_core::config::MapperConfig;
use qcs_json::Json;
use qcs_rng::{Rng, SeedableRng, Xoshiro256StarStar};
use qcs_serve::{CompileRequest, Source};
use qcs_workloads::suite::{generate_suite, SuiteConfig};

use crate::json::{self, Value};

/// The paper suite's seed, and the default `--seed`.
pub const PAPER_SEED: u64 = 0xDA7E_2022;

/// suite-hits arrival rate, fixed once: about half of what two
/// closed-loop clients reach on a 2-core host before the router's shard
/// connections are primed (78/s), a third after (about 120/s).
const HITS_RATE_PER_S: f64 = 40.0;

/// near-dup: the warmed originals (the E16 set size).
const NEAR_DUP_ORIGINALS: usize = 200;
/// near-dup: the device, inside the shard's statevector re-check bound.
const NEAR_DUP_DEVICE: &str = "grid:3x4";
/// near-dup: ceiling on the request rate the pre-generated mix covers.
const NEAR_DUP_MAX_RPS: u64 = 400;
/// near-dup mix: shares of exact repeats and fresh twins; the rest are
/// unseen circuits.
const REPEAT_SHARE: f64 = 0.4;
const TWIN_SHARE: f64 = 0.4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    SuiteHits,
    SuiteCold,
    NearDup,
}

impl Name {
    pub const ALL: [Name; 3] = [Name::SuiteHits, Name::SuiteCold, Name::NearDup];

    pub fn parse(text: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == text)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Name::SuiteHits => "suite-hits",
            Name::SuiteCold => "suite-cold",
            Name::NearDup => "near-dup",
        }
    }
}

/// How the benchmark expects a request to be served.
#[derive(Debug, Clone)]
pub enum Kind {
    /// An exact job: the response must equal an in-process `run_job`.
    Exact,
    /// A twin of request `original`: its circuit is the original's with
    /// qubits relabeled (`relabel[old] = new`) and commuting gates
    /// reordered.
    Twin {
        original: usize,
        relabel: Vec<usize>,
    },
}

/// One distinct request.
pub struct Req {
    /// The frame payload sent on the wire.
    pub frame: Vec<u8>,
    pub device: &'static str,
    pub kind: Kind,
}

impl Req {
    fn new(
        circuit: &Circuit,
        device: &'static str,
        strategy: Option<(&str, &str)>,
        kind: Kind,
    ) -> Req {
        let mut members = vec![
            ("type", Json::from("compile")),
            ("qasm", Json::from(qasm::print(circuit))),
            ("device", Json::from(device)),
        ];
        if let Some((placer, router)) = strategy {
            members.push(("placer", Json::from(placer)));
            members.push(("router", Json::from(router)));
        }
        Req {
            frame: Json::object(members).to_compact_string().into_bytes(),
            device,
            kind,
        }
    }

    /// The request the frame carries, read without the program's own
    /// (size-quadratic) JSON parser.
    pub fn request(&self) -> Result<CompileRequest, String> {
        let value = json::parse(&self.frame)?;
        let text = |key: &str| value.get(key).and_then(Value::as_str);
        let default = MapperConfig::default();
        Ok(CompileRequest {
            source: Source::Qasm(text("qasm").ok_or("frame without qasm")?.to_string()),
            device: self.device.to_string(),
            config: MapperConfig::new(
                text("placer").unwrap_or(&default.placer),
                text("router").unwrap_or(&default.router),
            ),
            deadline_ms: None,
            race: false,
            request_id: None,
        })
    }
}

/// Everything one run of a workload sends.
pub struct Plan {
    pub name: Name,
    pub reqs: Vec<Req>,
    /// Requests sent during set-up, before the clock starts.
    pub warm: Vec<usize>,
    /// The timed request sequence. suite-cold draws a fresh order per
    /// pass instead (see [`Plan::cold_order`]).
    pub timed: Vec<usize>,
    /// suite-hits: each timed request's send time, from the start.
    pub offsets: Vec<Duration>,
    /// The fixed job set behind `routed_gates_sum` and `fidelity_mean`.
    pub quality: Vec<usize>,
    rng: Xoshiro256StarStar,
}

impl Plan {
    pub fn build(name: Name, seed: u64, seconds: u64) -> Plan {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        match name {
            Name::SuiteHits => {
                let reqs = paper_jobs();
                let count = (HITS_RATE_PER_S * seconds as f64).round().max(1.0) as usize;
                let mut timed = Vec::with_capacity(count);
                while timed.len() < count {
                    timed.extend(spread_order(&reqs, &mut rng));
                }
                timed.truncate(count);
                // A Poisson process conditioned on `count` arrivals in
                // the window: sorted uniform arrival times.
                let window = seconds as f64;
                let mut arrivals: Vec<f64> =
                    (0..count).map(|_| rng.gen_range(0.0..window)).collect();
                arrivals.sort_by(f64::total_cmp);
                Plan {
                    name,
                    warm: (0..reqs.len()).collect(),
                    quality: (0..reqs.len()).collect(),
                    offsets: arrivals.into_iter().map(Duration::from_secs_f64).collect(),
                    timed,
                    reqs,
                    rng,
                }
            }
            Name::SuiteCold => {
                let reqs = paper_jobs();
                Plan {
                    name,
                    warm: Vec::new(),
                    quality: (0..reqs.len()).collect(),
                    offsets: Vec::new(),
                    timed: Vec::new(),
                    reqs,
                    rng,
                }
            }
            Name::NearDup => near_dup(name, seed, seconds, rng),
        }
    }

    /// suite-cold: a fresh seeded order of every job, one per pass.
    pub fn cold_order(&mut self) -> Vec<usize> {
        permutation(self.reqs.len(), &mut self.rng)
    }
}

/// A seeded order of every request that spreads frames of similar size
/// evenly over the pass: the `r`-th largest frame goes to position
/// `frac(offset + r * phi)` of the pass (a golden-ratio interleave under
/// a seeded rotation, with a little seeded jitter). The few ~100 KB
/// frames then never arrive back to back by chance; when they do, both
/// cores stall for about a second and that run's tail is several times
/// another's.
fn spread_order(reqs: &[Req], rng: &mut Xoshiro256StarStar) -> Vec<usize> {
    const PHI: f64 = 0.618_033_988_749_895;
    let n = reqs.len() as f64;
    let offset: f64 = rng.gen_range(0.0..1.0);
    let mut by_size: Vec<usize> = (0..reqs.len()).collect();
    by_size.sort_by_key(|&i| (std::cmp::Reverse(reqs[i].frame.len()), i));
    let mut keyed: Vec<(f64, usize)> = by_size
        .into_iter()
        .enumerate()
        .map(|(rank, i)| {
            let jitter: f64 = rng.gen_range(0.0..1.0 / n);
            ((offset + rank as f64 * PHI + jitter).fract(), i)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, i)| i).collect()
}

fn permutation(n: usize, rng: &mut Xoshiro256StarStar) -> Vec<usize> {
    let mut items: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
    items
}

/// The paper suite as inline QASM: each circuit with `auto` on
/// surface97, then with the default pipeline on `dpqa:9x9`.
fn paper_jobs() -> Vec<Req> {
    let suite = generate_suite(&SuiteConfig::default());
    debug_assert_eq!(SuiteConfig::default().seed, PAPER_SEED);
    let mut reqs = Vec::with_capacity(2 * suite.len());
    for bench in &suite {
        reqs.push(Req::new(
            &bench.circuit,
            "surface97",
            Some(("auto", "auto")),
            Kind::Exact,
        ));
        reqs.push(Req::new(&bench.circuit, "dpqa:9x9", None, Kind::Exact));
    }
    reqs
}

fn canonical_digest(circuit: &Circuit) -> u64 {
    canon::canonical_digest(&canon::canonicalize(circuit, &CanonConfig::default()).circuit)
}

/// 12-qubit suite circuits, each structurally distinct from every
/// circuit in `seen` (which it extends).
fn distinct_circuits(config: SuiteConfig, seen: &mut HashSet<u64>) -> Vec<Circuit> {
    generate_suite(&config)
        .into_iter()
        .map(|bench| bench.circuit)
        .filter(|c| c.qubit_count() <= 12 && seen.insert(canonical_digest(c)))
        .collect()
}

/// near-dup: warm the E16 originals, then a seeded mix of exact
/// repeats, fresh twins and unseen circuits on `grid:3x4`.
fn near_dup(name: Name, seed: u64, seconds: u64, mut rng: Xoshiro256StarStar) -> Plan {
    let mut seen = HashSet::new();
    let originals: Vec<Circuit> = distinct_circuits(
        SuiteConfig {
            count: 2 * NEAR_DUP_ORIGINALS,
            max_qubits: 12,
            max_gates: 300,
            seed: 0xE16,
        },
        &mut seen,
    )
    .into_iter()
    .take(NEAR_DUP_ORIGINALS)
    .collect();
    assert_eq!(originals.len(), NEAR_DUP_ORIGINALS, "E16 set fills");
    let mut reqs: Vec<Req> = originals
        .iter()
        .map(|c| Req::new(c, NEAR_DUP_DEVICE, None, Kind::Exact))
        .collect();

    let slots = (NEAR_DUP_MAX_RPS * seconds) as usize;
    let mut unseen = Vec::new();
    let mut pool_seed = seed ^ 0x0005_EE17;
    let mut timed = Vec::with_capacity(slots);
    for _ in 0..slots {
        let roll: f64 = rng.gen_range(0.0..1.0);
        if roll < REPEAT_SHARE {
            timed.push(rng.gen_range(0..NEAR_DUP_ORIGINALS));
            continue;
        }
        if roll < REPEAT_SHARE + TWIN_SHARE {
            let original = rng.gen_range(0..NEAR_DUP_ORIGINALS);
            let circuit = &originals[original];
            let relabel = permutation(circuit.qubit_count(), &mut rng);
            let twin = commuting_shuffle(&permute_qubits(circuit, &relabel), rng.gen(), 128);
            reqs.push(Req::new(
                &twin,
                NEAR_DUP_DEVICE,
                None,
                Kind::Twin { original, relabel },
            ));
        } else {
            while unseen.is_empty() {
                pool_seed = pool_seed.wrapping_add(1);
                unseen = distinct_circuits(
                    SuiteConfig {
                        count: 64,
                        max_qubits: 12,
                        max_gates: 300,
                        seed: pool_seed,
                    },
                    &mut seen,
                );
                unseen.reverse();
            }
            let circuit = unseen.pop().expect("pool refilled above");
            reqs.push(Req::new(&circuit, NEAR_DUP_DEVICE, None, Kind::Exact));
        }
        timed.push(reqs.len() - 1);
    }
    Plan {
        name,
        warm: (0..NEAR_DUP_ORIGINALS).collect(),
        quality: (0..NEAR_DUP_ORIGINALS).collect(),
        offsets: Vec::new(),
        timed,
        reqs,
        rng,
    }
}
