//! Output checks, run after the clock stops.
//!
//! Every response must be a `result` whose report says `verified`.
//! An independent scan of its QASM must find every two-qubit gate on a
//! coupler of the target device and as many gates as
//! `report.routed_gates`. An exact job's payload must be byte-identical
//! to an in-process `run_job` of the same request. A twin must pass
//! `mapped_equivalent` under the layouts derived from its original's
//! and the relabeling the benchmark applied, or else equal an
//! in-process `run_job` of the twin itself.

use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use qcs_circuit::qasm;
use qcs_rng::{ChaCha8Rng, SeedableRng};
use qcs_serve::{catalog, run_job, Job};

use crate::json::{self, Value};
use crate::load::{Sample, CLIENTS};
use crate::workload::{Kind, Req};

/// An in-process compile of one request.
pub struct Reference {
    pub payload: Vec<u8>,
    pub initial_layout: Vec<usize>,
    pub final_layout: Vec<usize>,
}

/// What a passing response reports.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    pub routed_gates: f64,
    pub fidelity_after: f64,
}

/// Compiles `reqs[i]` in-process for every `i` in `needed`, on
/// [`CLIENTS`] threads.
fn references(reqs: &[Req], needed: &[usize]) -> HashMap<usize, Result<Reference, String>> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                while let Some(&i) = needed.get(next.fetch_add(1, Ordering::SeqCst)) {
                    let reference = compile(&reqs[i]);
                    out.lock().expect("reference map lock").insert(i, reference);
                }
            });
        }
    });
    out.into_inner().expect("reference map lock")
}

fn compile(req: &Req) -> Result<Reference, String> {
    let job = Job::resolve(&req.request()?).map_err(|e| e.to_string())?;
    let out = run_job(&job).map_err(|e| e.to_string())?;
    Ok(Reference {
        payload: out.payload,
        initial_layout: out.initial_layout,
        final_layout: out.final_layout,
    })
}

/// A target device's couplers, as unordered physical-qubit pairs.
struct Couplers {
    qubits: usize,
    pairs: HashSet<(usize, usize)>,
}

impl Couplers {
    fn of(device: &str) -> Result<Couplers, String> {
        let resolved = catalog::resolve_device(device).map_err(|e| e.to_string())?;
        let pairs = resolved
            .coupling()
            .edges()
            .map(|(u, v, _)| (u.min(v), u.max(v)))
            .collect();
        Ok(Couplers {
            qubits: resolved.qubit_count(),
            pairs,
        })
    }
}

pub struct Checker<'a> {
    reqs: &'a [Req],
    refs: HashMap<usize, Result<Reference, String>>,
    /// Structural verdict of each reference payload, computed once.
    ref_verdicts: HashMap<usize, Result<Verdict, String>>,
    devices: HashMap<&'static str, Result<Couplers, String>>,
}

impl<'a> Checker<'a> {
    /// Compiles the references the `samples` need: every exact request
    /// and the original of every twin.
    pub fn new(reqs: &'a [Req], samples: &[&Sample]) -> Checker<'a> {
        let mut needed: Vec<usize> = samples
            .iter()
            .map(|s| match &reqs[s.req].kind {
                Kind::Exact => s.req,
                Kind::Twin { original, .. } => *original,
            })
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        needed.sort_unstable();
        let mut devices = HashMap::new();
        for req in reqs {
            devices
                .entry(req.device)
                .or_insert_with(|| Couplers::of(req.device));
        }
        Checker {
            refs: references(reqs, &needed),
            reqs,
            ref_verdicts: HashMap::new(),
            devices,
        }
    }

    /// Checks one response.
    pub fn check(&mut self, sample: &Sample) -> Result<Verdict, String> {
        if sample.response.is_empty() {
            return Err("no response: the exchange failed".to_string());
        }
        let reqs = self.reqs;
        let req = &reqs[sample.req];
        match &req.kind {
            Kind::Exact => {
                let reference = self.reference(sample.req)?;
                if sample.response != reference.payload {
                    return Err(format!(
                        "payload differs from an in-process run_job: {}",
                        summary(&sample.response)
                    ));
                }
                if let Some(verdict) = self.ref_verdicts.get(&sample.req) {
                    return verdict.clone();
                }
                let verdict = self.structure(&reference.payload, req.device);
                self.ref_verdicts.insert(sample.req, verdict.clone());
                verdict
            }
            Kind::Twin { original, relabel } => {
                let verdict = self.structure(&sample.response, req.device)?;
                match self.twin_equivalent(sample, *original, relabel) {
                    Ok(()) => Ok(verdict),
                    Err(replay_error) => match compile(req) {
                        Ok(fresh) if fresh.payload == sample.response => Ok(verdict),
                        _ => Err(replay_error),
                    },
                }
            }
        }
    }

    /// The in-process compile of request `req`.
    pub fn reference(&self, req: usize) -> Result<&Reference, String> {
        match self.refs.get(&req) {
            Some(Ok(reference)) => Ok(reference),
            Some(Err(e)) => Err(format!("in-process run_job failed: {e}")),
            None => Err("no reference compiled".to_string()),
        }
    }

    fn couplers(&self, device: &str) -> Result<&Couplers, String> {
        match self.devices.get(device) {
            Some(Ok(couplers)) => Ok(couplers),
            Some(Err(e)) => Err(e.clone()),
            None => Err(format!("unknown device '{device}'")),
        }
    }

    /// The structural checks on a response payload.
    fn structure(&self, payload: &[u8], device: &str) -> Result<Verdict, String> {
        let value = json::parse(payload).map_err(|e| format!("response is not JSON: {e}"))?;
        if value.get("type").and_then(Value::as_str) != Some("result") {
            return Err(format!("not a result: {}", summary(payload)));
        }
        let report = value.get("report").ok_or("result without a report")?;
        let field = |name: &str| {
            report
                .get(name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("report without numeric '{name}'"))
        };
        if report.get("verified").and_then(Value::as_bool) != Some(true) {
            return Err("report.verified is not true".to_string());
        }
        let routed_gates = field("routed_gates")?;
        let moves_inserted = field("moves_inserted")?;
        let fidelity_after = field("fidelity_after")?;
        let movement = report.get("router").and_then(Value::as_str) == Some(MOVE_ROUTER);
        let text = value
            .get("qasm")
            .and_then(Value::as_str)
            .ok_or("result without qasm")?;
        let couplers = self.couplers(device)?;
        let scan = scan_qasm(text, couplers, movement)?;
        if scan.gates as f64 != routed_gates {
            return Err(format!(
                "qasm holds {} gates, report.routed_gates says {routed_gates}",
                scan.gates
            ));
        }
        if movement && scan.moves as f64 != moves_inserted {
            return Err(format!(
                "qasm holds {} moves, report.moves_inserted says {moves_inserted}",
                scan.moves
            ));
        }
        Ok(Verdict {
            routed_gates,
            fidelity_after,
        })
    }

    /// Re-checks a twin's result against the twin's own circuit, under
    /// layouts composed from its original's reference layouts and the
    /// relabeling that made the twin.
    fn twin_equivalent(
        &self,
        sample: &Sample,
        original: usize,
        relabel: &[usize],
    ) -> Result<(), String> {
        let req = &self.reqs[sample.req];
        let job = Job::resolve(&req.request()?).map_err(|e| e.to_string())?;
        let value = json::parse(&sample.response).map_err(|e| e.to_string())?;
        let digest = format!("{:016x}", job.digest());
        if value.get("digest").and_then(Value::as_str) != Some(digest.as_str()) {
            return Err("twin result does not carry the twin's digest".to_string());
        }
        let text = value.get("qasm").and_then(Value::as_str).ok_or("no qasm")?;
        let native = qasm::parse(text).map_err(|e| format!("returned qasm rejected: {e}"))?;
        let reference = self.reference(original)?;
        let width = relabel.len();
        if job.circuit.qubit_count() != width || reference.initial_layout.len() != width {
            return Err("twin width differs from its original".to_string());
        }
        let mut initial = vec![0; width];
        let mut final_layout = vec![0; width];
        for (v, &twin_qubit) in relabel.iter().enumerate() {
            initial[twin_qubit] = reference.initial_layout[v];
            final_layout[twin_qubit] = reference.final_layout[v];
        }
        let qubits = self.couplers(req.device)?.qubits;
        let verdict = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(job.digest());
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
        match verdict {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("twin result is not equivalent: {e}")),
            Err(_) => Err("equivalence check panicked".to_string()),
        }
    }
}

/// The movement backend's router name: its SWAP statements are atom
/// relocations, not gates on a coupler.
const MOVE_ROUTER: &str = "dpqa-move";

struct Scan {
    gates: usize,
    moves: usize,
}

/// Counts the gate statements of printed QASM and checks each
/// two-qubit gate's operands against the device's couplers.
fn scan_qasm(text: &str, couplers: &Couplers, movement: bool) -> Result<Scan, String> {
    let mut scan = Scan { gates: 0, moves: 0 };
    for statement in text.split(';').map(str::trim) {
        if statement.is_empty()
            || ["OPENQASM", "include", "qreg", "creg"]
                .iter()
                .any(|head| statement.starts_with(head))
        {
            continue;
        }
        scan.gates += 1;
        let operands = qubit_operands(statement)?;
        if let Some(&q) = operands.iter().find(|&&q| q >= couplers.qubits) {
            return Err(format!("'{statement}' names qubit {q} outside the device"));
        }
        match operands.as_slice() {
            [_] => {}
            [_, _] if movement && statement.starts_with("swap ") => scan.moves += 1,
            [a, b] => {
                if !couplers.pairs.contains(&((*a).min(*b), (*a).max(*b))) {
                    return Err(format!("'{statement}' is not on a coupler of the device"));
                }
            }
            _ => return Err(format!("'{statement}' is not a one- or two-qubit gate")),
        }
    }
    Ok(scan)
}

/// The `q[N]` operands of one statement.
fn qubit_operands(statement: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    let mut rest = statement;
    while let Some(at) = rest.find("q[") {
        let tail = &rest[at + 2..];
        let close = tail
            .find(']')
            .ok_or_else(|| format!("unclosed operand in '{statement}'"))?;
        out.push(
            tail[..close]
                .parse()
                .map_err(|_| format!("bad operand in '{statement}'"))?,
        );
        rest = &tail[close + 1..];
    }
    Ok(out)
}

/// A short description of a response, for failure messages.
fn summary(payload: &[u8]) -> String {
    match json::parse(payload) {
        Ok(v) => match (v.get("type").and_then(Value::as_str), v.get("message")) {
            (Some("error"), Some(m)) => format!("error: {}", m.as_str().unwrap_or("?")),
            (Some(kind), _) => format!("a '{kind}' response of {} bytes", payload.len()),
            (None, _) => "a response without a type".to_string(),
        },
        Err(e) => format!("unparsable response ({e})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> Couplers {
        Couplers {
            qubits: 3,
            pairs: [(0, 1), (1, 2)].into_iter().collect(),
        }
    }

    #[test]
    fn scan_counts_gates_and_checks_couplers() {
        let text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n\
                    h q[0];\ncx q[0],q[1];\nrz(0.5) q[2];\ncx q[2],q[1];\n";
        let scan = scan_qasm(text, &line3(), false).unwrap();
        assert_eq!(scan.gates, 4);
        assert!(scan_qasm("qreg q[3];\ncx q[0],q[2];\n", &line3(), false).is_err());
        assert!(scan_qasm("qreg q[3];\nh q[3];\n", &line3(), false).is_err());
        assert!(scan_qasm("qreg q[3];\nccx q[0],q[1],q[2];\n", &line3(), false).is_err());
    }

    #[test]
    fn movement_swaps_are_relocations() {
        let text = "qreg q[3];\nswap q[0],q[2];\ncz q[1],q[2];\n";
        assert!(scan_qasm(text, &line3(), false).is_err());
        let scan = scan_qasm(text, &line3(), true).unwrap();
        assert_eq!((scan.gates, scan.moves), (2, 1));
    }
}
