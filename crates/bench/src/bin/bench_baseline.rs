//! Benchmark baseline capture and regression gate.
//!
//! Runs the canonical 200-circuit suite through the three headline
//! mapping strategies, the movement-based DPQA backend, and the
//! statevector kernels the verifier leans on, and records two kinds of
//! numbers per workload:
//!
//! - **Deterministic work counters** — candidate-SWAP score evaluations,
//!   SWAPs inserted, AOD moves and move stages, routed gate counts,
//!   suite-JSON digests, verification outcomes, amplitude slots touched
//!   by the sim kernels. These are pure functions of the code and must
//!   match the committed baseline *exactly*; any drift means the
//!   compiler's output or work profile changed.
//! - **Wall-clock times** — compared against a generous relative budget
//!   (`QCS_BENCH_WALL_BUDGET`, default 4.0× the recorded time, `0`
//!   disables), so a pathological slowdown fails CI without flaking on
//!   machine-to-machine variance.
//!
//! Modes:
//!
//! ```text
//! bench_baseline            # re-record BENCH_mapper.json + BENCH_sim.json
//!                           #   + BENCH_dpqa.json in CWD
//! bench_baseline --check    # fresh run, compare against the committed files
//! ```
//!
//! Any other argument prints usage and exits 2 without running, so a
//! mistyped `--check` can never re-record the baselines.

use std::process::ExitCode;
use std::time::Instant;

use qcs_bench::{fig3_device, suite};
use qcs_circuit::circuit::Circuit;
use qcs_circuit::gate::Gate;
use qcs_circuit::hash::Fnv64;
use qcs_core::backend::Backend as _;
use qcs_core::config::MapperConfig;
use qcs_core::mapper::{Mapper, StageTiming};
use qcs_core::profile::CircuitProfile;
use qcs_core::report::MappingRecord;
use qcs_core::verify::{verify_outcome, VerifyConfig};
use qcs_dpqa::DpqaBackend;
use qcs_json::Json;
use qcs_topology::lattice::grid_device;
use qcs_workloads::suite::SuiteConfig;

const MAPPER_FILE: &str = "BENCH_mapper.json";
const SIM_FILE: &str = "BENCH_sim.json";
const DPQA_FILE: &str = "BENCH_dpqa.json";
const SCHEMA: &str = "qcs-bench-baseline/1";

/// One mapping strategy's suite-level measurement.
struct MapperRow {
    name: &'static str,
    records: usize,
    digest: String,
    swaps_inserted: u64,
    score_evals: u64,
    routed_gates: u64,
    wall_ms: f64,
}

/// Deterministic portfolio counters over the same suite: what the
/// metric-driven selector picks per lane, how often it matches the
/// cheapest-adequate oracle, and which lane a *complete* race would
/// serve. Pure functions of the code (no wall-clock anywhere), gated
/// exactly — drift means the selector or the keep-best rule changed.
struct PortfolioRow {
    records: usize,
    confident: usize,
    selector_matches: usize,
    adequate_picks: usize,
    selected: Vec<usize>,
    race_wins: Vec<usize>,
}

/// One sim kernel's measurement.
struct SimRow {
    name: &'static str,
    amps_touched: u64,
    wall_ms: f64,
}

/// The DPQA movement sweep's suite-level measurement.
struct DpqaRow {
    name: String,
    records: usize,
    digest: String,
    moves_inserted: u64,
    move_stages: u64,
    swaps_inserted: u64,
    movement_served: u64,
    verified: u64,
    wall_ms: f64,
}

const USAGE: &str = "usage: bench_baseline [--check]
  (no flags)  re-record BENCH_mapper.json, BENCH_sim.json and BENCH_dpqa.json in CWD
  --check     fresh run, compare against the committed files
  --help      print this message";

fn main() -> ExitCode {
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bench_baseline: unknown argument '{other}'\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let (mapper_rows, portfolio_row) = run_mapper_suite();
    let sim_rows = run_sim_kernels();
    let dpqa_row = run_dpqa_suite();
    let mapper_json = mapper_doc(&mapper_rows, &portfolio_row);
    let sim_json = sim_doc(&sim_rows);
    let dpqa_json = dpqa_doc(&dpqa_row);

    if check {
        let budget = wall_budget();
        let mut ok = true;
        ok &= check_file(MAPPER_FILE, &mapper_json, budget);
        ok &= check_file(SIM_FILE, &sim_json, budget);
        ok &= check_file(DPQA_FILE, &dpqa_json, budget);
        if ok {
            println!("bench gate OK ({MAPPER_FILE}, {SIM_FILE}, {DPQA_FILE})");
            ExitCode::SUCCESS
        } else {
            eprintln!("bench gate FAILED");
            ExitCode::FAILURE
        }
    } else {
        std::fs::write(MAPPER_FILE, mapper_json.to_string_pretty() + "\n").expect("write mapper");
        std::fs::write(SIM_FILE, sim_json.to_string_pretty() + "\n").expect("write sim");
        std::fs::write(DPQA_FILE, dpqa_json.to_string_pretty() + "\n").expect("write dpqa");
        println!("wrote {MAPPER_FILE}, {SIM_FILE} and {DPQA_FILE}");
        ExitCode::SUCCESS
    }
}

fn wall_budget() -> f64 {
    std::env::var("QCS_BENCH_WALL_BUDGET")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(4.0)
}

// ---------------------------------------------------------------------
// Mapper suite
// ---------------------------------------------------------------------

fn run_mapper_suite() -> (Vec<MapperRow>, PortfolioRow) {
    let device = fig3_device();
    let benches = suite(&SuiteConfig::default());
    // Per strategy, the per-circuit (swaps, routed_gates) pairs — the
    // three strategies below are exactly the portfolio's lane
    // pipelines (see `qcs_core::portfolio::lane_config`), so the
    // portfolio counters reuse these runs instead of re-mapping.
    let mut per_lane: Vec<Vec<(usize, usize)>> = Vec::new();
    let rows = ["trivial", "lookahead", "sabre"]
        .into_iter()
        .map(|name| {
            let mapper = match name {
                "trivial" => Mapper::trivial(),
                "lookahead" => Mapper::lookahead(),
                _ => Mapper::sabre(),
            };
            let mut records = Vec::with_capacity(benches.len());
            let mut lane_counters = Vec::with_capacity(benches.len());
            let mut swaps = 0u64;
            let mut evals = 0u64;
            let mut gates = 0u64;
            let start = Instant::now();
            for b in &benches {
                match mapper.map(&b.circuit, &device) {
                    Ok(outcome) => {
                        swaps += outcome.report.swaps_inserted as u64;
                        evals += outcome.routed.score_evals as u64;
                        gates += outcome.report.routed_gates as u64;
                        lane_counters
                            .push((outcome.report.swaps_inserted, outcome.report.routed_gates));
                        let mut report = outcome.report;
                        // Timing is measurement, not content: zero it so
                        // the digest is reproducible (same convention as
                        // the parallel suite engine).
                        report.timing = StageTiming::ZERO;
                        records.push(MappingRecord {
                            name: b.name.clone(),
                            family: b.family.to_string(),
                            synthetic: b.is_synthetic(),
                            profile: CircuitProfile::of(&b.circuit),
                            report,
                        });
                    }
                    Err(e) => {
                        // Keep the per-circuit rows aligned across
                        // lanes: a failed lane can never win or be
                        // adequate.
                        lane_counters.push((usize::MAX, usize::MAX));
                        eprintln!("skipping {}: {e}", b.name);
                    }
                }
            }
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let mut h = Fnv64::new();
            h.write_str(&MappingRecord::batch_to_json(&records));
            per_lane.push(lane_counters);
            MapperRow {
                name,
                records: records.len(),
                digest: format!("{:016x}", h.finish()),
                swaps_inserted: swaps,
                score_evals: evals,
                routed_gates: gates,
                wall_ms,
            }
        })
        .collect();
    (rows, portfolio_counters(&benches, &per_lane))
}

/// Replays the metric-driven selector and the racing engine's
/// keep-best rule over the recorded per-lane counters — the same
/// definitions `portfolio_calibrate` reports, so these numbers must
/// agree with the committed CALIBRATION_portfolio.json.
fn portfolio_counters(
    benches: &[qcs_workloads::suite::Benchmark],
    per_lane: &[Vec<(usize, usize)>],
) -> PortfolioRow {
    use qcs_core::portfolio::{adequate, lane_index, oracle_lane, Selector, LANES};
    let selector = Selector::default();
    let mut row = PortfolioRow {
        records: benches.len(),
        confident: 0,
        selector_matches: 0,
        adequate_picks: 0,
        selected: vec![0; LANES.len()],
        race_wins: vec![0; LANES.len()],
    };
    for (i, b) in benches.iter().enumerate() {
        let selection = selector
            .select(&b.circuit)
            .expect("selection is total without faults");
        let swaps: Vec<usize> = per_lane.iter().map(|lane| lane[i].0).collect();
        let pick = lane_index(selection.lane).expect("known lane");
        let best = swaps.iter().copied().min().unwrap_or(0);
        let winner = (0..LANES.len())
            .min_by_key(|&l| (per_lane[l][i].0, per_lane[l][i].1, l))
            .expect("at least one lane");
        row.confident += usize::from(selection.confident);
        row.selector_matches += usize::from(selection.lane == oracle_lane(&swaps));
        row.adequate_picks += usize::from(adequate(swaps[pick], best));
        row.selected[pick] += 1;
        row.race_wins[winner] += 1;
    }
    row
}

fn mapper_doc(rows: &[MapperRow], portfolio: &PortfolioRow) -> Json {
    let lane_counts = |counts: &[usize]| {
        Json::object(
            qcs_core::portfolio::LANES
                .iter()
                .zip(counts)
                .map(|(lane, &n)| (*lane, Json::from(n)))
                .collect::<Vec<_>>(),
        )
    };
    Json::object([
        ("schema", Json::from(SCHEMA)),
        (
            "strategies",
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::object([
                            ("name", Json::from(r.name)),
                            ("records", Json::from(r.records)),
                            ("digest", Json::from(r.digest.clone())),
                            ("swaps_inserted", Json::from(r.swaps_inserted)),
                            ("score_evals", Json::from(r.score_evals)),
                            ("routed_gates", Json::from(r.routed_gates)),
                            ("wall_ms", Json::Number(round3(r.wall_ms))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "portfolio",
            Json::object([
                ("records", Json::from(portfolio.records)),
                ("confident", Json::from(portfolio.confident)),
                ("selector_matches", Json::from(portfolio.selector_matches)),
                ("adequate_picks", Json::from(portfolio.adequate_picks)),
                ("selected", lane_counts(&portfolio.selected)),
                ("race_wins", lane_counts(&portfolio.race_wins)),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------
// DPQA movement sweep
// ---------------------------------------------------------------------

/// Runs the full canonical suite through the movement-based DPQA
/// backend on a 9×9 site array (81 sites comfortably hold the suite's
/// 54-qubit ceiling) and aggregates its work counters. Every circuit
/// must compile *and* verify — an unverified or failed compile is a
/// hard error here, not a skipped row, because the serving tier's
/// contract is zero unverified responses.
fn run_dpqa_suite() -> DpqaRow {
    let backend = DpqaBackend::new(9, 9).expect("9x9 array");
    let config = MapperConfig::default();
    let benches = suite(&SuiteConfig::default());
    let mut records = Vec::with_capacity(benches.len());
    let mut moves = 0u64;
    let mut stages = 0u64;
    let mut swaps = 0u64;
    let mut movement_served = 0u64;
    let mut verified = 0u64;
    let start = Instant::now();
    for b in &benches {
        let (outcome, schedule) = backend
            .compile_with_schedule(&b.circuit, &config)
            .unwrap_or_else(|e| panic!("dpqa compile of {} failed: {e}", b.name));
        assert!(outcome.report.verified, "{} served unverified", b.name);
        moves += outcome.report.moves_inserted as u64;
        stages += outcome.report.move_stages as u64;
        swaps += outcome.report.swaps_inserted as u64;
        movement_served += u64::from(schedule.is_some());
        verified += u64::from(outcome.report.verified);
        let mut report = outcome.report;
        report.timing = StageTiming::ZERO;
        records.push(MappingRecord {
            name: b.name.clone(),
            family: b.family.to_string(),
            synthetic: b.is_synthetic(),
            profile: CircuitProfile::of(&b.circuit),
            report,
        });
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut h = Fnv64::new();
    h.write_str(&MappingRecord::batch_to_json(&records));
    DpqaRow {
        name: backend.id().to_string(),
        records: records.len(),
        digest: format!("{:016x}", h.finish()),
        moves_inserted: moves,
        move_stages: stages,
        swaps_inserted: swaps,
        movement_served,
        verified,
        wall_ms,
    }
}

fn dpqa_doc(row: &DpqaRow) -> Json {
    Json::object([
        ("schema", Json::from(SCHEMA)),
        (
            "dpqa",
            Json::Array(vec![Json::object([
                ("name", Json::from(row.name.clone())),
                ("records", Json::from(row.records)),
                ("digest", Json::from(row.digest.clone())),
                ("moves_inserted", Json::from(row.moves_inserted)),
                ("move_stages", Json::from(row.move_stages)),
                ("swaps_inserted", Json::from(row.swaps_inserted)),
                ("movement_served", Json::from(row.movement_served)),
                ("verified", Json::from(row.verified)),
                ("wall_ms", Json::Number(round3(row.wall_ms))),
            ])]),
        ),
    ])
}

// ---------------------------------------------------------------------
// Sim kernels
// ---------------------------------------------------------------------

/// Amplitude slots read or written when `circuit` runs on an `n`-qubit
/// state, mirroring the stride-blocked kernel access patterns: full-matrix
/// single-qubit gates visit every amplitude, diagonal/controlled gates
/// only the halves or quarters they act on. Purely a function of the gate
/// list — the regression gate compares it exactly.
fn amps_touched(circuit: &Circuit, n: usize) -> u64 {
    let len = 1u64 << n;
    circuit
        .iter()
        .map(|g| match *g {
            Gate::I(_) | Gate::Measure(_) | Gate::Barrier(_) => 0,
            Gate::Z(_)
            | Gate::S(_)
            | Gate::Sdg(_)
            | Gate::T(_)
            | Gate::Tdg(_)
            | Gate::Rz(..)
            | Gate::Cnot(..)
            | Gate::Swap(..) => len / 2,
            Gate::Cz(..) | Gate::Cphase(..) | Gate::Toffoli(..) => len / 4,
            _ => len,
        })
        .sum()
}

fn run_sim_kernels() -> Vec<SimRow> {
    let mut rows = Vec::new();

    // Raw statevector evolution: QFT-12, the verifier's widest default.
    let qft12 = qcs_workloads::qft::qft(12).expect("qft12");
    let mut state = qcs_sim::StateVector::zero(12);
    qcs_sim::exec::run_unitary_mut(&qft12, &mut state); // warm
    let iters = 20;
    let start = Instant::now();
    for _ in 0..iters {
        state.reset_zero();
        qcs_sim::exec::run_unitary_mut(&qft12, &mut state);
        std::hint::black_box(state.amplitude(0));
    }
    rows.push(SimRow {
        name: "run_unitary_qft12",
        amps_touched: amps_touched(&qft12, 12),
        wall_ms: start.elapsed().as_secs_f64() * 1e3 / f64::from(iters),
    });

    // End-to-end verification: map QFT-12 onto a 3x4 grid and replay the
    // equivalence check the compilation service runs per job.
    let dev = grid_device(3, 4);
    let outcome = Mapper::lookahead().map(&qft12, &dev).expect("map qft12");
    let cfg = VerifyConfig::default();
    verify_outcome(&qft12, &outcome, &dev, &cfg).expect("verify"); // warm
    let iters = 10;
    let start = Instant::now();
    for _ in 0..iters {
        let r = verify_outcome(&qft12, &outcome, &dev, &cfg).expect("verify");
        std::hint::black_box(r.equivalence_checked);
    }
    let width = dev.qubit_count();
    rows.push(SimRow {
        name: "verify_qft12_grid3x4",
        // Two state evolutions (reference + mapped) per equivalence trial.
        amps_touched: cfg.equiv_trials as u64
            * (amps_touched(&qft12, width) + amps_touched(&outcome.native, width)),
        wall_ms: start.elapsed().as_secs_f64() * 1e3 / f64::from(iters),
    });

    rows
}

fn sim_doc(rows: &[SimRow]) -> Json {
    Json::object([
        ("schema", Json::from(SCHEMA)),
        (
            "kernels",
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::object([
                            ("name", Json::from(r.name)),
                            ("amps_touched", Json::from(r.amps_touched)),
                            ("wall_ms", Json::Number(round3(r.wall_ms))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn round3(ms: f64) -> f64 {
    (ms * 1e3).round() / 1e3
}

// ---------------------------------------------------------------------
// Regression check
// ---------------------------------------------------------------------

/// Compares a fresh measurement document against the committed baseline
/// file: every member except `wall_ms` must match exactly; `wall_ms` may
/// grow up to `budget`× the recorded value. Returns `false` (and prints
/// each violation) on regression.
fn check_file(path: &str, fresh: &Json, budget: f64) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: cannot read baseline: {e} (run bench_baseline to record it)");
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

/// Recursive structural comparison; `path` tracks the JSON location for
/// error messages.
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
        (Json::Number(b), Json::Number(f)) if path.ends_with(".wall_ms") => {
            if budget > 0.0 && *f > *b * budget {
                eprintln!("{path}: wall time regressed {b:.3} ms -> {f:.3} ms (budget {budget}x)");
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
