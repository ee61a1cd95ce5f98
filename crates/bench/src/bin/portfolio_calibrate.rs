//! Offline calibration sweep for the mapper portfolio selector.
//!
//! Runs the canonical 200-circuit suite through every portfolio lane
//! on the Fig. 3 device, derives the *oracle* label per circuit (the
//! cheapest lane whose swap count is adequate — see
//! `qcs_core::portfolio::oracle_lane`), then grid-searches the
//! decision-list thresholds over quantile candidates of the retained
//! Section IV metrics. Everything is a pure function of the code and
//! the suite, so the output is exactly reproducible.
//!
//! ```text
//! portfolio_calibrate            # re-record CALIBRATION_portfolio.json in CWD
//! portfolio_calibrate --check    # fresh sweep, compare against the committed file
//! portfolio_calibrate --dump     # print the training rows as CSV
//! ```
//!
//! Any other argument prints usage and exits 2 without running.
//!
//! The winning thresholds are baked into
//! `qcs_core::portfolio::SelectorThresholds::default()`; a repo-level
//! test asserts the committed file and the defaults agree, and the
//! selector-accuracy counters are additionally gated (exactly) through
//! the portfolio section of BENCH_mapper.json.

use std::process::ExitCode;
use std::time::Instant;

use qcs_bench::{fig3_device, suite};
use qcs_core::portfolio::{
    adequate, lane_config, oracle_lane, Selector, SelectorThresholds, ADEQUACY_FACTOR,
    ADEQUACY_SLACK, LANES,
};
use qcs_core::profile::CircuitProfile;
use qcs_graph::metrics::GraphMetrics;
use qcs_json::Json;
use qcs_workloads::suite::SuiteConfig;

const FILE: &str = "CALIBRATION_portfolio.json";
const SCHEMA: &str = "qcs-portfolio-calibration/1";

/// One suite circuit's training row: metric vector plus per-lane
/// deterministic outcomes.
struct TrainingRow {
    metrics: GraphMetrics,
    /// Per-lane swap counts, aligned with `LANES`.
    swaps: Vec<usize>,
    /// Per-lane routed gate counts (race tie-break), aligned with `LANES`.
    routed_gates: Vec<usize>,
    /// Per-lane wall micros for this circuit (reporting only).
    wall_micros: Vec<u64>,
}

const USAGE: &str = "usage: portfolio_calibrate [--check | --dump]
  (no flags)  re-record CALIBRATION_portfolio.json in CWD
  --check     fresh sweep, compare against the committed file
  --dump      print the training rows as CSV and exit
  --help      print this message";

fn main() -> ExitCode {
    let (mut check, mut dump) = (false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--dump" => dump = true,
            "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("portfolio_calibrate: unknown argument '{other}'\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let rows = sweep();
    if dump {
        println!("asp,max_degree,min_degree,adjacency_std,swaps_trivial,swaps_lookahead,swaps_sabre,oracle");
        for r in &rows {
            println!(
                "{},{},{},{},{},{},{},{}",
                r.metrics.avg_shortest_path,
                r.metrics.max_degree,
                r.metrics.min_degree,
                r.metrics.adjacency_std,
                r.swaps[0],
                r.swaps[1],
                r.swaps[2],
                oracle_lane(&r.swaps)
            );
        }
        return ExitCode::SUCCESS;
    }
    let thresholds = grid_search(&rows);
    let doc = calibration_doc(&rows, &thresholds);
    print_report(&rows, &thresholds);

    if check {
        match std::fs::read_to_string(FILE) {
            Ok(text) => {
                let committed = qcs_json::parse(&text).expect("committed calibration parses");
                if committed == doc {
                    println!("calibration gate OK ({FILE})");
                    ExitCode::SUCCESS
                } else {
                    eprintln!("{FILE}: committed calibration drifted from a fresh sweep");
                    eprintln!("fresh: {}", doc.to_string_pretty());
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("{FILE}: cannot read: {e} (run portfolio_calibrate to record it)");
                ExitCode::FAILURE
            }
        }
    } else {
        std::fs::write(FILE, doc.to_string_pretty() + "\n").expect("write calibration");
        println!("wrote {FILE}");
        ExitCode::SUCCESS
    }
}

/// Maps every suite circuit through every lane (the exact serving
/// pipelines, verification off here — adequacy is defined on the
/// deterministic swap counters, and the ladder verifies at serve time).
fn sweep() -> Vec<TrainingRow> {
    let device = fig3_device();
    let benches = suite(&SuiteConfig::default());
    let mappers: Vec<_> = LANES
        .iter()
        .map(|lane| {
            lane_config(lane)
                .expect("portfolio lanes are known")
                .build()
                .expect("portfolio lanes build")
        })
        .collect();
    benches
        .iter()
        .map(|b| {
            let metrics = CircuitProfile::of(&b.circuit).metrics;
            let mut swaps = Vec::with_capacity(LANES.len());
            let mut routed_gates = Vec::with_capacity(LANES.len());
            let mut wall_micros = Vec::with_capacity(LANES.len());
            for mapper in &mappers {
                let start = Instant::now();
                let outcome = mapper
                    .map(&b.circuit, &device)
                    .unwrap_or_else(|e| panic!("{} failed on {}: {e}", b.name, device.name()));
                wall_micros.push(start.elapsed().as_micros() as u64);
                swaps.push(outcome.report.swaps_inserted);
                routed_gates.push(outcome.report.routed_gates);
            }
            TrainingRow {
                metrics,
                swaps,
                routed_gates,
                wall_micros,
            }
        })
        .collect()
}

/// Quantile candidate cut points over one metric's training values
/// (16 evenly spaced quantiles of the distinct values, or all of them
/// when there are few).
fn candidates(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite metrics"));
    values.dedup();
    const N: usize = 15;
    if values.len() <= N {
        return values;
    }
    (0..=N)
        .map(|q| values[(q * (values.len() - 1)) / N])
        .collect()
}

/// Scores one threshold set over the training rows:
/// `(oracle matches, adequate picks, confident matches − confident misses)`,
/// maximised lexicographically.
fn score(rows: &[TrainingRow], thresholds: &SelectorThresholds) -> (usize, usize, i64) {
    let selector = Selector::new(thresholds.clone());
    let mut matches = 0usize;
    let mut adequates = 0usize;
    let mut confident_balance = 0i64;
    for row in rows {
        let selection = selector.select_metrics(&row.metrics);
        let pick = qcs_core::portfolio::lane_index(selection.lane).expect("known lane");
        let best = row.swaps.iter().copied().min().unwrap_or(0);
        let oracle = oracle_lane(&row.swaps);
        let matched = selection.lane == oracle;
        matches += usize::from(matched);
        adequates += usize::from(adequate(row.swaps[pick], best));
        if selection.confident {
            confident_balance += if matched { 1 } else { -1 };
        }
    }
    (matches, adequates, confident_balance)
}

/// Exhaustive grid search over quantile candidates of the retained
/// metrics (plus a small margin grid). Deterministic: ties keep the
/// first combination in iteration order.
fn grid_search(rows: &[TrainingRow]) -> SelectorThresholds {
    let asp: Vec<f64> = rows.iter().map(|r| r.metrics.avg_shortest_path).collect();
    let max_degree: Vec<f64> = rows.iter().map(|r| r.metrics.max_degree).collect();
    let min_degree: Vec<f64> = rows.iter().map(|r| r.metrics.min_degree).collect();
    let asp_cuts = candidates(asp);
    let max_degree_cuts = candidates(max_degree);
    let min_degree_cuts = candidates(min_degree);
    let margins = [0.05, 0.10, 0.15, 0.20];

    let mut best: Option<(SelectorThresholds, (usize, usize, i64))> = None;
    for &trivial_min_path in &asp_cuts {
        for &trivial_max_degree in &max_degree_cuts {
            for &lookahead_max_path in &asp_cuts {
                for &lookahead_min_degree in &min_degree_cuts {
                    for &margin in &margins {
                        let t = SelectorThresholds {
                            trivial_min_path,
                            trivial_max_degree,
                            lookahead_max_path,
                            lookahead_min_degree,
                            margin,
                        };
                        let s = score(rows, &t);
                        if best.as_ref().is_none_or(|(_, b)| s > *b) {
                            best = Some((t, s));
                        }
                    }
                }
            }
        }
    }
    best.expect("non-empty grid").0
}

/// Per-lane race winner for one row: minimum of
/// `(swaps, routed_gates, lane cost order)` — the exact keep-best rule
/// of the racing engine, so the reported win-rates describe what a
/// complete race would serve.
fn race_winner(row: &TrainingRow) -> usize {
    (0..LANES.len())
        .min_by_key(|&i| (row.swaps[i], row.routed_gates[i], i))
        .expect("at least one lane")
}

fn lane_counts_json(counts: &[usize]) -> Json {
    Json::object(
        LANES
            .iter()
            .zip(counts)
            .map(|(lane, &n)| (*lane, Json::from(n)))
            .collect::<Vec<_>>(),
    )
}

fn calibration_doc(rows: &[TrainingRow], thresholds: &SelectorThresholds) -> Json {
    let selector = Selector::new(thresholds.clone());
    let mut picks = vec![0usize; LANES.len()];
    let mut oracles = vec![0usize; LANES.len()];
    let mut wins = vec![0usize; LANES.len()];
    let mut matches = 0usize;
    let mut adequates = 0usize;
    let mut confident = 0usize;
    let mut confident_matches = 0usize;
    for row in rows {
        let selection = selector.select_metrics(&row.metrics);
        let pick = qcs_core::portfolio::lane_index(selection.lane).expect("known lane");
        let oracle = oracle_lane(&row.swaps);
        let oracle_idx = qcs_core::portfolio::lane_index(oracle).expect("known lane");
        picks[pick] += 1;
        oracles[oracle_idx] += 1;
        wins[race_winner(row)] += 1;
        let best = row.swaps.iter().copied().min().unwrap_or(0);
        let matched = selection.lane == oracle;
        matches += usize::from(matched);
        adequates += usize::from(adequate(row.swaps[pick], best));
        if selection.confident {
            confident += 1;
            confident_matches += usize::from(matched);
        }
    }
    Json::object([
        ("schema", Json::from(SCHEMA)),
        ("device", Json::from(fig3_device().name().to_string())),
        ("records", Json::from(rows.len())),
        (
            "adequacy",
            Json::object([
                ("factor", Json::Number(ADEQUACY_FACTOR)),
                ("slack", Json::from(ADEQUACY_SLACK)),
            ]),
        ),
        (
            "thresholds",
            Json::object([
                (
                    "trivial_min_path",
                    Json::Number(thresholds.trivial_min_path),
                ),
                (
                    "trivial_max_degree",
                    Json::Number(thresholds.trivial_max_degree),
                ),
                (
                    "lookahead_max_path",
                    Json::Number(thresholds.lookahead_max_path),
                ),
                (
                    "lookahead_min_degree",
                    Json::Number(thresholds.lookahead_min_degree),
                ),
                ("margin", Json::Number(thresholds.margin)),
            ]),
        ),
        ("oracle", lane_counts_json(&oracles)),
        ("picks", lane_counts_json(&picks)),
        (
            "selector",
            Json::object([
                ("matches", Json::from(matches)),
                (
                    "accuracy_pct",
                    Json::Number((matches as f64 * 1e5 / rows.len() as f64).round() / 1e3),
                ),
                ("adequate_picks", Json::from(adequates)),
                ("confident", Json::from(confident)),
                ("confident_matches", Json::from(confident_matches)),
            ]),
        ),
        ("race", Json::object([("wins", lane_counts_json(&wins))])),
    ])
}

/// Prints the EXPERIMENTS.md E15 tables.
fn print_report(rows: &[TrainingRow], thresholds: &SelectorThresholds) {
    let selector = Selector::new(thresholds.clone());
    println!("== portfolio calibration ({} circuits) ==", rows.len());
    println!(
        "thresholds: trivial_min_path={} trivial_max_degree={} lookahead_max_path={} lookahead_min_degree={} margin={}",
        thresholds.trivial_min_path,
        thresholds.trivial_max_degree,
        thresholds.lookahead_max_path,
        thresholds.lookahead_min_degree,
        thresholds.margin,
    );
    println!("lane        oracle  picks  race-wins  mean-wall-us");
    for (i, lane) in LANES.iter().enumerate() {
        let oracle = rows
            .iter()
            .filter(|r| oracle_lane(&r.swaps) == *lane)
            .count();
        let picks = rows
            .iter()
            .filter(|r| selector.select_metrics(&r.metrics).lane == *lane)
            .count();
        let wins = rows.iter().filter(|r| race_winner(r) == i).count();
        let mean_wall: u64 = rows.iter().map(|r| r.wall_micros[i]).sum::<u64>() / rows.len() as u64;
        println!("{lane:<10}  {oracle:>6}  {picks:>5}  {wins:>9}  {mean_wall:>12}");
    }
    let matches = rows
        .iter()
        .filter(|r| selector.select_metrics(&r.metrics).lane == oracle_lane(&r.swaps))
        .count();
    let confident: Vec<_> = rows
        .iter()
        .filter(|r| selector.select_metrics(&r.metrics).confident)
        .collect();
    let confident_matches = confident
        .iter()
        .filter(|r| selector.select_metrics(&r.metrics).lane == oracle_lane(&r.swaps))
        .count();
    println!(
        "accuracy vs oracle: {matches}/{} ({:.1}%); confident {}/{} ({} match oracle)",
        rows.len(),
        matches as f64 * 100.0 / rows.len() as f64,
        confident.len(),
        rows.len(),
        confident_matches,
    );
}
