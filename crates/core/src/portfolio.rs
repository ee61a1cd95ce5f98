//! Metric-driven mapper portfolio with deadline-bounded racing.
//!
//! BENCH_mapper.json shows a ~7x wall-time and ~3x swap-count spread
//! across the trivial/lookahead/sabre strategy lanes, so a single
//! blindly-chosen strategy is both a latency hazard and a single point
//! of failure. This module operationalises the paper's Section IV
//! thesis — the pruned interaction-graph metric set {avg shortest
//! path, max/min degree, adjacency std-dev} predicts mapping cost —
//! as a serving-path component with two halves:
//!
//! * a [`Selector`] that computes the retained metrics for a circuit
//!   and picks the cheapest lane predicted *adequate* (within
//!   [`ADEQUACY_FACTOR`] of the best lane's swap count), with
//!   thresholds calibrated offline from the committed 200-circuit
//!   training sweep (`CALIBRATION_portfolio.json`, re-derivable with
//!   the `portfolio_calibrate` bench bin); and
//! * a deadline-bounded degradation chain ([`Portfolio::map`]) built
//!   from the [`lanes`] executor: when the selector is unconfident and
//!   the remaining budget allows, lanes are raced (`lanes::race`) with
//!   per-lane panic isolation, cooperative cancellation of losers, and
//!   keep-best-*verified*-result semantics — a lane that panics,
//!   exceeds the race budget, or fails [`crate::verify`] is simply
//!   discarded.
//!
//! Degradation is graceful and total-ordered:
//!
//! 1. confident selector pick (a one-lane [`lanes::sequential`] run;
//!    under a deadline a one-lane race with at most half the remaining
//!    budget, so a hung primary lane still leaves room to race the
//!    others);
//! 2. race the (remaining) lanes under the deadline budget;
//! 3. the cheapest lane (`trivial/trivial`), a one-lane sequential run
//!    — this is why a deadline that cold-racing cannot meet still
//!    returns a *verified* trivial-strategy result instead of an error;
//! 4. the backend's own lane list ([`Backend::map`], the standard
//!    [`FallbackLadder`](crate::ladder::FallbackLadder) on fixed-coupler
//!    devices).
//!
//! Failpoints: `mapper.select` fires at selector entry and
//! `mapper.race.<lane>` at every lane launch (the confident direct
//! run, each raced lane and the cheapest lane), so the chaos suite can prove that
//! a panicking or hung selector/lane degrades with zero
//! client-visible errors.
//!
//! [`MapError::Unsatisfiable`](crate::mapper::MapError::Unsatisfiable)
//! is a property of the (degraded) device, not of any lane, so the
//! first lane that reports it short-circuits the whole portfolio —
//! matching [`FallbackLadder`] semantics.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use qcs_core::backend::{Backend, CoupledBackend};
//! use qcs_core::portfolio::Portfolio;
//! use qcs_topology::surface::surface17;
//!
//! let backend: Arc<dyn Backend> = Arc::new(CoupledBackend::new(surface17()));
//! let qft = qcs_workloads::qft::qft(6)?;
//! let (outcome, report) = Portfolio::default().map(&qft, &backend, None)?;
//! assert!(outcome.report.verified);
//! assert!(!report.lane.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qcs_circuit::circuit::Circuit;
use qcs_circuit::interaction::interaction_graph;
use qcs_graph::metrics::GraphMetrics;

use crate::backend::Backend;
use crate::config::MapperConfig;
use crate::ladder::{LadderAttempt, LadderError};
use crate::lanes::{self, Lane, LaneFailure, LaneResult, RaceLane};
use crate::mapper::MapOutcome;

/// Placer/router value that requests metric-driven selection.
pub const AUTO: &str = "auto";

/// The portfolio lanes, cheapest first. The order is a tie-break for
/// race winners and the preference order for the oracle, so it must
/// stay aligned with the measured wall-time ranking in
/// BENCH_mapper.json (trivial ~0.3 s, lookahead ~0.5 s, sabre ~2 s
/// over the 200-circuit suite).
pub const LANES: &[&str] = &["trivial", "lookahead", "sabre"];

/// A lane's swap count is *adequate* when it is within this factor of
/// the best lane's count (or within [`ADEQUACY_SLACK`] absolute swaps,
/// whichever is looser — tiny circuits should not force sabre over a
/// 2-swap difference).
pub const ADEQUACY_FACTOR: f64 = 1.25;

/// Absolute swap slack for adequacy on small circuits.
pub const ADEQUACY_SLACK: usize = 8;

/// Default minimum remaining budget below which racing is skipped and
/// the portfolio degrades straight to the cheapest lane.
pub const DEFAULT_MIN_RACE_BUDGET_MS: u64 = 50;

/// True when `config` requests metric-driven strategy selection.
pub fn is_auto(config: &MapperConfig) -> bool {
    config.placer == AUTO || config.router == AUTO
}

/// The pipeline a lane name stands for, or `None` for unknown names.
/// Lane pipelines mirror the bench_baseline presets so calibration
/// data and serving behaviour describe the same strategies.
pub fn lane_config(lane: &str) -> Option<MapperConfig> {
    match lane {
        "trivial" => Some(MapperConfig::new("trivial", "trivial")),
        "lookahead" => Some(MapperConfig::new("trivial", "lookahead")),
        "sabre" => Some(MapperConfig::new("sabre", "lookahead")),
        _ => None,
    }
}

/// Position of `lane` in [`LANES`] (the cost/tie-break order).
pub fn lane_index(lane: &str) -> Option<usize> {
    LANES.iter().position(|&l| l == lane)
}

/// Whether a lane with `swaps` is adequate against the best lane's
/// `best` swap count (see [`ADEQUACY_FACTOR`]).
pub fn adequate(swaps: usize, best: usize) -> bool {
    swaps <= best.saturating_add(ADEQUACY_SLACK)
        || (swaps as f64) <= (best as f64) * ADEQUACY_FACTOR
}

/// The oracle's pick for a circuit whose per-lane swap counts are
/// `swaps` (aligned with [`LANES`]): the cheapest adequate lane. This
/// is the label the selector is calibrated against — it is defined on
/// deterministic counters only, so the calibration sweep and the
/// BENCH_mapper.json portfolio section are exactly reproducible.
pub fn oracle_lane(swaps: &[usize]) -> &'static str {
    let best = swaps.iter().copied().min().unwrap_or(0);
    for (i, lane) in LANES.iter().enumerate() {
        if swaps.get(i).is_some_and(|&s| adequate(s, best)) {
            return lane;
        }
    }
    LANES[LANES.len() - 1]
}

/// Decision thresholds over the retained Section IV metrics.
///
/// The decision list mirrors what the training sweep actually shows
/// on the 200-circuit suite: chain/ring-like graphs (tiny maximum
/// degree, long average shortest path) route almost for free, so the
/// trivial lane is adequate; large near-complete *regular* graphs
/// (average shortest path ≈ 1, high minimum degree — the QFT family)
/// are ones where lookahead keeps pace with sabre at a quarter of the
/// wall time; everything else is irregular enough that sabre's
/// placement pays for itself. Adjacency std-dev — the fourth retained
/// metric — turned out non-discriminative for *lane choice* on this
/// suite (it tracks weighted edge multiplicity, not routing
/// difficulty), so it rides along in [`Selection::metrics`] but
/// carries no threshold.
///
/// The defaults are the output of the committed calibration sweep
/// (`portfolio_calibrate` over the 200-circuit suite on the Fig. 3
/// device); a repo-level test asserts they match
/// `CALIBRATION_portfolio.json` so the two cannot drift apart.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectorThresholds {
    /// Average shortest path at or above which the interaction graph
    /// is sparse/path-like enough for the trivial lane.
    pub trivial_min_path: f64,
    /// Maximum degree at or below which the trivial lane is trusted
    /// (chain- and ring-like graphs).
    pub trivial_max_degree: f64,
    /// Average shortest path at or below which the graph is close
    /// enough to complete for the lookahead rule to apply.
    pub lookahead_max_path: f64,
    /// Minimum degree at or above which a near-complete graph is
    /// regular enough for lookahead to keep pace with sabre.
    pub lookahead_min_degree: f64,
    /// Relative margin every deciding comparison must clear for the
    /// pick to count as *confident* (confident picks skip the race).
    pub margin: f64,
}

impl Default for SelectorThresholds {
    fn default() -> Self {
        // Calibrated values — see CALIBRATION_portfolio.json.
        SelectorThresholds {
            trivial_min_path: 1.0,
            trivial_max_degree: 3.0,
            lookahead_max_path: 1.235_294_117_647_058_9,
            lookahead_min_degree: 21.0,
            margin: 0.10,
        }
    }
}

/// One selector decision for one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The chosen lane (an entry of [`LANES`]).
    pub lane: &'static str,
    /// True when every deciding comparison cleared its threshold by
    /// the calibrated margin; unconfident picks are raced instead.
    pub confident: bool,
    /// The retained metric vector the decision was made on, in
    /// [`GraphMetrics::selected_names`] order.
    pub metrics: [f64; 4],
}

impl Selection {
    /// The pipeline config of the chosen lane.
    pub fn config(&self) -> MapperConfig {
        lane_config(self.lane).expect("selection lanes are portfolio lanes")
    }
}

/// The metric-driven strategy selector.
#[derive(Debug, Clone, Default)]
pub struct Selector {
    /// Calibrated decision thresholds.
    pub thresholds: SelectorThresholds,
}

impl Selector {
    /// A selector with the given thresholds.
    pub fn new(thresholds: SelectorThresholds) -> Self {
        Selector { thresholds }
    }

    /// Picks a lane for `circuit`, hitting the `mapper.select`
    /// failpoint first (an injected panic propagates to the caller;
    /// [`Portfolio::map`] isolates it and degrades to the race).
    ///
    /// # Errors
    ///
    /// The injected failpoint message when a `mapper.select` error
    /// fault is armed; selection itself is total.
    pub fn select(&self, circuit: &Circuit) -> Result<Selection, String> {
        if qcs_faults::any_armed() {
            if let qcs_faults::Hit::Error(message) = qcs_faults::hit("mapper.select") {
                return Err(message);
            }
        }
        let metrics = GraphMetrics::compute(&interaction_graph(circuit));
        Ok(self.select_metrics(&metrics))
    }

    /// The pure decision function over an already-computed metric
    /// vector (used by the calibration sweep, which batches metric
    /// computation).
    pub fn select_metrics(&self, metrics: &GraphMetrics) -> Selection {
        let t = &self.thresholds;
        let vec = [
            metrics.avg_shortest_path,
            metrics.max_degree,
            metrics.min_degree,
            metrics.adjacency_std,
        ];
        // No two-qubit structure at all: nothing to route, the
        // trivial lane is exact.
        if metrics.max_degree == 0.0 {
            return Selection {
                lane: "trivial",
                confident: true,
                metrics: vec,
            };
        }
        let asp = metrics.avg_shortest_path;
        let sparse = asp >= t.trivial_min_path && metrics.max_degree <= t.trivial_max_degree;
        if sparse {
            let confident = asp >= t.trivial_min_path * (1.0 + t.margin)
                && metrics.max_degree <= t.trivial_max_degree * (1.0 - t.margin).max(0.0);
            return Selection {
                lane: "trivial",
                confident,
                metrics: vec,
            };
        }
        let regular = asp <= t.lookahead_max_path && metrics.min_degree >= t.lookahead_min_degree;
        if regular {
            let confident = asp <= t.lookahead_max_path * (1.0 - t.margin).max(0.0)
                && metrics.min_degree >= t.lookahead_min_degree * (1.0 + t.margin);
            return Selection {
                lane: "lookahead",
                confident,
                metrics: vec,
            };
        }
        // The irregular rest. Confident only when clearly neither
        // rule applies: each earlier rule misses by margin on at
        // least one of its legs.
        let clearly_not_sparse = asp < t.trivial_min_path * (1.0 - t.margin).max(0.0)
            || metrics.max_degree > t.trivial_max_degree * (1.0 + t.margin);
        let clearly_not_regular = asp > t.lookahead_max_path * (1.0 + t.margin)
            || metrics.min_degree < t.lookahead_min_degree * (1.0 - t.margin).max(0.0);
        Selection {
            lane: "sabre",
            confident: clearly_not_sparse && clearly_not_regular,
            metrics: vec,
        }
    }
}

/// How the portfolio produced (or failed to produce) its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortfolioMode {
    /// The confident selector pick served directly.
    Selected,
    /// A race winner served.
    Raced,
    /// The cheapest lane served after selection and racing could not.
    Cheapest,
    /// The standard [`FallbackLadder`] served as the last resort.
    Ladder,
}

impl PortfolioMode {
    /// Stable lowercase name for stats and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            PortfolioMode::Selected => "selected",
            PortfolioMode::Raced => "raced",
            PortfolioMode::Cheapest => "cheapest",
            PortfolioMode::Ladder => "ladder",
        }
    }
}

/// Side-channel accounting for one portfolio run. Deliberately *not*
/// part of [`MapReport`](crate::mapper::MapReport): the report is
/// embedded in canonical cacheable payloads, and portfolio accounting
/// (how long a race waited, how many lanes were discarded) is
/// delivery metadata, not job identity.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioReport {
    /// Which degradation stage served the result.
    pub mode: PortfolioMode,
    /// The serving lane name, or `"ladder"` for the last resort.
    pub lane: String,
    /// True when the selector produced a confident pick.
    pub confident: bool,
    /// True when the selector panicked or was error-injected (the
    /// portfolio then treats the circuit as unconfident and races).
    pub selector_failed: bool,
    /// Lanes launched into the race (0 when no race ran).
    pub raced: usize,
    /// Lanes discarded across the whole run: panicked, error-injected,
    /// failed verification, or still unreported when the budget ended.
    pub discarded: usize,
    /// True when every raced lane reported before the budget ended
    /// (or no race ran). A complete race is deterministic — the best
    /// verified result is a pure function of the job.
    pub race_complete: bool,
    /// True when the remaining deadline budget altered the execution
    /// path at any point: a confident pick or race was skipped as too
    /// expensive, or a race was truncated before every lane reported.
    /// Budget-limited results are correct and verified but *not* a
    /// pure function of the job, so the serving tier must not cache
    /// them.
    pub budget_limited: bool,
}

impl PortfolioReport {
    /// The report before any stage ran: no lane, no race, ladder mode.
    fn fresh() -> Self {
        PortfolioReport {
            mode: PortfolioMode::Ladder,
            lane: String::new(),
            confident: false,
            selector_failed: false,
            raced: 0,
            discarded: 0,
            race_complete: true,
            budget_limited: false,
        }
    }
}

/// The portfolio engine: selector plus racing plus total-ordered
/// graceful degradation. See the module docs for the exact order.
#[derive(Debug, Clone)]
pub struct Portfolio {
    selector: Selector,
    /// Remaining budget below which the race is skipped and the
    /// portfolio degrades straight to the cheapest lane.
    min_race_budget: Duration,
}

impl Default for Portfolio {
    fn default() -> Self {
        Portfolio {
            selector: Selector::default(),
            min_race_budget: Duration::from_millis(DEFAULT_MIN_RACE_BUDGET_MS),
        }
    }
}

impl Portfolio {
    /// A portfolio with explicit selector thresholds (tests and
    /// calibration; serving uses [`Portfolio::default`]).
    pub fn with_thresholds(thresholds: SelectorThresholds) -> Self {
        Portfolio {
            selector: Selector::new(thresholds),
            ..Portfolio::default()
        }
    }

    /// Overrides the minimum budget below which racing is skipped.
    #[must_use]
    pub fn with_min_race_budget(mut self, budget: Duration) -> Self {
        self.min_race_budget = budget;
        self
    }

    /// The configured selector.
    pub fn selector(&self) -> &Selector {
        &self.selector
    }

    /// Maps `circuit` on `backend` through the portfolio. `deadline`
    /// is the *remaining* end-to-end budget; `None` means unbounded
    /// (a race then waits for every lane, which makes the winner a
    /// pure function of the job).
    ///
    /// The returned outcome is always verified (every stage runs with
    /// ladder verification on). The companion [`PortfolioReport`]
    /// says which stage served and whether the result is cacheable.
    ///
    /// # Errors
    ///
    /// [`LadderError`] only when every stage — including the final
    /// [`FallbackLadder`] — failed, or a lane found the job
    /// unsatisfiable on the device.
    pub fn map(
        &self,
        circuit: &Circuit,
        backend: &Arc<dyn Backend>,
        deadline: Option<Duration>,
    ) -> Result<(MapOutcome, PortfolioReport), LadderError> {
        let mut report = PortfolioReport::fresh();
        let outcome = self.run(circuit, backend, deadline, false, &mut report)?;
        Ok((outcome, report))
    }

    /// Like [`Portfolio::map`], but always races every lane — the
    /// selector is bypassed entirely. This is the serving tier's
    /// explicit `race` request mode: callers who want the best
    /// verified result across all strategies rather than the
    /// cheapest-adequate pick. Degradation stages 2–4 are identical
    /// to [`Portfolio::map`].
    ///
    /// # Errors
    ///
    /// As for [`Portfolio::map`].
    pub fn map_racing(
        &self,
        circuit: &Circuit,
        backend: &Arc<dyn Backend>,
        deadline: Option<Duration>,
    ) -> Result<(MapOutcome, PortfolioReport), LadderError> {
        let mut report = PortfolioReport::fresh();
        let outcome = self.run(circuit, backend, deadline, true, &mut report)?;
        Ok((outcome, report))
    }

    fn run(
        &self,
        circuit: &Circuit,
        backend: &Arc<dyn Backend>,
        deadline: Option<Duration>,
        force_race: bool,
        report: &mut PortfolioReport,
    ) -> Result<MapOutcome, LadderError> {
        let started = Instant::now();
        let remaining = || deadline.map(|d| d.saturating_sub(started.elapsed()));
        let tight = |rem: Option<Duration>| rem.is_some_and(|r| r < self.min_race_budget);
        let mut attempts: Vec<LadderAttempt> = Vec::new();

        // Stage 1: metric-driven selection, panic-isolated. A
        // panicking or error-injected selector is not an error — the
        // circuit is simply treated as unconfident. Forced races skip
        // selection entirely.
        let selection = if force_race {
            None
        } else {
            match lanes::isolated(|| self.selector.select(circuit)) {
                Ok(Ok(selection)) => Some(selection),
                Ok(Err(_)) | Err(_) => {
                    report.selector_failed = true;
                    None
                }
            }
        };
        report.confident = selection.as_ref().is_some_and(|s| s.confident);

        let mut failed_lane = None;
        if let Some(selection) = selection.filter(|s| s.confident) {
            if tight(remaining()) {
                report.budget_limited = true;
            } else {
                // The confident pick gets at most half the remaining
                // budget: a primary lane hung in an armed delay
                // failpoint (or simply pathological on this circuit)
                // must leave room to race the other lanes instead of
                // blowing the whole deadline.
                let budget = remaining().map(|r| r / 2);
                let lane = selection.lane;
                if let Some(outcome) = solo(lane, circuit, backend, budget, report, &mut attempts)?
                {
                    report.mode = PortfolioMode::Selected;
                    report.lane = lane.to_string();
                    return Ok(outcome);
                }
                failed_lane = Some(lane);
            }
        }

        // Stage 2: race the remaining lanes under the budget.
        if tight(remaining()) {
            report.budget_limited = true;
        } else {
            let lanes: Vec<&'static str> = LANES
                .iter()
                .copied()
                .filter(|&lane| Some(lane) != failed_lane)
                .collect();
            if let Some(outcome) = self.race(circuit, backend, &lanes, remaining(), report)? {
                report.mode = PortfolioMode::Raced;
                return Ok(outcome);
            }
        }

        // Stage 3: the cheapest lane, synchronously. This is the
        // guarantee that a deadline cold-racing cannot meet still
        // returns a verified trivial-strategy result.
        if let Some(outcome) = solo("trivial", circuit, backend, None, report, &mut attempts)? {
            report.mode = PortfolioMode::Cheapest;
            report.lane = "trivial".to_string();
            return Ok(outcome);
        }

        // Stage 4: the standard fallback ladder, exactly as a
        // non-portfolio request would be served.
        match backend.map(circuit, &MapperConfig::default()) {
            Ok(outcome) => {
                report.mode = PortfolioMode::Ladder;
                report.lane = "ladder".to_string();
                Ok(outcome)
            }
            Err(mut error) => {
                attempts.append(&mut error.attempts);
                error.attempts = attempts;
                Err(error)
            }
        }
    }

    /// Races `lanes` through [`lanes::race`] and folds the result into
    /// `report`, returning the best verified outcome (`None` when no
    /// lane produced one within `budget`).
    fn race(
        &self,
        circuit: &Circuit,
        backend: &Arc<dyn Backend>,
        lanes: &[&'static str],
        budget: Option<Duration>,
        report: &mut PortfolioReport,
    ) -> Result<Option<MapOutcome>, LadderError> {
        report.raced = lanes.len();
        let bodies = lanes
            .iter()
            .map(|&lane| race_lane(lane, circuit, backend))
            .collect();
        let race = lanes::race(bodies, budget);
        report.race_complete = race.reported == lanes.len();
        report.discarded += race.failures.len()
            + usize::from(race.stopped.is_some())
            + (lanes.len() - race.reported);
        if let Some(error) = race.stopped {
            return Err(error);
        }
        if !report.race_complete {
            // The budget ended before every lane reported: whatever is
            // served next depends on wall-clock, not only on the job.
            report.budget_limited = true;
        }
        Ok(race.best.map(|(index, outcome)| {
            report.lane = lanes[index].to_string();
            outcome
        }))
    }
}

/// Runs one lane on its own: a one-lane [`lanes::sequential`] run on
/// the calling thread without a budget (no spawn on the deterministic
/// unbounded path), a one-lane [`lanes::race`] with one, so even the
/// confident direct run is deadline-bounded. `Ok(None)` means the lane
/// was demoted: its failure is appended to `attempts` and counted as
/// discarded, and a lane that did not report in time also marks the
/// report budget-limited.
fn solo(
    lane: &'static str,
    circuit: &Circuit,
    backend: &Arc<dyn Backend>,
    budget: Option<Duration>,
    report: &mut PortfolioReport,
    attempts: &mut Vec<LadderAttempt>,
) -> Result<Option<MapOutcome>, LadderError> {
    let config = lane_config(lane).unwrap_or_default();
    let served = match budget {
        None => {
            let run = || run_lane(lane, circuit, backend.as_ref(), None);
            lanes::sequential([Lane::new(&config.placer, &config.router, run)])
                .map(|(_, outcome)| outcome)
        }
        Some(budget) => {
            let race = lanes::race(vec![race_lane(lane, circuit, backend)], Some(budget));
            if let Some(error) = race.stopped {
                return Err(error);
            }
            race.best.map(|(_, outcome)| outcome).ok_or_else(|| {
                let error = race.failures.into_iter().next().unwrap_or_else(|| {
                    report.budget_limited = true;
                    "did not report within the budget".to_string()
                });
                LadderError {
                    attempts: vec![LadderAttempt {
                        placer: config.placer.clone(),
                        router: config.router.clone(),
                        error,
                    }],
                    unsatisfiable: false,
                }
            })
        }
    };
    match served {
        Ok(outcome) => Ok(Some(outcome)),
        Err(error) if error.unsatisfiable => Err(error),
        Err(mut error) => {
            report.discarded += 1;
            attempts.append(&mut error.attempts);
            Ok(None)
        }
    }
}

/// A lane for [`lanes::race`]: owns its copy of the circuit and backend
/// so it can outlive the caller.
fn race_lane(lane: &'static str, circuit: &Circuit, backend: &Arc<dyn Backend>) -> RaceLane {
    let circuit = circuit.clone();
    let backend = Arc::clone(backend);
    Box::new(move |cancel| run_lane(lane, &circuit, backend.as_ref(), Some(cancel)))
}

/// The lane body: `mapper.race.<lane>` failpoint, cancel checkpoint,
/// then a single-lane verified compile via [`Backend::map_single`].
fn run_lane(
    lane: &'static str,
    circuit: &Circuit,
    backend: &dyn Backend,
    cancel: Option<&AtomicBool>,
) -> LaneResult<MapOutcome> {
    if qcs_faults::any_armed() {
        if let qcs_faults::Hit::Error(message) = qcs_faults::hit(&format!("mapper.race.{lane}")) {
            return Err(LaneFailure::Demote(message));
        }
    }
    if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
        return Err(LaneFailure::Demote("cancelled".to_string()));
    }
    let config = lane_config(lane)
        .unwrap_or_else(|| panic!("unknown portfolio lane {lane:?} (expected one of {LANES:?})"));
    backend.map_single(circuit, &config).map_err(|error| {
        if error.unsatisfiable {
            LaneFailure::Stop(error)
        } else {
            LaneFailure::Demote(error.to_string())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CoupledBackend;
    use qcs_topology::surface::surface17;

    fn backend() -> Arc<dyn Backend> {
        Arc::new(CoupledBackend::new(surface17()))
    }

    #[test]
    fn lane_table_is_consistent() {
        for (i, lane) in LANES.iter().enumerate() {
            assert_eq!(lane_index(lane), Some(i));
            assert!(lane_config(lane).is_some());
        }
        assert_eq!(lane_config("warp"), None);
        assert_eq!(lane_index("warp"), None);
    }

    #[test]
    fn adequacy_and_oracle_prefer_cheap_lanes() {
        // Clear win for trivial.
        assert_eq!(oracle_lane(&[10, 10, 10]), "trivial");
        // Trivial 3x worse than best: skip to lookahead.
        assert_eq!(oracle_lane(&[300, 100, 100]), "lookahead");
        // Only sabre is adequate.
        assert_eq!(oracle_lane(&[300, 200, 100]), "sabre");
        // Small absolute differences never force an expensive lane.
        assert_eq!(oracle_lane(&[8, 2, 1]), "trivial");
    }

    #[test]
    fn selector_is_deterministic_and_total() {
        let selector = Selector::default();
        let qft = qcs_workloads::qft::qft(8).unwrap();
        let a = selector.select(&qft).unwrap();
        let b = selector.select(&qft).unwrap();
        assert_eq!(a, b);
        assert!(lane_index(a.lane).is_some());
    }

    #[test]
    fn empty_interaction_graph_is_a_confident_trivial_pick() {
        let selector = Selector::default();
        let single = Circuit::new(3); // no two-qubit gates at all
        let s = selector.select(&single).unwrap();
        assert_eq!(s.lane, "trivial");
        assert!(s.confident);
    }

    #[test]
    fn portfolio_serves_verified_results_without_deadline() {
        let (outcome, report) = Portfolio::default()
            .map(&qcs_workloads::qft::qft(6).unwrap(), &backend(), None)
            .unwrap();
        assert!(outcome.report.verified);
        assert!(report.race_complete);
        assert!(!report.budget_limited);
        assert!(!report.lane.is_empty());
    }

    #[test]
    fn tight_deadline_degrades_to_the_cheapest_lane() {
        let (outcome, report) = Portfolio::default()
            .map(
                &qcs_workloads::qft::qft(6).unwrap(),
                &backend(),
                Some(Duration::from_millis(1)),
            )
            .unwrap();
        assert_eq!(report.mode, PortfolioMode::Cheapest);
        assert_eq!(report.lane, "trivial");
        assert_eq!(outcome.report.placer, "trivial");
        assert!(outcome.report.verified);
        assert!(
            report.budget_limited,
            "tight-deadline results must not be cached"
        );
    }

    #[test]
    fn forced_race_bypasses_the_selector() {
        let (outcome, report) = Portfolio::default()
            .map_racing(&qcs_workloads::qft::qft(6).unwrap(), &backend(), None)
            .unwrap();
        assert_eq!(report.mode, PortfolioMode::Raced);
        assert_eq!(report.raced, LANES.len());
        assert!(report.race_complete);
        assert!(!report.budget_limited);
        assert!(!report.confident);
        assert!(outcome.report.verified);
    }

    #[test]
    fn complete_races_are_deterministic() {
        let portfolio = Portfolio::default();
        let circuit = qcs_workloads::qft::qft(7).unwrap();
        let b = backend();
        let mut lanes = Vec::new();
        let mut payloads = Vec::new();
        for _ in 0..3 {
            let mut report = PortfolioReport {
                mode: PortfolioMode::Raced,
                ..PortfolioReport::fresh()
            };
            let outcome = portfolio
                .race(&circuit, &b, LANES, None, &mut report)
                .unwrap()
                .unwrap();
            assert!(report.race_complete);
            lanes.push(report.lane.clone());
            payloads.push((
                outcome.report.swaps_inserted,
                outcome.report.routed_gates,
                outcome.report.placer.clone(),
            ));
        }
        assert_eq!(lanes[0], lanes[1]);
        assert_eq!(lanes[1], lanes[2]);
        assert_eq!(payloads[0], payloads[1]);
        assert_eq!(payloads[1], payloads[2]);
    }

    #[test]
    fn too_wide_circuits_exhaust_with_attempts() {
        let wide = Circuit::new(30); // 30 qubits on surface-17
        let err = Portfolio::default()
            .map(&wide, &backend(), None)
            .unwrap_err();
        assert!(!err.unsatisfiable);
        assert!(!err.attempts.is_empty());
    }

    #[test]
    fn too_wide_circuits_pin_every_stage_of_the_degradation_chain() {
        // No two-qubit gates: a confident trivial pick. It fails, the
        // other two lanes race and fail (discarded, not recorded as
        // attempts), the cheapest lane fails again, and the standard
        // ladder's four rungs close the list.
        let wide = Circuit::new(30);
        let mut report = PortfolioReport::fresh();
        let err = Portfolio::default()
            .run(&wide, &backend(), None, false, &mut report)
            .unwrap_err();
        assert!(!err.unsatisfiable);
        let lane = "all 1 ladder rungs failed: [0] trivial/trivial: placement failed: \
                    circuit needs 30 qubits, device has 17";
        let place = "placement failed: circuit needs 30 qubits, device has 17";
        let expected = [
            ("trivial", "trivial", lane),
            ("trivial", "trivial", lane),
            ("graph-similarity", "lookahead", place),
            ("sabre", "lookahead", place),
            ("subgraph", "lookahead", place),
            ("trivial", "trivial", place),
        ];
        let got: Vec<(&str, &str, &str)> = err
            .attempts
            .iter()
            .map(|a| (a.placer.as_str(), a.router.as_str(), a.error.as_str()))
            .collect();
        assert_eq!(got, expected);
        assert!(err.to_string().starts_with(
            "all 6 ladder rungs failed: [0] trivial/trivial: all 1 ladder rungs failed: "
        ));
        assert_eq!(
            report,
            PortfolioReport {
                mode: PortfolioMode::Ladder,
                lane: String::new(),
                confident: true,
                selector_failed: false,
                raced: 2,
                discarded: 4,
                race_complete: true,
                budget_limited: false,
            }
        );
    }
}
