//! The strategy executor: the one way to run ordered strategies under
//! panic isolation, verification and a budget.
//!
//! A *lane* is a named strategy whose body maps and verifies. It returns
//! a verified outcome; [`LaneFailure::Demote`] (a strategy-local error,
//! injected fault or failed verification), which demotes to the next
//! lane; or [`LaneFailure::Stop`] (a device-level
//! [`MapError::Unsatisfiable`](crate::mapper::MapError::Unsatisfiable)),
//! which no other lane can fix. A panicking body is demoted as
//! `panicked: <message>`. The executor has two modes: [`sequential`] on
//! the calling thread (no spawn, no clone) and `race` on detached
//! threads. The fallback ladder, the portfolio's degradation chain and
//! the DPQA backend's movement → SWAP demotion are all lists of lanes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::ladder::{LadderAttempt, LadderError};
use crate::mapper::MapOutcome;

/// How one lane ended short of a verified outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum LaneFailure {
    /// Strategy-local failure as a one-line message: demote to the next lane.
    Demote(String),
    /// Device-level failure: the run stops.
    Stop(LadderError),
}

/// What a lane body returns.
pub type LaneResult<T> = Result<T, LaneFailure>;

/// One lane of a [`sequential`] run, recorded as `placer/router` when
/// it is demoted.
pub struct Lane<'a, T> {
    placer: &'a str,
    router: &'a str,
    run: Box<dyn FnOnce() -> LaneResult<T> + 'a>,
}

impl<'a, T: 'a> Lane<'a, T> {
    /// A lane running `run`, recorded as `placer/router` on demotion.
    pub fn new(placer: &'a str, router: &'a str, run: impl FnOnce() -> LaneResult<T> + 'a) -> Self {
        Lane {
            placer,
            router,
            run: Box::new(run),
        }
    }

    /// The same lane with its success value passed through `f`.
    pub fn map<U: 'a>(self, f: impl FnOnce(T) -> U + 'a) -> Lane<'a, U> {
        let run = self.run;
        Lane::new(self.placer, self.router, move || run().map(f))
    }
}

/// A [`race`] lane body; it should return early once the cancel flag
/// it is given is set.
pub(crate) type RaceLane = Box<dyn FnOnce(&AtomicBool) -> LaneResult<MapOutcome> + Send>;

/// What a [`race`] saw before it ended.
#[derive(Debug, Default)]
pub(crate) struct Race {
    /// Index and outcome of the best verified lane.
    pub(crate) best: Option<(usize, MapOutcome)>,
    /// Lanes that reported, successes and failures alike.
    pub(crate) reported: usize,
    /// Demotion messages of the failed lanes, in report order.
    pub(crate) failures: Vec<String>,
    /// The device-level failure that stopped the race.
    pub(crate) stopped: Option<LadderError>,
}

/// Renders a caught panic payload into a one-line message.
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, turning a panic into `Err` with its one-line message.
pub fn isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| panic_message(panic.as_ref()))
}

fn caught<T>(run: impl FnOnce() -> LaneResult<T>) -> LaneResult<T> {
    isolated(run).unwrap_or_else(|message| Err(LaneFailure::Demote(format!("panicked: {message}"))))
}

/// Runs `lanes` in order on the calling thread; the first success wins
/// and is returned with its index (callers report it as `fallback_rung`).
///
/// # Errors
///
/// [`LadderError`] listing every demoted lane in order, with a stopping
/// lane's attempts appended and `unsatisfiable` set.
pub fn sequential<'a, T: 'a>(
    lanes: impl IntoIterator<Item = Lane<'a, T>>,
) -> Result<(usize, T), LadderError> {
    let mut attempts = Vec::new();
    for (index, lane) in lanes.into_iter().enumerate() {
        match caught(lane.run) {
            Ok(value) => return Ok((index, value)),
            Err(LaneFailure::Demote(error)) => attempts.push(LadderAttempt {
                placer: lane.placer.to_string(),
                router: lane.router.to_string(),
                error,
            }),
            Err(LaneFailure::Stop(mut error)) => {
                attempts.append(&mut error.attempts);
                return Err(LadderError {
                    attempts,
                    unsatisfiable: true,
                });
            }
        }
    }
    Err(LadderError {
        attempts,
        unsatisfiable: false,
    })
}

/// Races `lanes` on detached threads, keeping the best outcome reported
/// within `budget` (`None` waits for every lane) by `(swaps_inserted,
/// routed_gates, lane index)` — deterministic, so a complete race has a
/// deterministic winner. Detached threads mean a hung lane cannot hold
/// the caller past the budget; when the race ends the shared cancel
/// flag is set and lanes still running exit silently.
pub(crate) fn race(lanes: Vec<RaceLane>, budget: Option<Duration>) -> Race {
    let total = lanes.len();
    let cancel = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<(usize, LaneResult<MapOutcome>)>();
    let mut handles = Vec::with_capacity(total);
    for (index, lane) in lanes.into_iter().enumerate() {
        let tx = tx.clone();
        let cancel = Arc::clone(&cancel);
        handles.push(Some(std::thread::spawn(move || {
            let result = if cancel.load(Ordering::Relaxed) {
                Err(LaneFailure::Demote("cancelled".to_string()))
            } else {
                caught(|| lane(&cancel))
            };
            if cancel.load(Ordering::Relaxed) {
                return; // Cancelled loser: stay silent.
            }
            let _ = tx.send((index, result));
        })));
    }
    drop(tx);

    let deadline_at = budget.map(|b| Instant::now() + b);
    let mut race = Race::default();
    while race.reported < total {
        let message = match deadline_at {
            Some(at) => at
                .checked_duration_since(Instant::now())
                .filter(|wait| !wait.is_zero())
                .and_then(|wait| rx.recv_timeout(wait).ok()),
            None => rx.recv().ok(),
        };
        let Some((index, result)) = message else {
            break;
        };
        race.reported += 1;
        if let Some(handle) = handles[index].take() {
            // The lane sent its result as its last act; joining here is
            // instantaneous and keeps threads accounted.
            let _ = handle.join();
        }
        match result {
            Ok(outcome) => {
                let key =
                    |o: &MapOutcome, i: usize| (o.report.swaps_inserted, o.report.routed_gates, i);
                if race
                    .best
                    .as_ref()
                    .is_none_or(|(i, best)| key(&outcome, index) < key(best, *i))
                {
                    race.best = Some((index, outcome));
                }
            }
            Err(LaneFailure::Demote(error)) => race.failures.push(error),
            Err(LaneFailure::Stop(error)) => {
                // Authoritative: no lane can fix a device-level failure.
                race.stopped = Some(error);
                break;
            }
        }
    }
    cancel.store(true, Ordering::Relaxed);
    race
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::Mapper;
    use qcs_topology::surface::surface7;

    fn outcome(mapper: Mapper) -> MapOutcome {
        let ghz = qcs_workloads::ghz::ghz_chain(5).unwrap();
        mapper.map(&ghz, &surface7()).unwrap()
    }

    fn stop(message: &str) -> LaneFailure {
        LaneFailure::Stop(LadderError {
            attempts: vec![LadderAttempt {
                placer: "p".into(),
                router: "r".into(),
                error: message.into(),
            }],
            unsatisfiable: true,
        })
    }

    #[test]
    fn sequential_serves_the_first_success_and_records_demotions() {
        let (index, value) = sequential([
            Lane::new("a", "x", || Err(LaneFailure::Demote("bad".into()))),
            Lane::new("b", "y", || panic!("boom")),
            Lane::new("c", "z", || Ok(7)),
            Lane::new("d", "w", || unreachable!("never runs")),
        ])
        .unwrap();
        assert_eq!((index, value), (2, 7));
    }

    #[test]
    fn sequential_exhaustion_lists_every_lane_in_order() {
        let err = sequential([
            Lane::new("a", "x", || Err::<(), _>(LaneFailure::Demote("bad".into()))),
            Lane::new("b", "y", || panic!("boom")),
        ])
        .unwrap_err();
        assert!(!err.unsatisfiable);
        assert_eq!(
            err.to_string(),
            "all 2 ladder rungs failed: [0] a/x: bad; [1] b/y: panicked: boom"
        );
    }

    #[test]
    fn sequential_stop_ends_the_run_with_prior_attempts_first() {
        let err = sequential([
            Lane::new("a", "x", || Err::<(), _>(LaneFailure::Demote("bad".into()))),
            Lane::new("b", "y", || Err(stop("no room"))),
            Lane::new("c", "z", || unreachable!("never runs")),
        ])
        .unwrap_err();
        assert!(err.unsatisfiable);
        assert_eq!(
            err.to_string(),
            "job unsatisfiable on device: [0] a/x: bad; [1] p/r: no room"
        );
    }

    #[test]
    fn lane_map_transforms_only_successes() {
        let (_, value) = sequential([Lane::new("a", "x", || Ok(2)).map(|v| v * 10)]).unwrap();
        assert_eq!(value, 20);
    }

    #[test]
    fn panic_messages_render_every_payload_kind() {
        assert_eq!(isolated(|| panic!("static")), Err("static".to_string()));
        assert_eq!(
            isolated(|| panic!("{}", String::from("owned"))),
            Err("owned".to_string())
        );
        assert_eq!(
            isolated(|| std::panic::panic_any(42u8)),
            Err("non-string panic payload".to_string())
        );
        assert_eq!(isolated(|| 5), Ok(5));
    }

    #[test]
    fn race_keeps_the_fewest_swaps_and_discards_failures() {
        let trivial = outcome(Mapper::trivial());
        let swaps = trivial.report.swaps_inserted;
        let lanes: Vec<RaceLane> = vec![
            Box::new(|_| panic!("boom")),
            Box::new(move |_| Ok(trivial)),
            Box::new(|_| Err(LaneFailure::Demote("bad".into()))),
        ];
        let race = race(lanes, None);
        assert_eq!(race.reported, 3);
        assert!(race.stopped.is_none());
        assert_eq!(race.failures.len(), 2);
        assert!(race.failures.contains(&"panicked: boom".to_string()));
        let (index, best) = race.best.unwrap();
        assert_eq!(index, 1);
        assert_eq!(best.report.swaps_inserted, swaps);
    }

    #[test]
    fn race_ties_break_on_lane_order() {
        let a = outcome(Mapper::trivial());
        let b = a.clone();
        let lanes: Vec<RaceLane> = vec![Box::new(move |_| Ok(a)), Box::new(move |_| Ok(b))];
        let race = race(lanes, None);
        assert_eq!(race.best.map(|(i, _)| i), Some(0));
    }

    #[test]
    fn race_stop_is_authoritative() {
        let lanes: Vec<RaceLane> = vec![Box::new(|_| Err(stop("no room")))];
        let race = race(lanes, None);
        assert_eq!(race.reported, 1);
        assert!(race.best.is_none());
        assert!(race.stopped.unwrap().unsatisfiable);
    }

    #[test]
    fn race_budget_cancels_hung_lanes() {
        let lanes: Vec<RaceLane> = vec![Box::new(|cancel| {
            while !cancel.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(LaneFailure::Demote("cancelled".into()))
        })];
        let started = Instant::now();
        let race = race(lanes, Some(Duration::from_millis(20)));
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(race.reported, 0);
        assert!(race.best.is_none() && race.failures.is_empty() && race.stopped.is_none());
    }
}
