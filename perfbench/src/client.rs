//! The client side shared by the workloads: the open-loop dispatcher, and
//! one checked read request against a `QueryService`, timed and traced the
//! same way by every workload that reads through the service.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rtindex::rtx_workloads::ArrivalSchedule;
use rtindex::{ClientHandle, LookupResult, PendingQuery, QueryBatch, ServeError};

use crate::trace::{tracer, Span};

/// Longest pass a reader's schedule covers; a longer pass stops reading.
const MAX_PASS_S: f64 = 120.0;

/// Poisson arrivals at `rate` per second for an open-loop reader beside a
/// closed-loop writer, enough for any pass (the reader stops with the
/// writer).
///
/// A reader that sent its next read as soon as the last one returned would
/// race the writer's resubmission: depending on which thread wins, a run
/// has most reads queued behind a write or most reads slipping in between
/// writes, and its median flips between the two. Reads arriving on their
/// own schedule instead see the write fence as a random arrival does.
pub fn read_schedule(rate: f64, seed: u64) -> ArrivalSchedule {
    let gap = Duration::from_secs_f64(1.0 / rate);
    ArrivalSchedule::poisson((rate * MAX_PASS_S) as usize, gap, seed)
}

/// Sleeps until `due` (returns at once when it has passed).
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs an open loop. A dispatcher thread sleeps until each due time of
/// `schedule` (offsets from `start`) and calls `submit` with the request's
/// index, until the schedule ends or `stop` returns true. The calling
/// thread takes the submitted requests in order and hands each to `finish`
/// with its due time; an `Err` from `finish` (a wrong answer) ends the
/// loop. Timing each request from its due time counts the wait a stall
/// imposes on every request due behind it.
///
/// Returns how late the dispatcher submitted each request, in seconds.
/// (`rtx-workloads`' `OpenLoopDriver` spins through the last 200 µs before
/// each due time, which at thousands of requests per second takes most of
/// one of a small machine's cores; this one sleeps and reports lateness.)
pub fn open_loop<T: Send>(
    start: Instant,
    schedule: &ArrivalSchedule,
    stop: &(dyn Fn() -> bool + Sync),
    mut submit: impl FnMut(usize) -> T + Send,
    mut finish: impl FnMut(usize, Instant, T) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let dispatcher = scope.spawn(move || {
            let mut lateness = Vec::new();
            for (i, offset) in schedule.offsets().enumerate() {
                let due = start + offset;
                sleep_until(due);
                if stop() {
                    break;
                }
                lateness.push(due.elapsed().as_secs_f64());
                if tx.send((i, due, submit(i))).is_err() {
                    break;
                }
            }
            lateness
        });
        let mut result = Ok(());
        for (i, due, request) in rx {
            if let Err(wrong) = finish(i, due, request) {
                result = Err(wrong);
                break;
            }
        }
        let lateness = dispatcher.join().expect("dispatcher thread panicked");
        result.map(|()| lateness)
    })
}

/// A submitted (or refused) request.
pub struct Submitted {
    started: Instant,
    submitted: Instant,
    ticket: Result<PendingQuery, ServeError>,
}

pub fn submit(handle: &ClientHandle, batch: &Arc<QueryBatch>) -> Submitted {
    let started = Instant::now();
    let ticket = handle.submit_shared(Arc::clone(batch));
    Submitted {
        started,
        submitted: Instant::now(),
        ticket,
    }
}

/// Waits for the answer and checks it against `expected`. Returns the
/// completion time, `None` for a refused or failed request, and `Err` for
/// a wrong answer (`what` names the request in the message).
pub fn finish(
    request: Submitted,
    expected: &[LookupResult],
    what: impl Fn() -> String,
) -> Result<Option<Instant>, String> {
    let Ok(ticket) = request.ticket else {
        return Ok(None);
    };
    let Ok(outcome) = ticket.wait() else {
        return Ok(None);
    };
    let completed = Instant::now();
    if outcome.results != expected {
        let slot = (0..expected.len())
            .find(|&i| outcome.results.get(i) != Some(&expected[i]))
            .unwrap_or(0);
        return Err(format!(
            "{} slot {slot}: got {:?}, oracle {:?}",
            what(),
            outcome.results.get(slot),
            expected.get(slot)
        ));
    }
    let t = tracer();
    if t.enabled() {
        let id = t.new_id();
        let span = |name, id, parent, from, to| Span {
            name,
            id,
            parent,
            request: id.max(parent),
            start_ns: t.ns_of(from),
            end_ns: t.ns_of(to),
        };
        t.record(span(
            "client.request",
            id,
            0,
            request.started,
            Instant::now(),
        ));
        t.record(span(
            "serve.submit",
            t.new_id(),
            id,
            request.started,
            request.submitted,
        ));
        t.record(span(
            "serve.wait",
            t.new_id(),
            id,
            request.submitted,
            completed,
        ));
    }
    Ok(Some(completed))
}
