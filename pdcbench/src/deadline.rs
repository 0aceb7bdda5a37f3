//! Running one job under a wall-clock deadline.
//!
//! A job that outlives its deadline is abandoned: its thread is detached
//! and keeps whatever it holds, and the benchmark moves on. This is how a
//! run that never returns (a lost acknowledgement while both threaded
//! endpoints linger re-arms its wait forever) shows up as one failed job
//! instead of a benchmark that never finishes.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// How a deadline-bounded job ended.
#[derive(Debug)]
pub enum Outcome<T> {
    /// The job returned in time.
    Done(T),
    /// The job panicked; the payload's message.
    Panicked(String),
    /// The deadline passed first; the job's thread was detached.
    Abandoned,
}

/// Run `job` on its own thread and wait at most `deadline` for it.
pub fn run<T: Send + 'static>(
    deadline: Duration,
    job: impl FnOnce() -> T + Send + 'static,
) -> Outcome<T> {
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name("bench-job".into())
        .spawn(move || {
            // The receiver is gone only if the job was abandoned.
            let _ = tx.send(job());
        })
        .expect("spawn a job thread");
    match rx.recv_timeout(deadline) {
        Ok(v) => {
            handle.join().expect("job thread ends after sending");
            Outcome::Done(v)
        }
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => Outcome::Panicked(
                payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".into()),
            ),
            Ok(()) => Outcome::Panicked("job ended without a result".into()),
        },
        // A job past its deadline may never return, so it cannot be
        // joined; dropping the handle detaches it.
        Err(RecvTimeoutError::Timeout) => Outcome::Abandoned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_job_reports_its_message() {
        match run(Duration::from_secs(10), || -> u8 { panic!("boom") }) {
            Outcome::Panicked(m) => assert_eq!(m, "boom"),
            other => panic!("expected a panic outcome, got {other:?}"),
        }
    }
}
