//! Error types for the simulation engine.

use std::fmt;

use crate::time::SimTime;

/// Errors reported by [`crate::Engine::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// All remaining simulated threads are parked and no events are pending:
    /// the simulated program can never make progress again.
    Deadlock {
        /// Virtual time at which the deadlock was detected.
        at: SimTime,
        /// Names of the threads that are still parked.
        parked_threads: Vec<String>,
        /// Events the engine executed before it found nothing left to run.
        events: u64,
    },
    /// A simulated thread panicked; the panic message is propagated here.
    ThreadPanic {
        /// Name of the thread that panicked.
        thread: String,
        /// Panic payload rendered as a string.
        message: String,
        /// Events the engine executed up to and including the one in which
        /// the panic happened.
        events: u64,
    },
    /// The engine exceeded its configured event budget (runaway simulation guard).
    EventLimitExceeded {
        /// The configured limit that was hit.
        limit: u64,
    },
    /// `run` was called more than once on the same engine.
    AlreadyRan,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock {
                at,
                parked_threads,
                events,
            } => {
                write!(
                    f,
                    "simulation deadlock at {at} after {events} events: {} thread(s) parked \
                     forever: {}",
                    parked_threads.len(),
                    parked_threads.join(", ")
                )
            }
            SimError::ThreadPanic {
                thread,
                message,
                events,
            } => {
                write!(
                    f,
                    "simulated thread '{thread}' panicked after {events} events: {message}"
                )
            }
            SimError::EventLimitExceeded { limit } => {
                write!(f, "simulation exceeded the event limit of {limit} events")
            }
            SimError::AlreadyRan => write!(f, "Engine::run may only be called once"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = SimError::Deadlock {
            at: SimTime::from_micros(42),
            parked_threads: vec!["a".into(), "b".into()],
            events: 17,
        };
        let s = e.to_string();
        assert!(s.contains("deadlock"));
        assert!(s.contains("a, b"));
        assert!(s.contains("after 17 events"), "{s}");

        let e = SimError::ThreadPanic {
            thread: "worker".into(),
            message: "boom".into(),
            events: 3,
        };
        assert!(e.to_string().contains("worker"));
        assert!(e.to_string().contains("boom"));
        assert!(e.to_string().contains("after 3 events"));

        assert!(SimError::EventLimitExceeded { limit: 7 }
            .to_string()
            .contains('7'));
        assert!(SimError::AlreadyRan.to_string().contains("once"));
    }
}
