//! A leveled logger for the live runtime, writing through the event bus.
//!
//! `SAE_LOG=off|error|info|debug` (default `off`) controls what reaches
//! stderr. Every emitted line is *also* pushed into the cluster's
//! [`FlightRecorder`] as a [`LiveEvent::Log`], so log lines appear on the
//! merged Chrome timeline next to the protocol traffic they explain —
//! and a post-mortem flight-recorder dump carries the log context even
//! when stderr logging was off. Message rendering is lazy: a disabled
//! level with a disabled recorder costs one branch.

use std::sync::OnceLock;

use crate::recorder::{FlightRecorder, LiveEvent};

/// Log severity, ordered so `Error < Info < Debug` in verbosity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Nothing is emitted.
    Off,
    /// Failures and lost executors only.
    Error,
    /// Lifecycle events: registration, stages, decisions.
    Info,
    /// Everything, including per-frame chatter.
    Debug,
}

impl LogLevel {
    /// The level's lowercase name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Error => "error",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }

    /// Parses an `SAE_LOG` value; unknown values fall back to `Off`.
    pub(crate) fn parse(value: &str) -> Self {
        match value.trim().to_ascii_lowercase().as_str() {
            "error" => LogLevel::Error,
            "info" => LogLevel::Info,
            "debug" => LogLevel::Debug,
            _ => LogLevel::Off,
        }
    }
}

/// The process-wide level from `SAE_LOG`, read once.
pub(crate) fn env_level() -> LogLevel {
    static LEVEL: OnceLock<LogLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        std::env::var("SAE_LOG")
            .map(|v| LogLevel::parse(&v))
            .unwrap_or(LogLevel::Off)
    })
}

/// A scoped logger: a level threshold, a component name, and the event
/// bus it mirrors into.
#[derive(Debug, Clone)]
pub(crate) struct Logger {
    level: LogLevel,
    scope: String,
    recorder: FlightRecorder,
}

impl Logger {
    /// A logger at the `SAE_LOG` level, mirroring into `recorder`.
    pub(crate) fn new(scope: impl Into<String>, recorder: FlightRecorder) -> Self {
        Self::with_level(scope, recorder, env_level())
    }

    /// A logger with an explicit threshold (tests, mostly).
    pub(crate) fn with_level(
        scope: impl Into<String>,
        recorder: FlightRecorder,
        level: LogLevel,
    ) -> Self {
        Self {
            level,
            scope: scope.into(),
            recorder,
        }
    }

    /// Whether `level` would print to stderr.
    pub(crate) fn prints(&self, level: LogLevel) -> bool {
        level != LogLevel::Off && level <= self.level
    }

    /// Logs lazily: `msg` runs only if the line goes to stderr or the
    /// flight recorder.
    pub(crate) fn log(&self, level: LogLevel, msg: impl FnOnce() -> String) {
        let prints = self.prints(level);
        if !prints && !self.recorder.enabled() {
            return;
        }
        let message = msg();
        if prints {
            eprintln!("[sae-live {:>5}] {}: {message}", level.as_str(), self.scope);
        }
        self.recorder.push(LiveEvent::Log {
            level,
            scope: self.scope.clone(),
            message,
            at: self.recorder.now(),
        });
    }

    /// Logs at [`LogLevel::Error`].
    pub(crate) fn error(&self, msg: impl FnOnce() -> String) {
        self.log(LogLevel::Error, msg);
    }

    /// Logs at [`LogLevel::Info`].
    pub(crate) fn info(&self, msg: impl FnOnce() -> String) {
        self.log(LogLevel::Info, msg);
    }

    /// Logs at [`LogLevel::Debug`].
    pub(crate) fn debug(&self, msg: impl FnOnce() -> String) {
        self.log(LogLevel::Debug, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_every_documented_value() {
        assert_eq!(LogLevel::parse("off"), LogLevel::Off);
        assert_eq!(LogLevel::parse("ERROR"), LogLevel::Error);
        assert_eq!(LogLevel::parse(" info "), LogLevel::Info);
        assert_eq!(LogLevel::parse("Debug"), LogLevel::Debug);
        assert_eq!(LogLevel::parse("verbose"), LogLevel::Off);
        assert_eq!(LogLevel::parse(""), LogLevel::Off);
    }

    #[test]
    fn threshold_gates_stderr_by_severity() {
        let rec = FlightRecorder::disabled();
        let log = Logger::with_level("t", rec, LogLevel::Info);
        assert!(log.prints(LogLevel::Error));
        assert!(log.prints(LogLevel::Info));
        assert!(!log.prints(LogLevel::Debug));
        let off = Logger::with_level("t", FlightRecorder::disabled(), LogLevel::Off);
        assert!(!off.prints(LogLevel::Error));
    }

    #[test]
    fn lines_flow_through_the_event_bus_even_when_stderr_is_off() {
        let rec = FlightRecorder::new(8);
        let log = Logger::with_level("driver", rec.clone(), LogLevel::Off);
        log.error(|| "boom".into());
        let events = rec.snapshot();
        assert_eq!(events.len(), 1);
        match &events[0] {
            LiveEvent::Log {
                level,
                scope,
                message,
                ..
            } => {
                assert_eq!(*level, LogLevel::Error);
                assert_eq!(scope, "driver");
                assert_eq!(message, "boom");
            }
            other => panic!("unexpected event: {other:?}"),
        }
    }

    #[test]
    fn fully_disabled_logger_never_renders_the_message() {
        let log = Logger::with_level("t", FlightRecorder::disabled(), LogLevel::Off);
        log.debug(|| panic!("message must not be rendered"));
    }
}
