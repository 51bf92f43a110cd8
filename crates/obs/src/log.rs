//! Minimal leveled logger, gated by the `PPR_LOG` environment variable.
//!
//! `PPR_LOG` names the level (`off|error|warn|info|debug`, default
//! `warn`). Output goes to **stderr** only — CLI user-facing stdout stays
//! clean — one line per event: `[ppr WARN] module::path: message`.
//!
//! Use through the crate-root macros [`ppr_error!`], [`ppr_warn!`],
//! [`ppr_info!`], [`ppr_debug!`]; each checks [`enabled`] first, so a
//! disabled level costs one relaxed atomic load and no formatting.
//!
//! [`ppr_error!`]: crate::ppr_error
//! [`ppr_warn!`]: crate::ppr_warn
//! [`ppr_info!`]: crate::ppr_info
//! [`ppr_debug!`]: crate::ppr_debug

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Nothing is emitted.
    Off = 0,
    /// Unrecoverable or data-affecting problems.
    Error = 1,
    /// Degraded-but-continuing conditions (default threshold).
    Warn = 2,
    /// Lifecycle events worth a line in production.
    Info = 3,
    /// Per-decision diagnostics (planner choices, retries).
    Debug = 4,
}

impl Level {
    fn tag(self) -> &'static str {
        match self {
            Level::Off => "OFF",
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
        }
    }

    /// Parses a `PPR_LOG` value. An unknown one yields `None`, and the
    /// default applies: a typo'd spec degrades to `warn` rather than
    /// panicking inside a logging call.
    fn from_env(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// Sentinel meaning "read `PPR_LOG` on first use".
const UNSET: u8 = u8::MAX;

static MAX_LEVEL: AtomicU8 = AtomicU8::new(UNSET);

fn decode(v: u8) -> Level {
    match v {
        0 => Level::Off,
        1 => Level::Error,
        2 => Level::Warn,
        3 => Level::Info,
        _ => Level::Debug,
    }
}

/// The active threshold: `PPR_LOG` if set and valid, else `warn`. The
/// variable is read once and cached.
pub fn max_level() -> Level {
    let v = MAX_LEVEL.load(Ordering::Relaxed);
    if v != UNSET {
        return decode(v);
    }
    let spec = std::env::var("PPR_LOG").unwrap_or_default();
    let level = Level::from_env(&spec).unwrap_or(Level::Warn);
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
    level
}

/// Overrides the threshold at runtime (wins over `PPR_LOG`).
pub fn set_max_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether events at `level` are currently emitted.
pub fn enabled(level: Level) -> bool {
    level != Level::Off && level <= max_level()
}

/// Emits one line to stderr. Called by the macros after their
/// [`enabled`] check; calling it directly bypasses the threshold.
pub fn log(level: Level, target: &str, args: fmt::Arguments<'_>) {
    eprintln!("[ppr {}] {}: {}", level.tag(), target, args);
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! ppr_error {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Error) {
            $crate::log::log($crate::Level::Error, module_path!(), format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! ppr_warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Warn) {
            $crate::log::log($crate::Level::Warn, module_path!(), format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! ppr_info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Info) {
            $crate::log::log($crate::Level::Info, module_path!(), format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! ppr_debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Debug) {
            $crate::log::log($crate::Level::Debug, module_path!(), format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_parsing() {
        assert!(Level::Error < Level::Debug);
        assert_eq!(Level::from_env("WARN"), Some(Level::Warn));
        assert_eq!(Level::from_env("debug"), Some(Level::Debug));
        assert_eq!(Level::from_env("off"), Some(Level::Off));
        assert_eq!(Level::from_env("verbose"), None);
    }

    #[test]
    fn threshold_gates_levels() {
        set_max_level(Level::Info);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_max_level(Level::Off);
        assert!(!enabled(Level::Error));
        set_max_level(Level::Warn);
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
    }
}
