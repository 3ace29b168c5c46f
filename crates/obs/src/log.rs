//! Structured JSON logging to stderr.
//!
//! One JSON object per line: `level`, RFC 3339 UTC `ts`, `target`
//! (subsystem), `msg`, plus typed key/value fields. Verbosity is
//! controlled by the `NVM_LLC_LOG` environment variable
//! (`off`/`error`/`info`/`debug`); the default is [`Level::Off`], so
//! instrumented binaries emit nothing unless asked. Long-running entry
//! points (the daemon, `--stats` dumps) raise the *default* with
//! [`set_default_level`] — an explicit `NVM_LLC_LOG` always wins.
//!
//! An invalid `NVM_LLC_LOG` value warns once on stderr and falls back
//! to the default. It is the one environment variable library code
//! reads: a deployment setting, not part of any result. Everything
//! that shapes a result is an explicit argument.

use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Environment variable controlling log verbosity.
pub const LOG_ENV: &str = "NVM_LLC_LOG";

/// Log verbosity, least to most chatty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Nothing is emitted (the default).
    Off = 0,
    /// Unexpected failures only.
    Error = 1,
    /// Lifecycle events: startup, shutdown, summary stats.
    Info = 2,
    /// Per-request / per-operation detail.
    Debug = 3,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Error,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Off,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Parses a `NVM_LLC_LOG` value. Accepts the four level names,
/// case-insensitively; `None` for anything else.
pub fn parse_level(raw: &str) -> Option<Level> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "none" | "0" => Some(Level::Off),
        "error" => Some(Level::Error),
        "info" => Some(Level::Info),
        "debug" => Some(Level::Debug),
        _ => None,
    }
}

/// `u8::MAX` while unresolved; a `Level` discriminant once resolved.
static LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);
/// Default applied when `NVM_LLC_LOG` is unset or invalid.
static DEFAULT: AtomicU8 = AtomicU8::new(Level::Off as u8);

fn resolve() -> Level {
    let current = LEVEL.load(Ordering::Relaxed);
    if current != u8::MAX {
        return Level::from_u8(current);
    }
    let default = Level::from_u8(DEFAULT.load(Ordering::Relaxed));
    let level = match std::env::var(LOG_ENV) {
        Ok(raw) => match parse_level(&raw) {
            Some(level) => level,
            None => {
                static WARNED: OnceLock<()> = OnceLock::new();
                WARNED.get_or_init(|| {
                    eprintln!(
                        "warning: ignoring invalid {LOG_ENV}={raw:?} \
                         (want off, error, info, or debug); using {}",
                        default.as_str(),
                    );
                });
                default
            }
        },
        Err(_) => default,
    };
    LEVEL.store(level as u8, Ordering::Relaxed);
    level
}

/// Overrides the level explicitly (wins over env and default).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Sets the level used when `NVM_LLC_LOG` is unset or invalid. Call
/// before the first log line; a no-op once the level has resolved from
/// the environment.
pub fn set_default_level(level: Level) {
    DEFAULT.store(level as u8, Ordering::Relaxed);
    // Re-resolve if the env hasn't pinned a level yet.
    if LEVEL.load(Ordering::Relaxed) != u8::MAX {
        // Level already resolved from env/default; only bump if the
        // previous resolution came from the old default. The env always
        // wins, so re-check it.
        if std::env::var(LOG_ENV).map_or(true, |raw| parse_level(&raw).is_none()) {
            LEVEL.store(level as u8, Ordering::Relaxed);
        }
    }
}

/// The currently effective level.
pub fn level() -> Level {
    resolve()
}

/// Whether a record at `level` would be emitted. Check this before
/// building expensive field values.
pub fn enabled(level: Level) -> bool {
    level <= resolve() && level != Level::Off
}

/// A typed field value for structured records.
#[derive(Debug, Clone)]
pub enum Value {
    /// A string, JSON-escaped on output.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float, rendered with shortest-round-trip formatting.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// Renders a Unix timestamp as RFC 3339 UTC (`2026-08-07T12:34:56.789Z`)
/// using the days-from-civil algorithm — no date dependency needed.
fn rfc3339_utc(now: SystemTime) -> String {
    let dur = now.duration_since(UNIX_EPOCH).unwrap_or_default();
    let secs = dur.as_secs();
    let millis = dur.subsec_millis();
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (hh, mm, ss) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // Civil-from-days (Howard Hinnant's algorithm), valid for the Unix era.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}.{millis:03}Z")
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Emits one structured record as a single JSON line on stderr. Prefer
/// the [`crate::error!`], [`crate::info!`], and [`crate::debug!`]
/// macros, which skip field construction when the level is off.
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) {
    if !enabled(level) {
        return;
    }
    let mut line = String::with_capacity(128);
    line.push_str("{\"ts\":");
    push_json_str(&mut line, &rfc3339_utc(SystemTime::now()));
    line.push_str(",\"level\":");
    push_json_str(&mut line, level.as_str());
    line.push_str(",\"target\":");
    push_json_str(&mut line, target);
    line.push_str(",\"msg\":");
    push_json_str(&mut line, msg);
    for (key, value) in fields {
        line.push(',');
        push_json_str(&mut line, key);
        line.push(':');
        match value {
            Value::Str(s) => push_json_str(&mut line, s),
            Value::U64(v) => line.push_str(&v.to_string()),
            Value::I64(v) => line.push_str(&v.to_string()),
            Value::F64(v) => {
                if v.is_finite() {
                    line.push_str(&format!("{v}"));
                } else {
                    push_json_str(&mut line, &v.to_string());
                }
            }
            Value::Bool(v) => line.push_str(if *v { "true" } else { "false" }),
        }
    }
    line.push('}');
    // One write_all per record keeps lines intact across threads.
    let mut stderr = std::io::stderr().lock();
    let _ = writeln!(stderr, "{line}");
}

/// Logs at [`Level::Error`]: `obs::error!("store", "read failed"; "path" => p)`.
#[macro_export]
macro_rules! error {
    ($target:expr, $msg:expr $(; $($k:literal => $v:expr),* $(,)?)?) => {
        $crate::log_event!($crate::log::Level::Error, $target, $msg $(; $($k => $v),*)?)
    };
}

/// Logs at [`Level::Info`]: `obs::info!("serve", "listening"; "addr" => a)`.
#[macro_export]
macro_rules! info {
    ($target:expr, $msg:expr $(; $($k:literal => $v:expr),* $(,)?)?) => {
        $crate::log_event!($crate::log::Level::Info, $target, $msg $(; $($k => $v),*)?)
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $msg:expr $(; $($k:literal => $v:expr),* $(,)?)?) => {
        $crate::log_event!($crate::log::Level::Debug, $target, $msg $(; $($k => $v),*)?)
    };
}

/// Shared expansion for the level macros; not called directly.
#[doc(hidden)]
#[macro_export]
macro_rules! log_event {
    ($level:expr, $target:expr, $msg:expr $(; $($k:literal => $v:expr),* $(,)?)?) => {{
        let level = $level;
        if $crate::log::enabled(level) {
            $crate::log::log(
                level,
                $target,
                &$msg,
                &[$($(($k, $crate::log::Value::from($v))),*)?],
            );
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_level_accepts_known_names() {
        assert_eq!(parse_level("off"), Some(Level::Off));
        assert_eq!(parse_level("ERROR"), Some(Level::Error));
        assert_eq!(parse_level(" info "), Some(Level::Info));
        assert_eq!(parse_level("Debug"), Some(Level::Debug));
        assert_eq!(parse_level("verbose"), None);
        assert_eq!(parse_level(""), None);
    }

    #[test]
    fn levels_order_by_verbosity() {
        assert!(Level::Off < Level::Error);
        assert!(Level::Error < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn rfc3339_formats_known_instants() {
        use std::time::Duration;
        let t = UNIX_EPOCH + Duration::from_millis(0);
        assert_eq!(rfc3339_utc(t), "1970-01-01T00:00:00.000Z");
        let t = UNIX_EPOCH + Duration::from_secs(1_786_190_400);
        assert_eq!(rfc3339_utc(t), "2026-08-08T12:00:00.000Z");
        let t = UNIX_EPOCH + Duration::from_millis(951_826_554_321);
        // 2000-02-29: leap-day coverage.
        assert_eq!(rfc3339_utc(t), "2000-02-29T12:15:54.321Z");
    }

    #[test]
    fn json_strings_escape_specials() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn set_level_wins_and_enabled_filters() {
        set_level(Level::Info);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(Level::Off);
        assert!(!enabled(Level::Error));
        assert_eq!(level(), Level::Off);
    }
}
