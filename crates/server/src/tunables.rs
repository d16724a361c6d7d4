//! Live-reloadable server tunables — the hot-swap half of the admin
//! plane's `reload` command.
//!
//! A running fleet endpoint cannot restart to pick up an operator tweak
//! (restarting aborts every in-flight transfer), so the knobs that are
//! safe to change mid-run live in a [`TunableSlot`]: an atomic-swap
//! `Arc<Tunables>` snapshot that sessions re-read at each use site. A
//! reload builds a candidate from the current snapshot, validates every
//! field, and only then publishes — an invalid batch leaves the old
//! configuration live, byte-for-byte ([`ReloadError`] says exactly why).
//!
//! What is *not* here is as deliberate as what is: structural fields
//! (`stripes`, bind addresses, credentials) are wired into threads and
//! sockets at start and cannot be swapped under a live server. Asking for them yields a typed
//! [`ReloadError::NotReloadable`], not a silent ignore — the reloadable
//! set is the API contract documented in DESIGN.md §15.

use ig_obs::json::{kv, to_string, Value};
use ig_obs::sync::Mutex;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Largest reloadable MODE E block size: one block must fit a data
/// frame with room for the 17-byte MODE E header.
pub const MAX_BLOCK_SIZE: usize = 8 * 1024 * 1024;

/// The hot-swappable subset of [`crate::ServerConfig`]. Sessions read a
/// snapshot per use site, so a transfer started before a reload keeps
/// seeing a coherent set of values.
#[derive(Debug, Clone, PartialEq)]
pub struct Tunables {
    /// Data-transfer no-progress deadline.
    pub stall_timeout: Duration,
    /// Control-channel idle deadline (`None` = wait forever).
    pub control_idle_timeout: Option<Duration>,
    /// MODE E block size in bytes.
    pub block_size: usize,
    /// Per-stripe bandwidth cap in bytes/second (`None` = unthrottled).
    pub stripe_rate: Option<f64>,
}

/// Why a reload batch was refused. The batch is all-or-nothing: any
/// error means *no* field changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadError {
    /// The field name matches nothing in the config at all.
    UnknownField {
        /// The offending name.
        field: String,
    },
    /// The field exists but is structural — fixed at server start.
    NotReloadable {
        /// The structural field.
        field: String,
    },
    /// The field is reloadable but the value is out of range or of the
    /// wrong type.
    InvalidValue {
        /// The field being set.
        field: String,
        /// Human-readable constraint that failed.
        reason: String,
    },
}

impl ReloadError {
    /// Stable machine-readable error code for the admin wire protocol.
    pub fn code(&self) -> &'static str {
        match self {
            ReloadError::UnknownField { .. } => "unknown-field",
            ReloadError::NotReloadable { .. } => "not-reloadable",
            ReloadError::InvalidValue { .. } => "invalid-value",
        }
    }

    /// The field the error is about.
    pub fn field(&self) -> &str {
        match self {
            ReloadError::UnknownField { field }
            | ReloadError::NotReloadable { field }
            | ReloadError::InvalidValue { field, .. } => field,
        }
    }
}

impl fmt::Display for ReloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReloadError::UnknownField { field } => write!(f, "unknown field {field:?}"),
            ReloadError::NotReloadable { field } => {
                write!(f, "field {field:?} is structural and cannot be reloaded")
            }
            ReloadError::InvalidValue { field, reason } => {
                write!(f, "invalid value for {field:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for ReloadError {}

/// Config fields an operator might plausibly name that are fixed at
/// start. Named explicitly so the rejection is `NotReloadable` (you
/// found the right knob, it just doesn't turn) rather than the
/// `UnknownField` a typo gets.
pub const NOT_RELOADABLE: &[&str] = &[
    "name",
    "stripes",
    "data_ip",
    "key_bits",
    "banner",
    "dcsc_enabled",
    "credential",
    "trust",
    "authz",
    "dsi",
    "clock",
    "admin_socket",
    "admin_uid",
];

/// The swap point: `None` until first read, then always the live
/// snapshot. Shared (`Arc`) between the config clones handed to
/// sessions and the admin plane doing the swapping.
#[derive(Debug, Default)]
pub struct TunableSlot {
    current: Mutex<Option<Arc<Tunables>>>,
}

impl TunableSlot {
    /// A fresh, unseeded slot.
    pub fn new() -> Arc<TunableSlot> {
        Arc::new(TunableSlot::default())
    }

    /// The live snapshot, seeding from `seed` on first read. Seeding is
    /// lazy because builder methods keep mutating the config's plain
    /// fields until the server starts; the first session (or reload)
    /// freezes them into the slot.
    pub fn get_or_seed(&self, seed: impl FnOnce() -> Tunables) -> Arc<Tunables> {
        let mut cur = self.current.lock();
        match &*cur {
            Some(t) => Arc::clone(t),
            None => {
                let t = Arc::new(seed());
                *cur = Some(Arc::clone(&t));
                t
            }
        }
    }

    /// Validate and apply a reload batch. All-or-nothing: the swap only
    /// happens after every field validated against the candidate, so a
    /// rejected batch leaves the previous snapshot untouched.
    pub fn reload(
        &self,
        seed: impl FnOnce() -> Tunables,
        updates: &[(String, Value)],
    ) -> Result<Arc<Tunables>, ReloadError> {
        let mut cur = self.current.lock();
        let mut cand = match &*cur {
            Some(t) => (**t).clone(),
            None => seed(),
        };
        for (field, value) in updates {
            apply_one(&mut cand, field, value)?;
        }
        let next = Arc::new(cand);
        *cur = Some(Arc::clone(&next));
        Ok(next)
    }
}

fn apply_one(t: &mut Tunables, field: &str, v: &Value) -> Result<(), ReloadError> {
    let invalid = |reason: &str| ReloadError::InvalidValue {
        field: field.to_string(),
        reason: reason.to_string(),
    };
    match field {
        "stall_timeout_ms" => match v.as_u64() {
            Some(ms) if ms >= 1 => t.stall_timeout = Duration::from_millis(ms),
            _ => return Err(invalid("expected integer milliseconds >= 1")),
        },
        "control_idle_timeout_ms" => match v {
            Value::Null => t.control_idle_timeout = None,
            _ => match v.as_u64() {
                Some(ms) if ms >= 1 => {
                    t.control_idle_timeout = Some(Duration::from_millis(ms))
                }
                _ => return Err(invalid("expected integer milliseconds >= 1, or null")),
            },
        },
        "block_size" => match v.as_u64() {
            Some(b) if b >= 1 && b as usize <= MAX_BLOCK_SIZE => t.block_size = b as usize,
            _ => return Err(invalid("expected 1 <= bytes <= 8388608")),
        },
        "stripe_rate" => match v {
            Value::Null => t.stripe_rate = None,
            _ => match v.as_f64() {
                Some(r) if r.is_finite() && r > 0.0 => t.stripe_rate = Some(r),
                _ => return Err(invalid("expected bytes/second > 0, or null")),
            },
        },
        f if NOT_RELOADABLE.contains(&f) => {
            return Err(ReloadError::NotReloadable { field: f.to_string() })
        }
        _ => return Err(ReloadError::UnknownField { field: field.to_string() }),
    }
    Ok(())
}

/// Serialize a snapshot as one JSON object (the admin `reload` reply
/// echoes the now-active values so the operator sees what took effect).
pub fn tunables_json(t: &Tunables) -> String {
    to_string(&Value::Obj(vec![
        kv("stall_timeout_ms", t.stall_timeout.as_millis() as u64),
        kv("control_idle_timeout_ms", t.control_idle_timeout.map(|d| d.as_millis() as u64)),
        kv("block_size", t.block_size),
        kv("stripe_rate", t.stripe_rate),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Tunables {
        Tunables {
            stall_timeout: Duration::from_secs(30),
            control_idle_timeout: None,
            block_size: 64 * 1024,
            stripe_rate: None,
        }
    }

    #[test]
    fn reload_swaps_valid_batches() {
        let slot = TunableSlot::new();
        let next = slot
            .reload(
                base,
                &[
                    ("block_size".into(), Value::U64(4096)),
                    ("stripe_rate".into(), Value::F64(1e6)),
                ],
            )
            .unwrap();
        assert_eq!(next.block_size, 4096);
        assert_eq!(next.stripe_rate, Some(1e6));
        // Untouched fields carry over from the previous snapshot.
        assert_eq!(next.stall_timeout, Duration::from_secs(30));
        assert_eq!(*slot.get_or_seed(base), *next);
    }

    #[test]
    fn invalid_batch_is_all_or_nothing() {
        let slot = TunableSlot::new();
        let before = slot.get_or_seed(base);
        let err = slot
            .reload(
                base,
                &[
                    ("stripe_rate".into(), Value::F64(1e6)), // valid...
                    ("block_size".into(), Value::U64(0)), // ...then invalid
                ],
            )
            .unwrap_err();
        assert_eq!(err.code(), "invalid-value");
        assert_eq!(err.field(), "block_size");
        assert_eq!(*slot.get_or_seed(base), *before, "old config must stay live");
    }

    #[test]
    fn rejections_are_typed() {
        let slot = TunableSlot::new();
        let err =
            slot.reload(base, &[("stripes".into(), Value::U64(1))]).unwrap_err();
        assert_eq!(err, ReloadError::NotReloadable { field: "stripes".into() });
        let err =
            slot.reload(base, &[("blocksize".into(), Value::U64(1))]).unwrap_err();
        assert_eq!(err, ReloadError::UnknownField { field: "blocksize".into() });
        let err = slot
            .reload(base, &[("stall_timeout_ms".into(), Value::Bool(true))])
            .unwrap_err();
        assert_eq!(err.code(), "invalid-value");
    }

    #[test]
    fn nullable_fields_clear_on_null() {
        let slot = TunableSlot::new();
        slot.reload(
            base,
            &[
                ("stripe_rate".into(), Value::F64(5e5)),
                ("control_idle_timeout_ms".into(), Value::U64(2000)),
            ],
        )
        .unwrap();
        let next = slot
            .reload(
                base,
                &[
                    ("stripe_rate".into(), Value::Null),
                    ("control_idle_timeout_ms".into(), Value::Null),
                ],
            )
            .unwrap();
        assert_eq!(next.stripe_rate, None);
        assert_eq!(next.control_idle_timeout, None);
    }

    #[test]
    fn json_echo_is_stable() {
        let t = base();
        assert_eq!(
            tunables_json(&t),
            "{\"stall_timeout_ms\":30000,\"control_idle_timeout_ms\":null,\
             \"block_size\":65536,\"stripe_rate\":null}"
        );
    }
}
