//! Live session introspection for the admin plane.
//!
//! The `sessions` admin command must answer "who is connected and what
//! are they doing" without touching the session threads themselves, so
//! every control session registers a [`SessionTicket`] in a shared
//! [`SessionIndex`] at accept and updates it at a handful of cheap
//! points (command dispatch, login, transfer byte counts). The ticket
//! deregisters on drop — including unwinds — so the index can never
//! leak an entry past its session.
//!
//! The index is deliberately *lightweight*: a mutexed map touched once
//! per command, never per data block (byte counts are added once per
//! completed transfer). It is an operator convenience, not an
//! accounting surface — the usage ledger (`crate::usage`) remains the
//! source of truth for billing-grade numbers.

use ig_obs::json::{kv, to_string, Value};
use ig_obs::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Lifecycle state shown per session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Connected, not yet authenticated.
    PreAuth,
    /// Authenticated, between commands.
    Idle,
    /// A data transfer is in flight.
    Transfer,
}

impl SessionState {
    /// Stable lowercase label for the JSON surface.
    pub fn label(&self) -> &'static str {
        match self {
            SessionState::PreAuth => "pre-auth",
            SessionState::Idle => "idle",
            SessionState::Transfer => "transfer",
        }
    }
}

#[derive(Debug)]
struct SessionEntry {
    user: Option<String>,
    state: SessionState,
    last_verb: String,
    last_cmd: Instant,
    bytes_in: u64,
    bytes_out: u64,
}

/// Registry of live control sessions, keyed by a monotone session id.
#[derive(Debug, Default)]
pub struct SessionIndex {
    next_id: AtomicU64,
    live: Mutex<BTreeMap<u64, SessionEntry>>,
}

impl SessionIndex {
    /// A fresh, empty index.
    pub fn new() -> Arc<SessionIndex> {
        Arc::new(SessionIndex::default())
    }

    /// Register a new session; the returned ticket deregisters on drop.
    pub fn register(self: &Arc<SessionIndex>) -> SessionTicket {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.live.lock().insert(
            id,
            SessionEntry {
                user: None,
                state: SessionState::PreAuth,
                last_verb: String::new(),
                last_cmd: Instant::now(),
                bytes_in: 0,
                bytes_out: 0,
            },
        );
        SessionTicket { index: Arc::clone(self), id }
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.live.lock().len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// JSON array of live sessions, id-ordered (BTreeMap), rendered at
    /// call time so `last_cmd_age_ms` is current.
    pub fn snapshot_json(&self) -> String {
        let now = Instant::now();
        let live = self.live.lock();
        let sessions = live.iter().map(|(id, e)| {
            let age = now.saturating_duration_since(e.last_cmd).as_millis() as u64;
            Value::Obj(vec![
                kv("id", *id),
                kv("user", e.user.as_deref()),
                kv("state", e.state.label()),
                kv("last_verb", e.last_verb.as_str()),
                kv("last_cmd_age_ms", age),
                kv("bytes_in", e.bytes_in),
                kv("bytes_out", e.bytes_out),
            ])
        });
        to_string(&Value::Arr(sessions.collect()))
    }

    fn with_entry(&self, id: u64, f: impl FnOnce(&mut SessionEntry)) {
        if let Some(e) = self.live.lock().get_mut(&id) {
            f(e);
        }
    }
}

/// One session's handle into the index. Cheap updates; drop = gone.
#[derive(Debug)]
pub struct SessionTicket {
    index: Arc<SessionIndex>,
    id: u64,
}

impl SessionTicket {
    /// The session id (also the trace `session` span's seed ordinal
    /// peer: both count accepts).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Record a dispatched command verb and refresh the activity clock.
    pub fn touch(&self, verb: &str) {
        self.index.with_entry(self.id, |e| {
            e.last_verb.clear();
            e.last_verb.push_str(verb);
            e.last_cmd = Instant::now();
        });
    }

    /// Record a successful login.
    pub fn set_user(&self, user: &str) {
        self.index.with_entry(self.id, |e| {
            e.user = Some(user.to_string());
            if e.state == SessionState::PreAuth {
                e.state = SessionState::Idle;
            }
        });
    }

    /// Move the session between lifecycle states.
    pub fn set_state(&self, state: SessionState) {
        self.index.with_entry(self.id, |e| e.state = state);
    }

    /// RAII scope for one transfer: flips the state to `Transfer` now
    /// and back to `Idle` when the returned guard drops — error and
    /// unwind paths included.
    pub fn transfer_scope(&self) -> TransferScope {
        self.set_state(SessionState::Transfer);
        TransferScope { index: Arc::clone(&self.index), id: self.id }
    }

    /// Add transferred bytes (called once per completed transfer).
    pub fn add_bytes(&self, inbound: bool, n: u64) {
        self.index.with_entry(self.id, |e| {
            if inbound {
                e.bytes_in += n;
            } else {
                e.bytes_out += n;
            }
        });
    }
}

impl Drop for SessionTicket {
    fn drop(&mut self) {
        self.index.live.lock().remove(&self.id);
    }
}

/// See [`SessionTicket::transfer_scope`].
#[derive(Debug)]
pub struct TransferScope {
    index: Arc<SessionIndex>,
    id: u64,
}

impl Drop for TransferScope {
    fn drop(&mut self) {
        self.index.with_entry(self.id, |e| {
            if e.state == SessionState::Transfer {
                e.state = SessionState::Idle;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tickets_register_and_deregister() {
        let idx = SessionIndex::new();
        let a = idx.register();
        let b = idx.register();
        assert_eq!(idx.len(), 2);
        assert_ne!(a.id(), b.id());
        drop(a);
        assert_eq!(idx.len(), 1);
        drop(b);
        assert!(idx.is_empty());
    }

    #[test]
    fn snapshot_reflects_updates() {
        let idx = SessionIndex::new();
        let t = idx.register();
        t.touch("STOR");
        t.set_user("alice");
        t.set_state(SessionState::Transfer);
        t.add_bytes(true, 4096);
        let json = idx.snapshot_json();
        assert!(json.contains("\"user\":\"alice\""), "{json}");
        assert!(json.contains("\"state\":\"transfer\""));
        assert!(json.contains("\"last_verb\":\"STOR\""));
        assert!(json.contains("\"bytes_in\":4096"));
        assert!(json.contains("\"bytes_out\":0"));
    }

    #[test]
    fn transfer_scope_restores_idle() {
        let idx = SessionIndex::new();
        let t = idx.register();
        t.set_user("carol");
        {
            let _scope = t.transfer_scope();
            assert!(idx.snapshot_json().contains("\"state\":\"transfer\""));
        }
        assert!(idx.snapshot_json().contains("\"state\":\"idle\""));
    }

    #[test]
    fn pre_auth_until_login() {
        let idx = SessionIndex::new();
        let t = idx.register();
        assert!(idx.snapshot_json().contains("\"state\":\"pre-auth\""));
        t.set_user("bob");
        assert!(idx.snapshot_json().contains("\"state\":\"idle\""));
    }
}
