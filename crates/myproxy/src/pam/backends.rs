//! PAM backends: files, simulated LDAP / NIS / RADIUS, and OTP.
//!
//! The directory services are simulated (we have no site LDAP), but each
//! preserves the *shape* that matters: a per-lookup latency knob for
//! experiment E11, distinct failure messages, and — for LDAP — the
//! bind-DN construction that real `pam_ldap` performs.

use super::AuthBackend;
use crate::error::{MyProxyError, Result};
use ig_crypto::ct::ct_eq;
use ig_crypto::hmac::HmacSha256;
use ig_crypto::Sha256;
use ig_obs::sync::Mutex;
use std::collections::HashMap;
use std::time::Duration;

fn hash_password(salt: &[u8], password: &str) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(salt);
    h.update(password.as_bytes());
    h.finalize()
}

/// `pam_files`: an htpasswd-style salted-hash table.
#[derive(Default)]
pub struct FileBackend {
    users: HashMap<String, ([u8; 8], [u8; 32])>,
}

impl FileBackend {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) a user.
    pub fn add_user(&mut self, username: &str, password: &str) {
        // Deterministic per-user salt keeps tests reproducible.
        let digest = Sha256::digest(username.as_bytes());
        let mut salt = [0u8; 8];
        salt.copy_from_slice(&digest[..8]);
        self.users
            .insert(username.to_string(), (salt, hash_password(&salt, password)));
    }

    /// Number of accounts.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

impl AuthBackend for FileBackend {
    fn name(&self) -> &'static str {
        "pam_files"
    }

    fn authenticate(&self, username: &str, password: &str) -> Result<()> {
        match self.users.get(username) {
            Some((salt, stored)) if ct_eq(&hash_password(salt, password), stored) => Ok(()),
            Some(_) => Err(MyProxyError::AuthenticationFailed(format!(
                "pam_files: bad password for {username}"
            ))),
            None => Err(MyProxyError::AuthenticationFailed(format!(
                "pam_files: unknown user {username}"
            ))),
        }
    }
}

/// `pam_ldap` simulation: bind as `uid=<user>,<base_dn>`.
pub struct LdapSimBackend {
    base_dn: String,
    directory: HashMap<String, ([u8; 8], [u8; 32])>,
    /// Simulated directory round-trip latency.
    pub latency: Duration,
}

impl LdapSimBackend {
    /// An empty directory under `base_dn`.
    pub fn new(base_dn: &str) -> Self {
        LdapSimBackend {
            base_dn: base_dn.to_string(),
            directory: HashMap::new(),
            latency: Duration::from_micros(200),
        }
    }

    /// Provision a directory entry.
    pub fn add_entry(&mut self, uid: &str, password: &str) {
        let digest = Sha256::digest(uid.as_bytes());
        let mut salt = [0u8; 8];
        salt.copy_from_slice(&digest[8..16]);
        self.directory
            .insert(uid.to_string(), (salt, hash_password(&salt, password)));
    }

    /// The bind DN `pam_ldap` would construct.
    pub fn bind_dn(&self, uid: &str) -> String {
        format!("uid={uid},{}", self.base_dn)
    }
}

impl AuthBackend for LdapSimBackend {
    fn name(&self) -> &'static str {
        "pam_ldap"
    }

    fn authenticate(&self, username: &str, password: &str) -> Result<()> {
        std::thread::sleep(self.latency);
        let bind_dn = self.bind_dn(username);
        match self.directory.get(username) {
            Some((salt, stored)) if ct_eq(&hash_password(salt, password), stored) => Ok(()),
            Some(_) => Err(MyProxyError::AuthenticationFailed(format!(
                "pam_ldap: invalid credentials binding {bind_dn}"
            ))),
            None => Err(MyProxyError::AuthenticationFailed(format!(
                "pam_ldap: no such entry {bind_dn}"
            ))),
        }
    }
}

/// NIS simulation: a passwd-map lookup.
pub struct NisSimBackend {
    passwd_map: HashMap<String, ([u8; 8], [u8; 32])>,
    /// Simulated ypserv round-trip latency.
    pub latency: Duration,
}

impl NisSimBackend {
    /// Empty map.
    pub fn new() -> Self {
        NisSimBackend { passwd_map: HashMap::new(), latency: Duration::from_micros(100) }
    }

    /// Add a passwd-map entry.
    pub fn add_entry(&mut self, user: &str, password: &str) {
        let digest = Sha256::digest(user.as_bytes());
        let mut salt = [0u8; 8];
        salt.copy_from_slice(&digest[16..24]);
        self.passwd_map
            .insert(user.to_string(), (salt, hash_password(&salt, password)));
    }
}

impl Default for NisSimBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl AuthBackend for NisSimBackend {
    fn name(&self) -> &'static str {
        "pam_nis"
    }

    fn authenticate(&self, username: &str, password: &str) -> Result<()> {
        std::thread::sleep(self.latency);
        match self.passwd_map.get(username) {
            Some((salt, stored)) if ct_eq(&hash_password(salt, password), stored) => Ok(()),
            _ => Err(MyProxyError::AuthenticationFailed(format!(
                "pam_nis: passwd map rejects {username}"
            ))),
        }
    }
}

/// RADIUS simulation: Access-Request/Access-Accept with a shared secret
/// mixed into the verifier, RFC 2865-style.
pub struct RadiusSimBackend {
    shared_secret: Vec<u8>,
    users: HashMap<String, Vec<u8>>,
    /// Simulated RADIUS server round-trip latency.
    pub latency: Duration,
}

impl RadiusSimBackend {
    /// A "server" with the given shared secret.
    pub fn new(shared_secret: &[u8]) -> Self {
        RadiusSimBackend {
            shared_secret: shared_secret.to_vec(),
            users: HashMap::new(),
            latency: Duration::from_micros(300),
        }
    }

    fn verifier(&self, username: &str, password: &str) -> Vec<u8> {
        let mut mac = HmacSha256::new(&self.shared_secret);
        mac.update(username.as_bytes());
        mac.update(b"\0");
        mac.update(password.as_bytes());
        mac.finalize().to_vec()
    }

    /// Provision a user.
    pub fn add_user(&mut self, username: &str, password: &str) {
        let v = self.verifier(username, password);
        self.users.insert(username.to_string(), v);
    }
}

impl AuthBackend for RadiusSimBackend {
    fn name(&self) -> &'static str {
        "pam_radius"
    }

    fn authenticate(&self, username: &str, password: &str) -> Result<()> {
        std::thread::sleep(self.latency);
        match self.users.get(username) {
            Some(stored) if ct_eq(&self.verifier(username, password), stored) => Ok(()),
            _ => Err(MyProxyError::AuthenticationFailed(format!(
                "pam_radius: Access-Reject for {username}"
            ))),
        }
    }
}

/// OTP backend: HMAC-based one-time passwords (HOTP-style, 6 digits),
/// with replay protection — the "username/password, OTP, etc." of §IV-A.
pub struct OtpBackend {
    secrets: HashMap<String, Vec<u8>>,
    /// Highest accepted counter per user (replay guard).
    last_counter: Mutex<HashMap<String, u64>>,
    /// Look-ahead window.
    pub window: u64,
}

impl OtpBackend {
    /// Empty enrollment table.
    pub fn new() -> Self {
        OtpBackend { secrets: HashMap::new(), last_counter: Mutex::new(HashMap::new()), window: 4 }
    }

    /// Enroll a user with a shared secret.
    pub fn enroll(&mut self, username: &str, secret: &[u8]) {
        self.secrets.insert(username.to_string(), secret.to_vec());
    }

    /// Compute the 6-digit code for (secret, counter) — the "token".
    pub fn code(secret: &[u8], counter: u64) -> String {
        let mac = HmacSha256::mac(secret, &counter.to_be_bytes());
        let n = u32::from_be_bytes([mac[0], mac[1], mac[2], mac[3]]) % 1_000_000;
        format!("{n:06}")
    }
}

impl Default for OtpBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl AuthBackend for OtpBackend {
    fn name(&self) -> &'static str {
        "pam_otp"
    }

    fn authenticate(&self, username: &str, password: &str) -> Result<()> {
        let Some(secret) = self.secrets.get(username) else {
            return Err(MyProxyError::AuthenticationFailed(format!(
                "pam_otp: user {username} not enrolled"
            )));
        };
        let mut counters = self.last_counter.lock();
        let last = counters.get(username).copied().unwrap_or(0);
        for counter in last + 1..=last + self.window {
            if Self::code(secret, counter) == password {
                counters.insert(username.to_string(), counter);
                return Ok(());
            }
        }
        Err(MyProxyError::AuthenticationFailed(format!(
            "pam_otp: invalid or replayed token for {username}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_backend() {
        let mut b = FileBackend::new();
        assert!(b.is_empty());
        b.add_user("alice", "secret");
        assert_eq!(b.len(), 1);
        b.authenticate("alice", "secret").unwrap();
        assert!(b.authenticate("alice", "wrong").is_err());
        assert!(b.authenticate("bob", "secret").is_err());
        // Replace password.
        b.add_user("alice", "newpw");
        assert!(b.authenticate("alice", "secret").is_err());
        b.authenticate("alice", "newpw").unwrap();
    }

    #[test]
    fn ldap_backend() {
        let mut b = LdapSimBackend::new("ou=people,dc=example,dc=org");
        b.latency = Duration::ZERO;
        b.add_entry("alice", "ldap-pw");
        assert_eq!(b.bind_dn("alice"), "uid=alice,ou=people,dc=example,dc=org");
        b.authenticate("alice", "ldap-pw").unwrap();
        let err = b.authenticate("alice", "x").unwrap_err();
        assert!(err.to_string().contains("uid=alice"));
        assert!(b.authenticate("nobody", "x").is_err());
    }

    #[test]
    fn nis_backend() {
        let mut b = NisSimBackend::new();
        b.latency = Duration::ZERO;
        b.add_entry("bob", "nis-pw");
        b.authenticate("bob", "nis-pw").unwrap();
        assert!(b.authenticate("bob", "wrong").is_err());
    }

    #[test]
    fn radius_backend() {
        let mut b = RadiusSimBackend::new(b"shared-secret");
        b.latency = Duration::ZERO;
        b.add_user("carol", "radius-pw");
        b.authenticate("carol", "radius-pw").unwrap();
        assert!(b.authenticate("carol", "nope").is_err());
        // A different shared secret invalidates stored verifiers.
        let mut b2 = RadiusSimBackend::new(b"other-secret");
        b2.latency = Duration::ZERO;
        b2.users = b.users.clone();
        assert!(b2.authenticate("carol", "radius-pw").is_err());
    }

    #[test]
    fn otp_accepts_fresh_rejects_replay() {
        let mut b = OtpBackend::new();
        b.enroll("dave", b"otp-secret");
        let code1 = OtpBackend::code(b"otp-secret", 1);
        b.authenticate("dave", &code1).unwrap();
        // Replay rejected.
        assert!(b.authenticate("dave", &code1).is_err());
        // Next counter works; skipping within window works.
        let code3 = OtpBackend::code(b"otp-secret", 3);
        b.authenticate("dave", &code3).unwrap();
        // Counter 2 is now behind: rejected.
        let code2 = OtpBackend::code(b"otp-secret", 2);
        assert!(b.authenticate("dave", &code2).is_err());
        // Outside the window rejected.
        let code99 = OtpBackend::code(b"otp-secret", 99);
        assert!(b.authenticate("dave", &code99).is_err());
        // Unenrolled user.
        assert!(b.authenticate("erin", &code1).is_err());
    }

    #[test]
    fn otp_codes_are_six_digits() {
        for c in 0..50u64 {
            let code = OtpBackend::code(b"s", c);
            assert_eq!(code.len(), 6);
            assert!(code.chars().all(|ch| ch.is_ascii_digit()));
        }
    }
}
