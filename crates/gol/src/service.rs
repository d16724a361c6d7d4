//! The hosted transfer service.

use crate::activation::{Activation, PasswordAudit};
use crate::error::{GolError, Result};
use crate::tuning::tune;
use ig_client::{transfer, ClientConfig, ClientSession, RetryError, RetryPolicy, TransferOpts};
use ig_gcmu::{GcmuEndpoint, OAuthServer};
use ig_obs::kv;
use ig_obs::sync::{Mutex, RwLock};
use ig_pki::time::Clock;
use ig_pki::{Credential, DistinguishedName, TrustStore};
use ig_protocol::{ByteRanges, HostPort};
use ig_server::Dsi;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A registered endpoint's coordinates.
#[derive(Clone)]
pub struct RegisteredEndpoint {
    /// Endpoint name.
    pub name: String,
    /// GridFTP control address.
    pub gridftp: HostPort,
    /// MyProxy address.
    pub myproxy: HostPort,
    /// OAuth server handle, when the endpoint runs one.
    pub oauth: Option<Arc<OAuthServer>>,
    /// The endpoint clock (simulated deployments share it).
    pub clock: Clock,
    /// Storage handle (for bookkeeping like file sizes in tuning).
    pub dsi: Option<Arc<dyn Dsi>>,
    /// The endpoint CA's root certificate (published at registration).
    pub ca_root: Option<ig_pki::Certificate>,
    /// Signing policy for that root.
    pub signing_policy: Option<ig_pki::SigningPolicy>,
}

/// One transfer request.
#[derive(Debug, Clone)]
pub struct TransferRequest {
    /// Source endpoint name.
    pub src_endpoint: String,
    /// Source path.
    pub src_path: String,
    /// Destination endpoint name.
    pub dst_endpoint: String,
    /// Destination path.
    pub dst_path: String,
    /// Retries after mid-transfer failures (Fig 6 recovery). Ignored
    /// when `retry` is set.
    pub max_retries: u32,
    /// Full retry/backoff/deadline policy; `None` maps `max_retries`
    /// to immediate retries (the legacy behaviour).
    pub retry: Option<RetryPolicy>,
    /// Override auto-tuning.
    pub opts: Option<TransferOpts>,
}

impl TransferRequest {
    /// The policy in force for this request.
    fn effective_policy(&self) -> RetryPolicy {
        match &self.retry {
            Some(p) => p.clone(),
            None => RetryPolicy::immediate(self.max_retries.saturating_add(1)),
        }
    }
}

/// A re-activation hook: mints a fresh short-term credential when the
/// stored one for its (user, endpoint) expires mid-request — the piece
/// of Fig 6 that makes "reauthenticate ... and restart from the last
/// checkpoint" work past the certificate lifetime.
pub type Reactivator = Arc<dyn Fn() -> Result<Activation> + Send + Sync>;

/// The outcome of a managed transfer.
#[derive(Debug)]
pub struct TransferResult {
    /// Attempts made (1 = no faults).
    pub attempts: u32,
    /// Bytes that crossed the wire, summed over attempts.
    pub bytes_on_wire: u64,
    /// Final checkpoint (complete file on success).
    pub checkpoint: ByteRanges,
    /// Did it complete?
    pub completed: bool,
}

/// The Globus Online service instance.
pub struct GlobusOnline {
    endpoints: RwLock<HashMap<String, RegisteredEndpoint>>,
    activations: RwLock<HashMap<(String, String), Activation>>,
    reactivators: RwLock<HashMap<(String, String), Reactivator>>,
    /// Short-term-credential cache in front of the endpoints' MyProxy
    /// CAs, keyed by `(endpoint/site-user, lifetime-bucket)`: activation
    /// storms coalesce onto a single `myproxy-logon` per key.
    cred_cache: ig_myproxy::CredCache<Activation, GolError>,
    /// Event log (human-readable; the "highly monitored" bit of §VI-A).
    pub events: Mutex<Vec<String>>,
    /// Structured observability hub: every `events` entry has a typed
    /// counterpart here (`gol.activate`, `gol.reactivate`, `gol.submit`).
    pub obs: Arc<ig_obs::Obs>,
    clock: Clock,
    seed: AtomicU64,
}

impl GlobusOnline {
    /// A fresh service.
    pub fn new(clock: Clock, seed: u64) -> Self {
        GlobusOnline {
            endpoints: RwLock::new(HashMap::new()),
            activations: RwLock::new(HashMap::new()),
            reactivators: RwLock::new(HashMap::new()),
            cred_cache: ig_myproxy::CredCache::new(),
            events: Mutex::new(Vec::new()),
            obs: ig_obs::Obs::global(),
            clock,
            seed: AtomicU64::new(seed),
        }
    }

    /// Builder: a private observability hub.
    pub fn with_obs(mut self, obs: Arc<ig_obs::Obs>) -> Self {
        // The (empty) credential cache reports into the same hub.
        self.cred_cache = ig_myproxy::CredCache::with_obs(Arc::clone(&obs));
        self.obs = obs;
        self
    }

    fn log(&self, msg: String) {
        self.events.lock().push(msg);
    }

    fn next_seed(&self) -> u64 {
        self.seed.fetch_add(1, Ordering::SeqCst)
    }

    /// Register a GCMU endpoint ("GCMU has an option in the installation
    /// to make the server available as an endpoint on Globus Online").
    pub fn register_gcmu(&self, ep: &GcmuEndpoint) {
        self.endpoints.write().insert(
            ep.name.clone(),
            RegisteredEndpoint {
                name: ep.name.clone(),
                gridftp: ep.gridftp_addr(),
                myproxy: ep.myproxy_addr(),
                oauth: ep.oauth.clone(),
                clock: ep.clock,
                dsi: Some(Arc::clone(&ep.dsi)),
                ca_root: Some(ep.ca.root_cert()),
                signing_policy: Some(ep.ca.signing_policy()),
            },
        );
        self.log(format!("endpoint {} registered", ep.name));
    }

    /// Register a non-GCMU endpoint by raw coordinates.
    pub fn register_raw(&self, reg: RegisteredEndpoint) {
        self.endpoints.write().insert(reg.name.clone(), reg);
    }

    fn endpoint(&self, name: &str) -> Result<RegisteredEndpoint> {
        self.endpoints
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| GolError::UnknownEndpoint(name.to_string()))
    }

    /// Password activation (Fig 6): the user gives GO their site
    /// username/password; GO runs `myproxy-logon` against the endpoint
    /// and keeps only the short-term credential.
    pub fn activate_with_password(
        &self,
        go_user: &str,
        endpoint: &str,
        username: &str,
        password: &str,
        lifetime: u64,
    ) -> Result<PasswordAudit> {
        let ep = self.endpoint(endpoint)?;
        let mut rng = StdRng::seed_from_u64(self.next_seed());
        let logon = ig_myproxy::myproxy_logon(
            ep.myproxy,
            username,
            password,
            lifetime,
            TrustStore::new(),
            true,
            ep.clock,
            512,
            &mut rng,
        )
        .map_err(|e| GolError::ActivationFailed(e.to_string()))?;
        let audit = PasswordAudit::password_flow();
        let activation = Activation::from_logon(&logon, audit.clone(), self.clock.now());
        self.activations
            .write()
            .insert((go_user.to_string(), endpoint.to_string()), activation);
        self.obs.event(
            "gol.activate",
            vec![kv("user", go_user), kv("endpoint", endpoint), kv("method", "password")],
        );
        self.obs.metrics().add("gol.activations", 1);
        self.log(format!("{go_user} activated {endpoint} via password"));
        Ok(audit)
    }

    /// [`Self::activate_with_password`] behind the short-term-credential
    /// cache: concurrent activations for the same
    /// `(endpoint, site-user, lifetime-bucket)` coalesce onto a single
    /// `myproxy-logon`, and a still-valid cached credential is reused
    /// without touching the CA at all. Each caller's `(go_user,
    /// endpoint)` activation record is refreshed either way, so the
    /// transfer path sees no difference from the uncached flow.
    pub fn activate_with_password_cached(
        &self,
        go_user: &str,
        endpoint: &str,
        username: &str,
        password: &str,
        lifetime: u64,
    ) -> Result<Activation> {
        let now = self.clock.now();
        let subject = format!("{endpoint}/{username}");
        let (out, _) = self.cred_cache.get_or_issue(&subject, lifetime, now, || {
            self.activate_with_password(go_user, endpoint, username, password, lifetime)?;
            let act = self.activation(go_user, endpoint)?;
            let expires_at = now + act.remaining(now);
            Ok((act, expires_at))
        });
        let act = out.map_err(|e| match e {
            ig_myproxy::CredCacheError::Issue(arc) => {
                GolError::ActivationFailed(arc.to_string())
            }
            other => GolError::ActivationFailed(other.to_string()),
        })?;
        // Hits and coalesced waits still need this caller's activation
        // record installed (the leader only installed its own).
        self.activations
            .write()
            .insert((go_user.to_string(), endpoint.to_string()), act.clone());
        Ok(act)
    }

    /// OAuth activation (Fig 7): the caller supplies the authorization
    /// code obtained on the endpoint's own login page; GO exchanges it.
    /// The password never transits GO.
    pub fn activate_with_oauth(
        &self,
        go_user: &str,
        endpoint: &str,
        code: &str,
        lifetime: u64,
    ) -> Result<PasswordAudit> {
        let ep = self.endpoint(endpoint)?;
        let oauth = ep
            .oauth
            .as_ref()
            .ok_or_else(|| GolError::ActivationFailed(format!("{endpoint} runs no OAuth server")))?;
        let mut rng = StdRng::seed_from_u64(self.next_seed());
        // GO generates the key and CSR; it ends up holding the credential.
        let keys = ig_crypto::RsaKeyPair::generate(&mut rng, 512)
            .map_err(|e| GolError::ActivationFailed(e.to_string()))?;
        let csr = ig_pki::CertificateSigningRequest::create(
            DistinguishedName::from_pairs([("CN", go_user)]),
            &keys.private,
        )
        .map_err(|e| GolError::ActivationFailed(e.to_string()))?;
        let cert = oauth
            .exchange(code, "globus-online", &csr, lifetime)
            .map_err(|e| GolError::ActivationFailed(e.to_string()))?;
        // Trust roots come from the registration record.
        let root = ep.ca_root.clone().ok_or_else(|| {
            GolError::ActivationFailed(format!("{endpoint} registration lacks a CA root"))
        })?;
        let policy = ep.signing_policy.clone().unwrap_or_else(ig_pki::SigningPolicy::allow_all);
        let credential = Credential::new(vec![cert, root.clone()], keys.private)
            .map_err(|e| GolError::ActivationFailed(e.to_string()))?;
        let activation = Activation::from_oauth(credential, root, policy, self.clock.now());
        let audit = activation.audit.clone();
        self.activations
            .write()
            .insert((go_user.to_string(), endpoint.to_string()), activation);
        self.obs.event(
            "gol.activate",
            vec![kv("user", go_user), kv("endpoint", endpoint), kv("method", "oauth")],
        );
        self.obs.metrics().add("gol.activations", 1);
        self.log(format!("{go_user} activated {endpoint} via OAuth"));
        Ok(audit)
    }

    /// The stored activation for (user, endpoint).
    pub fn activation(&self, go_user: &str, endpoint: &str) -> Result<Activation> {
        self.activations
            .read()
            .get(&(go_user.to_string(), endpoint.to_string()))
            .cloned()
            .ok_or_else(|| GolError::NotActivated {
                user: go_user.to_string(),
                endpoint: endpoint.to_string(),
            })
    }

    /// Register a hook that re-activates (user, endpoint) when the
    /// stored short-term credential expires mid-request.
    pub fn set_reactivator(&self, go_user: &str, endpoint: &str, hook: Reactivator) {
        self.reactivators
            .write()
            .insert((go_user.to_string(), endpoint.to_string()), hook);
    }

    /// The activation for (user, endpoint), reactivated first if its
    /// credential has no lifetime left on GO's clock.
    fn active_credentials(&self, go_user: &str, endpoint: &str) -> Result<Activation> {
        let act = self.activation(go_user, endpoint)?;
        if act.remaining(self.clock.now()) > 0 {
            return Ok(act);
        }
        let key = (go_user.to_string(), endpoint.to_string());
        let Some(react) = self.reactivators.read().get(&key).cloned() else {
            return Err(GolError::CredentialExpired {
                user: go_user.to_string(),
                endpoint: endpoint.to_string(),
            });
        };
        let fresh = react()?;
        self.activations.write().insert(key, fresh.clone());
        self.obs
            .event("gol.reactivate", vec![kv("user", go_user), kv("endpoint", endpoint)]);
        self.obs.metrics().add("gol.reactivations", 1);
        self.log(format!("{go_user}: reactivated {endpoint} (credential expired)"));
        Ok(fresh)
    }

    fn open_session(
        &self,
        ep: &RegisteredEndpoint,
        act: &Activation,
        attempt_timeout: Option<std::time::Duration>,
    ) -> Result<ClientSession> {
        let cfg = ClientConfig::new(act.credential.clone(), act.trust.clone())
            .with_clock(ep.clock)
            .with_seed(self.next_seed())
            .with_retry(RetryPolicy::once().with_attempt_timeout(attempt_timeout));
        let mut session = ClientSession::connect(ep.gridftp, cfg)?;
        session.login()?;
        Ok(session)
    }

    /// Run a managed third-party transfer with checkpoint restart.
    ///
    /// The §V/§VIII security arrangement is automatic: GO holds a
    /// *different* credential per endpoint (each minted by that site's
    /// online CA), so it installs the source-side credential as the
    /// destination's DCSC context — "use DCSC to pass credential A to
    /// site B, for subsequent presentation to site A".
    pub fn submit(&self, go_user: &str, req: &TransferRequest) -> Result<TransferResult> {
        let src_ep = self.endpoint(&req.src_endpoint)?;
        let dst_ep = self.endpoint(&req.dst_endpoint)?;
        let policy = req.effective_policy();
        let mut checkpoint: Option<ByteRanges> = None;
        let mut bytes_on_wire = 0u64;
        // Fig 6: (re-)authenticate with the stored short-term creds
        // (minting fresh ones first if they expired mid-request), open
        // both sessions, move what `checkpoint` says is missing. An `Err`
        // here is a hard failure that ends the request at once.
        let attempt = |checkpoint: Option<&ByteRanges>| -> Result<transfer::ThirdPartyOutcome> {
            let src_act = self.active_credentials(go_user, &req.src_endpoint)?;
            let dst_act = self.active_credentials(go_user, &req.dst_endpoint)?;
            let mut src = self.open_session(&src_ep, &src_act, policy.attempt_timeout)?;
            let mut dst = self.open_session(&dst_ep, &dst_act, policy.attempt_timeout)?;
            // Auto-tune from the source file size.
            let opts = match &req.opts {
                Some(o) => o.clone(),
                None => tune(src.size(&req.src_path)?),
            };
            // Cross-CA data channels need DCSC on the receiving side.
            if src_act.credential.identity() != dst_act.credential.identity() {
                dst.install_dcsc(&src_act.credential)?;
            }
            let outcome = transfer::third_party(
                &mut src,
                &req.src_path,
                &mut dst,
                &req.dst_path,
                &opts,
                checkpoint,
            )?;
            let _ = src.quit();
            let _ = dst.quit();
            Ok(outcome)
        };
        // The policy retries a failed transfer (`Err`) from its checkpoint.
        let run = policy.run(|attempts| {
            self.obs.event(
                "gol.submit",
                vec![
                    kv("user", go_user),
                    kv("src", req.src_endpoint.as_str()),
                    kv("dst", req.dst_endpoint.as_str()),
                    kv("attempt", attempts),
                ],
            );
            self.obs.metrics().add("gol.submit_attempts", 1);
            let before = checkpoint.as_ref().map_or(0, ByteRanges::total);
            let outcome = match attempt(checkpoint.as_ref()) {
                Ok(outcome) => outcome,
                Err(hard) => return Ok(Err(hard)),
            };
            bytes_on_wire += outcome.checkpoint.total().saturating_sub(before);
            if outcome.is_success() {
                self.obs.metrics().add("gol.transfers_ok", 1);
                self.obs.metrics().add("gol.bytes_on_wire", bytes_on_wire);
                self.log(format!(
                    "{go_user}: {}:{} -> {}:{} complete after {attempts} attempt(s)",
                    req.src_endpoint, req.src_path, req.dst_endpoint, req.dst_path
                ));
                return Ok(Ok(TransferResult {
                    attempts,
                    bytes_on_wire,
                    checkpoint: outcome.checkpoint,
                    completed: true,
                }));
            }
            let last_error = format!("src: {} / dst: {}", outcome.src_reply, outcome.dst_reply);
            self.log(format!(
                "{go_user}: attempt {attempts} failed ({last_error}); checkpoint {} bytes",
                outcome.checkpoint.total()
            ));
            checkpoint = Some(outcome.checkpoint);
            Err(last_error)
        });
        match run {
            Ok(result) => result,
            Err(RetryError::Exhausted { attempts, last }) => {
                self.obs.metrics().add("gol.transfers_failed", 1);
                Err(GolError::TransferFailed { attempts, last_error: last })
            }
            Err(RetryError::DeadlineExceeded { attempts, last }) => Err(GolError::TransferFailed {
                attempts,
                last_error: format!("overall deadline exceeded; last: {}", last.unwrap_or_default()),
            }),
        }
    }
}
