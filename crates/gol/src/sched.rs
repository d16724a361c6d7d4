//! Fair-share transfer-job scheduler for the hosted service.
//!
//! At fleet scale (§VI run as SaaS for thousands of GCMU endpoints) the
//! hosted service cannot dispatch jobs FIFO: one bulk-ingest tenant
//! would starve everyone else, and an unbounded submit queue would turn
//! overload into memory growth and unbounded latency. This scheduler
//! gives each tenant:
//!
//! * a **weighted share** of dispatch slots — stride scheduling over a
//!   virtual clock, so long-run grant ratios converge to the configured
//!   weights and no backlogged tenant ever starves;
//! * an optional **dispatch rate limit** — a token bucket consulted at
//!   grant time, so a tenant's jobs never exceed its contracted rate no
//!   matter its weight;
//! * a **bounded submit queue** — when full, [`FairScheduler::submit`]
//!   returns a typed [`SchedReject`] immediately (and bumps the
//!   `gol.sched.rejects` counter) instead of blocking.
//!
//! Nothing here waits: `submit` and `dispatch` are lock-then-return, so
//! the scheduler can sit on the control-plane hot path. Time is passed
//! in by the caller (simulated seconds in E15, wall seconds in a real
//! deployment), which keeps every schedule replayable under a seed.

use ig_obs::json::{kv, to_string, Value};
use ig_obs::sync::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Stride-scheduling constant: per-grant pass increment is
/// `STRIDE1 / weight`, so higher weight ⇒ smaller stride ⇒ more grants.
const STRIDE1: u128 = 1 << 20;

/// Per-tenant share configuration.
#[derive(Debug, Clone)]
pub struct TenantShare {
    /// Relative dispatch weight (≥ 1).
    pub weight: u32,
    /// Dispatch rate cap in grants/second; `None` = unlimited.
    pub rate_per_s: Option<f64>,
    /// Token-bucket depth for the rate cap (burst allowance, ≥ 1).
    pub burst: f64,
    /// Bounded submit-queue capacity.
    pub queue_cap: usize,
}

impl TenantShare {
    /// A share with `weight`, no rate cap, and a `queue_cap` queue.
    pub fn weighted(weight: u32, queue_cap: usize) -> TenantShare {
        TenantShare { weight, rate_per_s: None, burst: 1.0, queue_cap }
    }

    /// Builder: cap dispatches at `rate` grants/second with `burst`
    /// bucket depth.
    pub fn with_rate(mut self, rate: f64, burst: f64) -> TenantShare {
        assert!(rate > 0.0 && burst >= 1.0, "rate cap needs rate > 0 and burst >= 1");
        self.rate_per_s = Some(rate);
        self.burst = burst;
        self
    }
}

/// Why a submit was refused. Typed so callers (and tenants) can tell
/// backpressure from misconfiguration; never signalled by blocking.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedReject {
    /// The tenant was never registered.
    UnknownTenant {
        /// The offending tenant name.
        tenant: String,
    },
    /// The tenant's bounded queue is at capacity — retry later.
    QueueFull {
        /// The backpressured tenant.
        tenant: String,
        /// Its configured capacity.
        cap: usize,
    },
}

impl fmt::Display for SchedReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedReject::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant:?}"),
            SchedReject::QueueFull { tenant, cap } => {
                write!(f, "tenant {tenant:?} queue full (cap {cap})")
            }
        }
    }
}

impl std::error::Error for SchedReject {}

/// A granted job.
#[derive(Debug, Clone, PartialEq)]
pub struct Grant<T> {
    /// Id assigned at submit.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// The submitted payload.
    pub payload: T,
}

struct TenantState<T> {
    share: TenantShare,
    queue: VecDeque<(u64, T)>,
    /// Virtual time: next grant goes to the smallest pass.
    pass: u128,
    stride: u128,
    tokens: f64,
    last_refill_s: f64,
    granted: u64,
    rejected: u64,
}

struct Inner<T> {
    /// BTreeMap so pass ties break on tenant name — deterministic under
    /// any insertion order.
    tenants: BTreeMap<String, TenantState<T>>,
    /// Virtual clock: pass of the latest grant. Tenants going from idle
    /// to backlogged rejoin at this point so idle time earns no credit.
    global_pass: u128,
    next_id: u64,
}

/// The weighted fair-share job scheduler. Cheap to clone via `Arc`;
/// all methods take `&self` and return without waiting.
pub struct FairScheduler<T> {
    inner: Mutex<Inner<T>>,
    obs: Arc<ig_obs::Obs>,
}

impl<T> FairScheduler<T> {
    /// A scheduler reporting to the global observability registry.
    pub fn new() -> FairScheduler<T> {
        FairScheduler::with_obs(ig_obs::Obs::global())
    }

    /// A scheduler reporting `gol.sched.*` metrics into `obs` (tests
    /// use a private registry to assert exact counter deltas).
    pub fn with_obs(obs: Arc<ig_obs::Obs>) -> FairScheduler<T> {
        FairScheduler {
            inner: Mutex::new(Inner { tenants: BTreeMap::new(), global_pass: 0, next_id: 1 }),
            obs,
        }
    }

    /// Register (or reconfigure) a tenant. Reconfiguring keeps its
    /// queue and virtual-time position.
    pub fn register(&self, tenant: &str, share: TenantShare) {
        assert!(share.weight >= 1, "weight must be >= 1");
        assert!(share.queue_cap >= 1, "queue_cap must be >= 1");
        let mut inner = self.inner.lock();
        let global_pass = inner.global_pass;
        let stride = STRIDE1 / u128::from(share.weight);
        match inner.tenants.get_mut(tenant) {
            Some(t) => {
                t.stride = stride;
                t.tokens = t.tokens.min(share.burst);
                t.share = share;
            }
            None => {
                inner.tenants.insert(
                    tenant.to_string(),
                    TenantState {
                        tokens: share.burst,
                        share,
                        queue: VecDeque::new(),
                        pass: global_pass,
                        stride,
                        last_refill_s: 0.0,
                        granted: 0,
                        rejected: 0,
                    },
                );
            }
        }
    }

    /// Submit a job for `tenant`. Returns the job id, or a typed
    /// reject — immediately, never by blocking the caller.
    pub fn submit(&self, tenant: &str, payload: T) -> Result<u64, SchedReject> {
        let mut inner = self.inner.lock();
        let global_pass = inner.global_pass;
        let next_id = inner.next_id;
        let Some(t) = inner.tenants.get_mut(tenant) else {
            drop(inner);
            self.obs.metrics().add("gol.sched.rejects", 1);
            return Err(SchedReject::UnknownTenant { tenant: tenant.to_string() });
        };
        if t.queue.len() >= t.share.queue_cap {
            t.rejected += 1;
            let cap = t.share.queue_cap;
            drop(inner);
            self.obs.metrics().add("gol.sched.rejects", 1);
            self.obs.metrics().add("gol.sched.queue_full", 1);
            return Err(SchedReject::QueueFull { tenant: tenant.to_string(), cap });
        }
        if t.queue.is_empty() {
            // Rejoining the virtual clock: no credit for idle time.
            t.pass = t.pass.max(global_pass);
        }
        t.queue.push_back((next_id, payload));
        inner.next_id += 1;
        drop(inner);
        self.obs.metrics().add("gol.sched.submitted", 1);
        Ok(next_id)
    }

    /// Grant the next job at time `now_s`: the backlogged,
    /// rate-eligible tenant with the smallest virtual pass (ties break
    /// on tenant name). `None` when nothing is eligible — either no
    /// jobs are queued or every backlogged tenant is rate-limited, in
    /// which case [`FairScheduler::next_ready_at`] says when to retry.
    pub fn dispatch(&self, now_s: f64) -> Option<Grant<T>> {
        let mut inner = self.inner.lock();
        let mut best: Option<(u128, String)> = None;
        for (name, t) in inner.tenants.iter_mut() {
            if t.queue.is_empty() {
                continue;
            }
            refill(t, now_s);
            if t.share.rate_per_s.is_some() && t.tokens < 1.0 {
                continue;
            }
            if best.as_ref().is_none_or(|(pass, _)| t.pass < *pass) {
                best = Some((t.pass, name.clone()));
            }
        }
        let (_, name) = best?;
        let t = inner.tenants.get_mut(&name).expect("winner exists");
        let (id, payload) = t.queue.pop_front().expect("winner has a job");
        if t.share.rate_per_s.is_some() {
            t.tokens -= 1.0;
        }
        t.pass += t.stride;
        t.granted += 1;
        inner.global_pass = inner.global_pass.max(inner.tenants[&name].pass);
        drop(inner);
        self.obs.metrics().add("gol.sched.grants", 1);
        Some(Grant { id, tenant: name, payload })
    }

    /// Earliest time a dispatch could succeed: `Some(now_s)` if a grant
    /// is available immediately, the earliest token-refill time if every
    /// backlogged tenant is rate-limited, `None` if nothing is queued.
    /// This is what lets an event loop sleep instead of spin — the
    /// scheduler itself never blocks.
    pub fn next_ready_at(&self, now_s: f64) -> Option<f64> {
        let mut inner = self.inner.lock();
        let mut earliest: Option<f64> = None;
        for t in inner.tenants.values_mut() {
            if t.queue.is_empty() {
                continue;
            }
            refill(t, now_s);
            let ready = match t.share.rate_per_s {
                Some(rate) if t.tokens < 1.0 => now_s + (1.0 - t.tokens) / rate,
                _ => now_s,
            };
            earliest = Some(earliest.map_or(ready, |e: f64| e.min(ready)));
        }
        earliest
    }

    /// Jobs queued for `tenant` (0 for unknown tenants).
    pub fn pending(&self, tenant: &str) -> usize {
        self.inner.lock().tenants.get(tenant).map_or(0, |t| t.queue.len())
    }

    /// Total queued jobs across tenants.
    pub fn queued_total(&self) -> usize {
        self.inner.lock().tenants.values().map(|t| t.queue.len()).sum()
    }

    /// Grants made to `tenant` so far.
    pub fn granted(&self, tenant: &str) -> u64 {
        self.inner.lock().tenants.get(tenant).map_or(0, |t| t.granted)
    }

    /// Typed rejects returned to `tenant` so far (queue-full only).
    pub fn rejected(&self, tenant: &str) -> u64 {
        self.inner.lock().tenants.get(tenant).map_or(0, |t| t.rejected)
    }

    /// Reconfigure an *existing* tenant's share, keeping its queue and
    /// virtual-time position. Unlike [`FairScheduler::register`], an
    /// unknown tenant is a typed error, not an implicit creation — the
    /// admin plane must not mint tenants by typo. Same validity
    /// contract as `register` (`weight >= 1`, `queue_cap >= 1`).
    pub fn reconfigure(&self, tenant: &str, share: TenantShare) -> Result<(), SchedReject> {
        assert!(share.weight >= 1, "weight must be >= 1");
        assert!(share.queue_cap >= 1, "queue_cap must be >= 1");
        let mut inner = self.inner.lock();
        let Some(t) = inner.tenants.get_mut(tenant) else {
            return Err(SchedReject::UnknownTenant { tenant: tenant.to_string() });
        };
        t.stride = STRIDE1 / u128::from(share.weight);
        t.tokens = t.tokens.min(share.burst);
        t.share = share;
        Ok(())
    }

    /// JSON array of per-tenant configuration and counters, name-ordered
    /// (BTreeMap), for the admin `limits list` command.
    pub fn tenants_json(&self) -> String {
        let inner = self.inner.lock();
        let tenants = inner.tenants.iter().map(|(name, t)| {
            Value::Obj(vec![
                kv("tenant", name.as_str()),
                kv("weight", t.share.weight),
                kv("rate_per_s", t.share.rate_per_s),
                kv("burst", t.share.burst),
                kv("queue_cap", t.share.queue_cap),
                kv("queued", t.queue.len()),
                kv("granted", t.granted),
                kv("rejected", t.rejected),
            ])
        });
        to_string(&Value::Arr(tenants.collect()))
    }
}

/// The admin plane's hook into a running scheduler (`limits set` /
/// `limits list`). Validation happens here — with typed string errors,
/// not the panics `register` reserves for programmer mistakes — because
/// the inputs come off the wire.
impl<T: Send> ig_server::SchedulerControl for FairScheduler<T> {
    fn set_limits(
        &self,
        tenant: &str,
        weight: u32,
        rate_per_s: Option<f64>,
        burst: f64,
        queue_cap: usize,
    ) -> Result<(), String> {
        if weight < 1 {
            return Err("weight must be >= 1".to_string());
        }
        if queue_cap < 1 {
            return Err("queue_cap must be >= 1".to_string());
        }
        let share = match rate_per_s {
            Some(r) => {
                if !(r.is_finite() && r > 0.0) {
                    return Err("rate_per_s must be finite and > 0".to_string());
                }
                if !(burst.is_finite() && burst >= 1.0) {
                    return Err("burst must be finite and >= 1".to_string());
                }
                TenantShare::weighted(weight, queue_cap).with_rate(r, burst)
            }
            None => TenantShare::weighted(weight, queue_cap),
        };
        self.reconfigure(tenant, share).map_err(|e| e.to_string())
    }

    fn tenants_json(&self) -> String {
        FairScheduler::tenants_json(self)
    }
}

impl<T> Default for FairScheduler<T> {
    fn default() -> Self {
        FairScheduler::new()
    }
}

/// Token-bucket refill at `now_s`. Uses the tenant's own last-refill
/// mark, so callers may move time forward at any granularity; time
/// never moves backwards (a stale `now_s` is ignored).
fn refill<T>(t: &mut TenantState<T>, now_s: f64) {
    let Some(rate) = t.share.rate_per_s else { return };
    if now_s > t.last_refill_s {
        t.tokens = (t.tokens + (now_s - t.last_refill_s) * rate).min(t.share.burst);
        t.last_refill_s = now_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> FairScheduler<u32> {
        FairScheduler::with_obs(ig_obs::Obs::new("sched-test"))
    }

    #[test]
    fn grants_follow_weights() {
        let s = sched();
        s.register("a", TenantShare::weighted(1, 1000));
        s.register("b", TenantShare::weighted(3, 1000));
        for i in 0..400 {
            s.submit("a", i).unwrap();
            s.submit("b", i).unwrap();
        }
        let mut counts = (0u32, 0u32);
        for _ in 0..400 {
            match s.dispatch(0.0).unwrap().tenant.as_str() {
                "a" => counts.0 += 1,
                _ => counts.1 += 1,
            }
        }
        // 1:3 weights over 400 grants: 100/300, exact under stride.
        assert_eq!(counts, (100, 300));
    }

    #[test]
    fn queue_full_rejects_typed_and_counts() {
        let obs = ig_obs::Obs::new("sched-reject-test");
        let s: FairScheduler<u32> = FairScheduler::with_obs(Arc::clone(&obs));
        s.register("t", TenantShare::weighted(1, 2));
        s.submit("t", 1).unwrap();
        s.submit("t", 2).unwrap();
        let err = s.submit("t", 3).unwrap_err();
        assert_eq!(err, SchedReject::QueueFull { tenant: "t".into(), cap: 2 });
        assert_eq!(obs.metrics().counter_value("gol.sched.rejects"), 1);
        assert_eq!(s.rejected("t"), 1);
        // Draining one slot readmits.
        assert!(s.dispatch(0.0).is_some());
        assert!(s.submit("t", 3).is_ok());
    }

    #[test]
    fn unknown_tenant_rejects_typed() {
        let s = sched();
        let err = s.submit("ghost", 1).unwrap_err();
        assert_eq!(err, SchedReject::UnknownTenant { tenant: "ghost".into() });
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn rate_limit_caps_grants_and_reports_ready_time() {
        let s = sched();
        s.register("fast", TenantShare::weighted(1, 100));
        s.register("capped", TenantShare::weighted(100, 100).with_rate(2.0, 1.0));
        for i in 0..20 {
            s.submit("fast", i).unwrap();
            s.submit("capped", i).unwrap();
        }
        // At t=0 capped burns its single-token burst, then only refills
        // at 2/s; over one second expect 1 + 2 capped grants max.
        let mut capped = 0;
        let mut t = 0.0;
        while t <= 1.0 {
            while let Some(g) = s.dispatch(t) {
                if g.tenant == "capped" {
                    capped += 1;
                }
                if s.pending("fast") == 0 {
                    break;
                }
            }
            t += 0.05;
        }
        assert!(capped <= 3, "rate cap leaked: {capped}");
        // fast drained long ago; capped still queued, so the scheduler
        // names the refill time instead of blocking.
        assert_eq!(s.pending("fast"), 0);
        let ready = s.next_ready_at(2.0).unwrap();
        assert!(ready >= 2.0);
        assert!(s.queued_total() > 0);
    }

    #[test]
    fn dispatch_never_hangs_when_empty() {
        let s = sched();
        s.register("t", TenantShare::weighted(1, 4));
        assert!(s.dispatch(0.0).is_none());
        assert!(s.next_ready_at(0.0).is_none());
    }

    #[test]
    fn idle_tenant_earns_no_credit() {
        let s = sched();
        s.register("busy", TenantShare::weighted(1, 10_000));
        s.register("idle", TenantShare::weighted(1, 10_000));
        for i in 0..600 {
            s.submit("busy", i).unwrap();
        }
        for _ in 0..500 {
            s.dispatch(0.0).unwrap();
        }
        // idle submits late; equal weights from here on means roughly
        // alternating grants, not a 500-grant catch-up burst.
        for i in 0..100 {
            s.submit("idle", i).unwrap();
        }
        let mut first = Vec::new();
        for _ in 0..10 {
            first.push(s.dispatch(0.0).unwrap().tenant);
        }
        assert!(
            first.iter().filter(|t| t.as_str() == "busy").count() >= 4,
            "idle tenant monopolized after rejoining: {first:?}"
        );
    }

    #[test]
    fn reconfigure_requires_existing_tenant() {
        let s = sched();
        let err = s.reconfigure("ghost", TenantShare::weighted(2, 8)).unwrap_err();
        assert_eq!(err, SchedReject::UnknownTenant { tenant: "ghost".into() });
        s.register("t", TenantShare::weighted(1, 4));
        s.submit("t", 7).unwrap();
        s.reconfigure("t", TenantShare::weighted(5, 8)).unwrap();
        // The queue survived the reconfigure.
        assert_eq!(s.pending("t"), 1);
        assert!(s.tenants_json().contains("\"weight\":5"));
    }

    #[test]
    fn scheduler_control_validates_wire_inputs() {
        use ig_server::SchedulerControl;
        let s = sched();
        s.register("t", TenantShare::weighted(1, 4));
        // Panics in register/with_rate must be unreachable from here.
        assert!(s.set_limits("t", 0, None, 1.0, 4).is_err());
        assert!(s.set_limits("t", 1, None, 1.0, 0).is_err());
        assert!(s.set_limits("t", 1, Some(-1.0), 1.0, 4).is_err());
        assert!(s.set_limits("t", 1, Some(10.0), 0.5, 4).is_err());
        assert!(s.set_limits("ghost", 2, None, 1.0, 4).is_err());
        s.set_limits("t", 3, Some(10.0), 2.0, 16).unwrap();
        let json = SchedulerControl::tenants_json(&s);
        assert!(json.contains("\"weight\":3"), "{json}");
        assert!(json.contains("\"rate_per_s\":10"), "{json}");
        assert!(json.contains("\"queue_cap\":16"), "{json}");
    }

    #[test]
    fn fifo_within_a_tenant() {
        let s = sched();
        s.register("t", TenantShare::weighted(1, 10));
        let ids: Vec<u64> = (0..5).map(|i| s.submit("t", i).unwrap()).collect();
        let granted: Vec<u64> = (0..5).map(|_| s.dispatch(0.0).unwrap().id).collect();
        assert_eq!(ids, granted);
    }
}
