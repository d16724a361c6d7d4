//! The deterministic fleet-simulation engine behind experiment E15.
//!
//! Everything here runs in **virtual time** under a single seed: a
//! [`Fleet`] of simulated GCMU endpoints, a [`DiurnalModel`] arrival
//! curve scaled to the paper's 10M-transfers/day, the fair-share
//! [`FairScheduler`], the sharded [`UsageReporter`] ledger, and a
//! [`CredCache`]-fronted credential issuer. The issuer is a closure so
//! the engine itself has no PKI dependency — the experiment wrapper
//! plugs in the real MyProxy online CA, tests can plug in fakes or
//! chaos. Two runs with the same [`SimParams`] produce byte-identical
//! [`SimSummary::digest`] values; that is the replay contract
//! `scripts/ci.sh` gates on.

use ig_gol::{FairScheduler, SchedReject, TenantShare};
use ig_myproxy::cache::Outcome;
use ig_myproxy::CredCache;
use ig_netsim::{DiurnalModel, Fleet, FleetConfig};
use ig_server::usage::TransferRecord;
use ig_server::UsageReporter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Simulated seconds in a day.
pub const DAY_S: f64 = 86_400.0;

/// In-tree budget: p99 submit→grant wait (virtual seconds). The
/// scheduler must hold this through the diurnal peak, the chaos burst
/// and endpoint-flap re-arrivals.
pub const P99_SUBMIT_BUDGET_S: f64 = 600.0;

/// In-tree budget: p99 activation latency (virtual seconds). Bounded by
/// the modelled CA round trip — a working credential cache keeps almost
/// every activation at the cache-hit cost.
pub const P99_ACTIVATION_BUDGET_S: f64 = 0.30;

/// Modelled activation cost of a credential-cache hit.
const ACT_HIT_S: f64 = 0.002;
/// Modelled activation cost when the flight coalesced onto a leader.
const ACT_COALESCED_S: f64 = 0.12;
/// Modelled activation cost of a fresh CA issuance (CSR + sign RTT).
const ACT_ISSUE_S: f64 = 0.25;

/// Requested credential lifetime — hourly re-issuance over the day.
pub const CRED_LIFETIME_S: u64 = 3_600;

/// Tenant naming shared by the engine and the experiment wrapper (the
/// wrapper pre-builds one CSR per tenant for the real CA).
pub fn tenant_name(i: usize) -> String {
    format!("tenant-{i:02}")
}

/// Knobs for one simulated day.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Endpoint population (the paper's ">5,000 servers" at full size).
    pub endpoints: usize,
    /// Tenant count (scheduler shares / credential subjects).
    pub tenants: usize,
    /// Simulated jobs over the day; each stands for [`SimParams::scale`]
    /// real transfers, so `sim_jobs_per_day * scale` is the modelled
    /// daily rate (10M at either report size).
    pub sim_jobs_per_day: f64,
    /// Real transfers represented by one simulated job.
    pub scale: u64,
    /// Virtual tick width (seconds).
    pub tick_s: f64,
    /// Master seed (fleet, arrivals, sizes, chaos all derive from it).
    pub seed: u64,
    /// Fraction of endpoints given outage windows (chaos knob).
    pub flap_fraction: f64,
    /// Service dispatch capacity as a multiple of the mean arrival
    /// rate; must exceed the diurnal peak-to-mean ratio (1.5 here) or
    /// the peak backlog grows without bound.
    pub capacity_factor: f64,
    /// Extra jobs the burst tenant slams in at the diurnal peak.
    pub burst_jobs: u64,
    /// The burst tenant's bounded submit queue — sized so the burst
    /// overflows it and the typed-reject path is exercised at scale.
    pub burst_queue_cap: usize,
}

impl SimParams {
    /// Reduced-size parameters for in-crate tests and smoke gates.
    pub fn smoke(seed: u64) -> SimParams {
        SimParams {
            endpoints: 300,
            tenants: 8,
            sim_jobs_per_day: 4_000.0,
            scale: 2_500,
            tick_s: 600.0,
            seed,
            flap_fraction: 0.30,
            capacity_factor: 2.2,
            burst_jobs: 60,
            burst_queue_cap: 30,
        }
    }

    /// Modelled real-transfer daily total (`sim_jobs * scale`).
    pub fn modeled_daily_transfers(&self) -> f64 {
        self.sim_jobs_per_day * self.scale as f64
    }
}

/// One point of the regenerated Fig 1-style daily curve.
#[derive(Debug, Clone, Copy)]
pub struct HourPoint {
    /// Hour bucket start (virtual seconds).
    pub start_s: u64,
    /// Scaled (real-equivalent) transfers completed in the hour.
    pub transfers: f64,
    /// Scaled terabytes moved in the hour.
    pub tb: f64,
}

/// What one simulated day produced.
#[derive(Debug, Clone)]
pub struct SimSummary {
    /// Jobs accepted by the scheduler.
    pub submitted: u64,
    /// Jobs granted (all accepted jobs, once the drain completes).
    pub granted: u64,
    /// Typed queue-full rejects (== the `gol.sched.rejects` counter).
    pub rejects: u64,
    /// Arrivals deferred because their endpoint was down (chaos).
    pub deferred: u64,
    /// CA issuances performed (cache misses + expiries).
    pub issuances: u64,
    /// Credential-cache hits.
    pub cache_hits: u64,
    /// p99 submit→grant wait (virtual seconds).
    pub p99_submit_s: f64,
    /// p99 activation latency (virtual seconds, modelled).
    pub p99_activation_s: f64,
    /// Scaled daily transfer total (compare against 1e7).
    pub scaled_daily_transfers: f64,
    /// Scaled daily bytes total.
    pub scaled_daily_bytes: f64,
    /// Hourly usage curve (the Fig 1 regeneration).
    pub hours: Vec<HourPoint>,
    /// FNV-1a digest of the whole stable trace — byte-identical across
    /// replays of the same parameters.
    pub digest: String,
}

impl SimSummary {
    /// Do both latency budgets hold?
    pub fn within_budgets(&self) -> bool {
        self.p99_submit_s <= P99_SUBMIT_BUDGET_S
            && self.p99_activation_s <= P99_ACTIVATION_BUDGET_S
    }
}

/// Run one simulated day. `issue` is the credential issuer placed
/// behind the single-flight cache: `(tenant, virtual_now) ->
/// Ok((credential, expires_at))` — the experiment passes the real
/// online CA, tests pass counting fakes.
pub fn simulate<V, E>(
    p: &SimParams,
    issue: impl Fn(&str, u64) -> Result<(V, u64), E>,
) -> SimSummary
where
    V: Clone,
    E: std::fmt::Display,
{
    assert!(p.capacity_factor > 1.5, "capacity must clear the diurnal peak");
    let fleet = Fleet::generate(&FleetConfig {
        endpoints: p.endpoints,
        tenants: p.tenants,
        seed: p.seed,
        flap_fraction: p.flap_fraction,
    });
    let model = DiurnalModel::with_daily_total(p.sim_jobs_per_day, 3.0, 14.0 * 3_600.0);
    let obs = ig_obs::Obs::new("e15-sim");
    // Payload: (endpoint id, arrival time) — the grant hands back both.
    let sched: FairScheduler<(u32, f64)> = FairScheduler::with_obs(std::sync::Arc::clone(&obs));
    let burst_tenant = tenant_name(p.tenants - 1);
    for i in 0..p.tenants {
        let weight = 1 + (i % 4) as u32;
        let cap =
            if i == p.tenants - 1 { p.burst_queue_cap } else { p.sim_jobs_per_day as usize + 1 };
        let mut share = TenantShare::weighted(weight, cap);
        if i == 3 && p.tenants > 4 {
            // One tenant with a contracted dispatch rate: generous
            // enough to clear its share, tight enough to bite on
            // Poisson spikes.
            let rate = 4.0 * p.sim_jobs_per_day / DAY_S / p.tenants as f64;
            share = share.with_rate(rate, 8.0);
        }
        sched.register(&tenant_name(i), share);
    }
    let cache: CredCache<V, E> = CredCache::with_obs(std::sync::Arc::clone(&obs));
    let ledger = UsageReporter::sharded(16);

    let mut rng = StdRng::seed_from_u64(p.seed ^ 0xA11C_E5EE_D5_u64);
    let capacity_per_s = p.capacity_factor * p.sim_jobs_per_day / DAY_S;
    let day_ticks = (DAY_S / p.tick_s).round() as u64;
    // Post-day drain window: rate-capped stragglers finish here.
    let total_ticks = day_ticks + (21_600.0 / p.tick_s).round() as u64;
    let burst_tick = (14.0 * 3_600.0 / p.tick_s) as u64;

    let mut deferred_arrivals: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut waits: Vec<f64> = Vec::new();
    let mut act_lat: Vec<f64> = Vec::new();
    let mut submitted = 0u64;
    let mut deferred = 0u64;
    let mut issuances = 0u64;
    let mut cache_hits = 0u64;
    let mut carry = 0.0f64;

    let submit_job = |sched: &FairScheduler<(u32, f64)>, ep: u32, tenant: &str, t: f64| {
        match sched.submit(tenant, (ep, t)) {
            Ok(_) => true,
            Err(SchedReject::QueueFull { .. }) => false,
            Err(e @ SchedReject::UnknownTenant { .. }) => panic!("sim misconfigured: {e}"),
        }
    };

    for tick in 0..total_ticks {
        let t = tick as f64 * p.tick_s;
        // Chaos re-arrivals: jobs whose endpoint was down, retrying at
        // the outage's end.
        if let Some(eps) = deferred_arrivals.remove(&tick) {
            for ep_id in eps {
                let ep = &fleet.endpoints[ep_id as usize];
                if submit_job(&sched, ep_id, &tenant_name(ep.tenant as usize), t) {
                    submitted += 1;
                }
            }
        }
        // Fresh arrivals follow the diurnal curve for the day only.
        if tick < day_ticks {
            let n = model.arrivals(t, p.tick_s, &mut rng);
            for _ in 0..n {
                let ep = &fleet.endpoints[rng.gen_range(0..fleet.len())];
                if !ep.is_up(t) {
                    // Endpoint mid-outage: retry when it comes back.
                    let back = ep
                        .outages
                        .iter()
                        .find(|&&(a, b)| (a..b).contains(&t))
                        .map_or(t + p.tick_s, |&(_, b)| b);
                    let back_tick = (back / p.tick_s).ceil() as u64 + 1;
                    deferred_arrivals.entry(back_tick).or_default().push(ep.id);
                    deferred += 1;
                    continue;
                }
                if submit_job(&sched, ep.id, &tenant_name(ep.tenant as usize), t) {
                    submitted += 1;
                }
            }
            if tick == burst_tick {
                // The chaos burst: one tenant floods its bounded queue
                // at the diurnal peak; overflow must reject, typed.
                for _ in 0..p.burst_jobs {
                    let ep = &fleet.endpoints[rng.gen_range(0..fleet.len())];
                    if submit_job(&sched, ep.id, &burst_tenant, t) {
                        submitted += 1;
                    }
                }
            }
        }
        // Dispatch up to this tick's service capacity, spreading grant
        // times across the tick so waits resolve below tick width.
        let mut budget = carry + capacity_per_s * p.tick_s;
        let mut k = 0u64;
        while budget >= 1.0 {
            let Some(grant) = sched.dispatch(t) else { break };
            budget -= 1.0;
            k += 1;
            let grant_t = t + k as f64 / capacity_per_s;
            let (ep_id, arrived_t) = grant.payload;
            waits.push(grant_t - arrived_t);
            // Activation through the single-flight credential cache.
            let (cred, outcome) =
                cache.get_or_issue(&grant.tenant, CRED_LIFETIME_S, grant_t as u64, || {
                    issue(&grant.tenant, grant_t as u64)
                });
            if let Err(e) = cred {
                panic!("in-sim issuance failed for {}: {e}", grant.tenant);
            }
            let act = match outcome {
                Outcome::Hit => {
                    cache_hits += 1;
                    ACT_HIT_S
                }
                Outcome::Coalesced => ACT_COALESCED_S,
                Outcome::Issued => {
                    issuances += 1;
                    ACT_ISSUE_S
                }
            };
            act_lat.push(act);
            // The transfer itself: one representative transfer's bytes
            // and duration on the endpoint's WAN link; the record is
            // scaled back up to real-fleet magnitude.
            let ep = &fleet.endpoints[ep_id as usize];
            let bytes_one = 1e5 * 4_000.0_f64.powf(rng.gen::<f64>());
            let duration = bytes_one / (ep.link.bandwidth_bps / 8.0) + ep.link.rtt_s;
            let done = grant_t + act + duration;
            ledger.record_on(
                ep_id as usize,
                TransferRecord {
                    timestamp: done as u64,
                    bytes: bytes_one as u64 * p.scale,
                    user: grant.tenant,
                    inbound: grant.id % 2 == 0,
                    streams: 4,
                },
            );
        }
        carry = budget.min(capacity_per_s * p.tick_s);
    }
    assert_eq!(sched.queued_total(), 0, "drain window left jobs queued");

    let granted = obs.metrics().counter_value("gol.sched.grants");
    let rejects = obs.metrics().counter_value("gol.sched.rejects");
    let p99_submit_s = p99(&mut waits);
    let p99_activation_s = p99(&mut act_lat);
    let hours: Vec<HourPoint> = ledger
        .aggregate(3_600)
        .iter()
        .map(|b| HourPoint {
            start_s: b.start,
            transfers: b.transfers as f64 * p.scale as f64,
            tb: b.bytes as f64 / 1e12,
        })
        .collect();
    let scaled_daily_transfers = hours.iter().map(|h| h.transfers).sum();
    let scaled_daily_bytes = ledger.total_bytes() as f64;

    let mut trace = String::new();
    let _ = write!(
        trace,
        "e15 seed={} endpoints={} tenants={} jobs={} scale={} sub={submitted} \
         gr={granted} rej={rejects} def={deferred} iss={issuances} hit={cache_hits} \
         p99s={p99_submit_s:.3} p99a={p99_activation_s:.3}",
        p.seed, p.endpoints, p.tenants, p.sim_jobs_per_day, p.scale,
    );
    for h in &hours {
        let _ = write!(trace, " {}:{:.0}:{:.3}", h.start_s, h.transfers, h.tb);
    }

    SimSummary {
        submitted,
        granted,
        rejects,
        deferred,
        issuances,
        cache_hits,
        p99_submit_s,
        p99_activation_s,
        scaled_daily_transfers,
        scaled_daily_bytes,
        hours,
        digest: format!("e15:{:08x}", fnv1a(trace.as_bytes())),
    }
}

/// FNV-1a/32: the trace digest is a fingerprint, not a security boundary.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h, &b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

/// p99 by sorting (destructive; fine for one-shot summaries).
fn p99(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    xs[(xs.len() * 99 / 100).min(xs.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fake CA: hands out string credentials, counts issuances.
    fn fake_issuer(
        count: &AtomicU64,
    ) -> impl Fn(&str, u64) -> Result<(String, u64), String> + '_ {
        move |tenant, now| {
            count.fetch_add(1, Ordering::SeqCst);
            Ok((format!("cred-{tenant}-{now}"), now + CRED_LIFETIME_S))
        }
    }

    #[test]
    fn replay_is_byte_identical_and_seed_sensitive() {
        let issued = AtomicU64::new(0);
        let a = simulate(&SimParams::smoke(0xE15), fake_issuer(&issued));
        let b = simulate(&SimParams::smoke(0xE15), fake_issuer(&issued));
        assert_eq!(a.digest, b.digest, "same seed must replay byte-identically");
        assert_eq!(a.granted, b.granted);
        assert_eq!(a.rejects, b.rejects);
        let c = simulate(&SimParams::smoke(0xE15 + 1), fake_issuer(&issued));
        assert_ne!(a.digest, c.digest, "different seed must change the trace");
    }

    #[test]
    fn budgets_chaos_and_anchors_hold() {
        let issued = AtomicU64::new(0);
        let p = SimParams::smoke(0xE15);
        let s = simulate(&p, fake_issuer(&issued));
        // Every accepted job was eventually granted.
        assert_eq!(s.granted, s.submitted);
        assert!(s.within_budgets(), "p99 {:.1}s / {:.3}s blew budget", s.p99_submit_s, s.p99_activation_s);
        // Chaos actually happened: flaps deferred arrivals, the burst
        // overflowed its bounded queue into typed rejects.
        assert!(s.deferred > 0, "no arrivals hit a downed endpoint");
        assert!(s.rejects > 0, "the peak burst never overflowed the queue");
        // The issuer's own count matches the cache's view, and expiry
        // forced periodic re-issuance (hour-lifetime creds, 24h day).
        assert_eq!(issued.load(Ordering::SeqCst), s.issuances);
        assert!(s.issuances >= p.tenants as u64, "expiry never re-issued");
        assert!(s.issuances <= p.tenants as u64 * 30, "cache never held");
        assert!(s.cache_hits > s.issuances * 4, "cache mostly missed");
        // The scaled workload lands at the paper's 10M/day magnitude.
        let target = p.modeled_daily_transfers();
        assert!(
            (s.scaled_daily_transfers / target - 1.0).abs() < 0.15,
            "scaled daily transfers {:.2e} vs target {target:.2e}",
            s.scaled_daily_transfers
        );
        // Full daily curve, peaking in the configured afternoon.
        assert!(s.hours.len() >= 24, "only {} hourly buckets", s.hours.len());
        let peak = s
            .hours
            .iter()
            .max_by(|a, b| a.transfers.partial_cmp(&b.transfers).unwrap())
            .unwrap();
        let peak_hour = (peak.start_s / 3_600) as i64;
        assert!((10..=20).contains(&peak_hour), "peak landed at hour {peak_hour}");
    }

    #[test]
    fn issuer_failure_panics_with_the_tenant_named() {
        let issued = AtomicU64::new(0);
        let res = std::panic::catch_unwind(|| {
            simulate(&SimParams::smoke(1), |t: &str, _| {
                issued.fetch_add(1, Ordering::SeqCst);
                Err::<(String, u64), String>(format!("CA down for {t}"))
            })
        });
        assert!(res.is_err(), "simulate must refuse to run without credentials");
    }
}
