//! Globus Online integration: Fig 6 (password activation + checkpoint
//! restart) and Fig 7 (OAuth activation).

use ig_gcmu::InstallOptions;
use ig_gol::{GlobusOnline, TransferRequest};
use ig_pki::time::Clock;
use ig_server::dsi::read_all;
use ig_server::UserContext;
use ig_xio::{ChaosConfig, ChaosHook, FaultKind, FaultSpec, Trigger};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const NOW: u64 = 1_900_000_000;

/// A one-shot mid-transfer crash on the source server: the connection
/// resets once `after_bytes` have left it in total. `AfterBytes` counts
/// per link and blocks are dealt round-robin, so each of the transfer's
/// `streams` links is scheduled at its share.
fn crash_after(after_bytes: u64, streams: u64) -> Arc<ChaosHook> {
    let reset = FaultSpec::send(FaultKind::Reset, Trigger::AfterBytes(after_bytes / streams));
    ChaosHook::new(ChaosConfig::single(0x601, reset))
}

fn payload(n: usize) -> Vec<u8> {
    (0..n as u32).map(|i| (i * 17 % 253) as u8).collect()
}

#[test]
fn password_activation_and_managed_transfer() {
    let a = InstallOptions::new("go-a.example.org")
        .account("alice", "pw-a")
        .clock(Clock::Fixed(NOW))
        .seed(11)
        .install()
        .unwrap();
    let b = InstallOptions::new("go-b.example.org")
        .account("alice", "pw-b")
        .clock(Clock::Fixed(NOW))
        .seed(12)
        .install()
        .unwrap();
    let data = payload(80_000);
    let root = UserContext::superuser();
    a.dsi.write(&root, "/home/alice/data.bin", 0, &data).unwrap();

    let go = GlobusOnline::new(Clock::Fixed(NOW), 7_000);
    go.register_gcmu(&a);
    go.register_gcmu(&b);
    // Fig 6 steps: user supplies username/password; GO gets short-term
    // certs. The password transits GO (the concern OAuth removes).
    let audit_a = go.activate_with_password("alice@go", "go-a.example.org", "alice", "pw-a", 3600).unwrap();
    assert!(audit_a.third_party_saw_password());
    assert!(!audit_a.stored_by_service);
    go.activate_with_password("alice@go", "go-b.example.org", "alice", "pw-b", 3600).unwrap();
    // Managed third-party transfer across the two CAs — GO installs the
    // DCSC context automatically (§VIII).
    let result = go
        .submit(
            "alice@go",
            &TransferRequest {
                src_endpoint: "go-a.example.org".into(),
                src_path: "/home/alice/data.bin".into(),
                dst_endpoint: "go-b.example.org".into(),
                dst_path: "/home/alice/data.bin".into(),
                max_retries: 0,
                retry: None,
                opts: None,
            },
        )
        .unwrap();
    assert!(result.completed);
    assert_eq!(result.attempts, 1);
    let alice = UserContext::user("alice");
    let got = read_all(b.dsi.as_ref(), &alice, "/home/alice/data.bin", 1 << 16).unwrap();
    assert_eq!(got, data);
    a.shutdown();
    b.shutdown();
}

#[test]
fn fault_mid_transfer_restarts_from_checkpoint() {
    // Fig 6: "If any failure occurs during the transfer, Globus Online
    // will use the short-term certificate to reauthenticate with the
    // endpoints on the user's behalf and restart the transfer from the
    // last checkpoint."
    let fault = crash_after(100_000, 2); // die halfway
    let a = InstallOptions::new("flaky-a.example.org")
        .account("alice", "pw-a")
        .clock(Clock::Fixed(NOW))
        .seed(21)
        .data_chaos(Arc::clone(&fault))
        .install()
        .unwrap();
    let b = InstallOptions::new("flaky-b.example.org")
        .account("alice", "pw-b")
        .clock(Clock::Fixed(NOW))
        .seed(22)
        .install()
        .unwrap();
    let data = payload(200_000);
    let root = UserContext::superuser();
    a.dsi.write(&root, "/home/alice/big.bin", 0, &data).unwrap();

    let go = GlobusOnline::new(Clock::Fixed(NOW), 8_000);
    go.register_gcmu(&a);
    go.register_gcmu(&b);
    go.activate_with_password("u", "flaky-a.example.org", "alice", "pw-a", 3600).unwrap();
    go.activate_with_password("u", "flaky-b.example.org", "alice", "pw-b", 3600).unwrap();
    let result = go
        .submit(
            "u",
            &TransferRequest {
                src_endpoint: "flaky-a.example.org".into(),
                src_path: "/home/alice/big.bin".into(),
                dst_endpoint: "flaky-b.example.org".into(),
                dst_path: "/home/alice/big.bin".into(),
                max_retries: 3,
                retry: None,
                opts: Some(ig_client::TransferOpts::default().parallel(2).block(8 * 1024)),
            },
        )
        .unwrap();
    assert!(result.completed);
    assert_eq!(result.attempts, 2, "one fault, one successful retry");
    assert_eq!(fault.total_fires(), 1);
    assert!(result.checkpoint.is_complete(data.len() as u64));
    let alice = UserContext::user("alice");
    let got = read_all(b.dsi.as_ref(), &alice, "/home/alice/big.bin", 1 << 16).unwrap();
    assert_eq!(got, data, "reassembled file must be byte-identical");
    // The event log recorded both the failure and the recovery.
    let events = go.events.lock().join("\n");
    assert!(events.contains("attempt 1 failed"), "events: {events}");
    assert!(events.contains("complete after 2 attempt"), "events: {events}");
    a.shutdown();
    b.shutdown();
}

#[test]
fn transfer_without_retry_fails_and_reports() {
    let fault = crash_after(10_000, 1);
    let a = InstallOptions::new("once-a.example.org")
        .account("alice", "pw")
        .clock(Clock::Fixed(NOW))
        .seed(31)
        .data_chaos(fault)
        .install()
        .unwrap();
    let b = InstallOptions::new("once-b.example.org")
        .account("alice", "pw")
        .clock(Clock::Fixed(NOW))
        .seed(32)
        .install()
        .unwrap();
    let root = UserContext::superuser();
    a.dsi.write(&root, "/home/alice/f.bin", 0, &payload(100_000)).unwrap();
    let go = GlobusOnline::new(Clock::Fixed(NOW), 9_000);
    go.register_gcmu(&a);
    go.register_gcmu(&b);
    go.activate_with_password("u", "once-a.example.org", "alice", "pw", 3600).unwrap();
    go.activate_with_password("u", "once-b.example.org", "alice", "pw", 3600).unwrap();
    let err = go
        .submit(
            "u",
            &TransferRequest {
                src_endpoint: "once-a.example.org".into(),
                src_path: "/home/alice/f.bin".into(),
                dst_endpoint: "once-b.example.org".into(),
                dst_path: "/home/alice/f.bin".into(),
                max_retries: 0,
                retry: None,
                opts: Some(ig_client::TransferOpts::default().block(4 * 1024)),
            },
        )
        .unwrap_err();
    assert!(err.to_string().contains("after 1 attempts"), "got: {err}");
    a.shutdown();
    b.shutdown();
}

#[test]
fn expired_credential_reactivates_and_resumes_from_checkpoint() {
    // Fig 6 past the certificate lifetime: the short-term credential GO
    // stored has expired by the time the transfer (re)starts, so GO must
    // reauthenticate — mint a fresh credential via the registered
    // reactivation hook — and then restart from the last checkpoint.
    //
    // Clock arrangement: the endpoints sit at `NOW`, GO's clock runs two
    // hours ahead. A 1-hour credential is expired from GO's point of
    // view while a 3-hour credential still has an hour left.
    let fault = crash_after(100_000, 2);
    let a = InstallOptions::new("stale-a.example.org")
        .account("alice", "pw-a")
        .clock(Clock::Fixed(NOW))
        .seed(61)
        .data_chaos(Arc::clone(&fault))
        .install()
        .unwrap();
    let b = InstallOptions::new("stale-b.example.org")
        .account("alice", "pw-b")
        .clock(Clock::Fixed(NOW))
        .seed(62)
        .install()
        .unwrap();
    let data = payload(200_000);
    let root = UserContext::superuser();
    a.dsi.write(&root, "/home/alice/big.bin", 0, &data).unwrap();

    let go = GlobusOnline::new(Clock::Fixed(NOW + 7200), 12_000);
    go.register_gcmu(&a);
    go.register_gcmu(&b);
    // Long-lived credentials first — these are what the reactivation
    // hooks will hand back, standing in for a fresh myproxy-logon.
    go.activate_with_password("u", "stale-a.example.org", "alice", "pw-a", 10_800).unwrap();
    go.activate_with_password("u", "stale-b.example.org", "alice", "pw-b", 10_800).unwrap();
    let fresh_a = go.activation("u", "stale-a.example.org").unwrap();
    let fresh_b = go.activation("u", "stale-b.example.org").unwrap();
    assert!(fresh_a.remaining(NOW + 7200) > 0);
    // Now overwrite the stored activations with 1-hour credentials that
    // are already expired on GO's clock.
    go.activate_with_password("u", "stale-a.example.org", "alice", "pw-a", 3600).unwrap();
    go.activate_with_password("u", "stale-b.example.org", "alice", "pw-b", 3600).unwrap();
    assert_eq!(go.activation("u", "stale-a.example.org").unwrap().remaining(NOW + 7200), 0);

    let react_a = Arc::new(AtomicU32::new(0));
    let react_b = Arc::new(AtomicU32::new(0));
    {
        let n = Arc::clone(&react_a);
        go.set_reactivator(
            "u",
            "stale-a.example.org",
            Arc::new(move || {
                n.fetch_add(1, Ordering::SeqCst);
                Ok(fresh_a.clone())
            }),
        );
        let n = Arc::clone(&react_b);
        go.set_reactivator(
            "u",
            "stale-b.example.org",
            Arc::new(move || {
                n.fetch_add(1, Ordering::SeqCst);
                Ok(fresh_b.clone())
            }),
        );
    }

    let result = go
        .submit(
            "u",
            &TransferRequest {
                src_endpoint: "stale-a.example.org".into(),
                src_path: "/home/alice/big.bin".into(),
                dst_endpoint: "stale-b.example.org".into(),
                dst_path: "/home/alice/big.bin".into(),
                max_retries: 0,
                retry: Some(ig_gol::RetryPolicy::immediate(4)),
                opts: Some(ig_client::TransferOpts::default().parallel(2).block(8 * 1024)),
            },
        )
        .unwrap();
    assert!(result.completed);
    assert_eq!(result.attempts, 2, "one fault, one successful retry");
    assert_eq!(fault.total_fires(), 1);
    // Each endpoint reactivated exactly once (attempt 1); the fresh
    // credentials were stored, so the retry reused them.
    assert_eq!(react_a.load(Ordering::SeqCst), 1);
    assert_eq!(react_b.load(Ordering::SeqCst), 1);
    let alice = UserContext::user("alice");
    let got = read_all(b.dsi.as_ref(), &alice, "/home/alice/big.bin", 1 << 16).unwrap();
    assert_eq!(got, data, "reassembled file must be byte-identical");
    let events = go.events.lock().join("\n");
    assert!(events.contains("reactivated stale-a.example.org"), "events: {events}");
    assert!(events.contains("reactivated stale-b.example.org"), "events: {events}");
    assert!(events.contains("attempt 1 failed"), "events: {events}");
    a.shutdown();
    b.shutdown();
}

#[test]
fn expired_credential_without_reactivator_is_a_typed_error() {
    let a = InstallOptions::new("dead-a.example.org")
        .account("alice", "pw")
        .clock(Clock::Fixed(NOW))
        .seed(71)
        .install()
        .unwrap();
    let go = GlobusOnline::new(Clock::Fixed(NOW + 7200), 13_000);
    go.register_gcmu(&a);
    go.activate_with_password("u", "dead-a.example.org", "alice", "pw", 3600).unwrap();
    let err = go
        .submit(
            "u",
            &TransferRequest {
                src_endpoint: "dead-a.example.org".into(),
                src_path: "/x".into(),
                dst_endpoint: "dead-a.example.org".into(),
                dst_path: "/y".into(),
                max_retries: 0,
                retry: None,
                opts: None,
            },
        )
        .unwrap_err();
    assert!(
        matches!(err, ig_gol::GolError::CredentialExpired { .. }),
        "got: {err}"
    );
    assert!(err.to_string().contains("expired and cannot reactivate"), "got: {err}");
    a.shutdown();
}

#[test]
fn oauth_activation_keeps_password_at_the_endpoint() {
    // Fig 7: the user types the password on the endpoint's page; GO only
    // ever sees the authorization code.
    let a = InstallOptions::new("oauth-ep.example.org")
        .account("alice", "web-pw")
        .clock(Clock::Fixed(NOW))
        .seed(41)
        .oauth()
        .install()
        .unwrap();
    let go = GlobusOnline::new(Clock::Fixed(NOW), 10_000);
    go.register_gcmu(&a);
    // The "browser redirect": user authenticates at the endpoint.
    let code = a
        .oauth
        .as_ref()
        .expect("oauth enabled")
        .authorize("alice", "web-pw", "globus-online")
        .unwrap();
    let audit = go.activate_with_oauth("alice@go", "oauth-ep.example.org", &code, 3600).unwrap();
    assert!(!audit.third_party_saw_password(), "OAuth must keep the password at the endpoint");
    // The activation is usable for real sessions.
    let act = go.activation("alice@go", "oauth-ep.example.org").unwrap();
    assert!(act.remaining(NOW) > 0);
    assert_eq!(act.credential.identity().common_name(), Some("alice"));
    // A second use of the same code fails (single-use).
    assert!(go.activate_with_oauth("alice@go", "oauth-ep.example.org", &code, 3600).is_err());
    a.shutdown();
}

#[test]
fn activation_failures_are_reported() {
    let a = InstallOptions::new("strict.example.org")
        .account("alice", "right")
        .clock(Clock::Fixed(NOW))
        .seed(51)
        .install()
        .unwrap();
    let go = GlobusOnline::new(Clock::Fixed(NOW), 11_000);
    go.register_gcmu(&a);
    assert!(go
        .activate_with_password("u", "strict.example.org", "alice", "wrong", 3600)
        .is_err());
    assert!(go.activate_with_password("u", "nowhere.example.org", "a", "b", 3600).is_err());
    assert!(go.activation("u", "strict.example.org").is_err());
    // Submitting without activation is refused.
    let err = go
        .submit(
            "u",
            &TransferRequest {
                src_endpoint: "strict.example.org".into(),
                src_path: "/x".into(),
                dst_endpoint: "strict.example.org".into(),
                dst_path: "/y".into(),
                max_retries: 0,
                retry: None,
                opts: None,
            },
        )
        .unwrap_err();
    assert!(err.to_string().contains("not activated"));
    a.shutdown();
}
