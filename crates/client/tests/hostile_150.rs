//! What `get_bytes` and `get_partial` make of the opening reply of a server
//! that is not ours.
//!
//! The client reads a file's length off its 150 (`… (4096 bytes).`) and
//! holds what arrived to it. The 150 is text from a socket (three digits,
//! then anything): a stock server may put no figure there, a broken or
//! hostile one any figure. Each case below is a scripted server — plain
//! control lines over a pipe, MODE E by hand over TCP, no GSI — whose 150
//! says what the case wants while the data channel carries the honest
//! file. Every outcome is `Ok` or a typed error, nothing is sized from the
//! figure, and the session fetches the next file as if nothing had been.

use ig_client::{transfer, ClientConfig, ClientError, ClientSession, RetryPolicy, TransferOpts};
use ig_pki::TrustStore;
use ig_protocol::command::DcauMode;
use ig_protocol::mode_e::Block;
use ig_protocol::HostPort;
use ig_xio::{pipe, Link, PipeLink, TcpLink};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const PATH: &str = "/pub/f(9 bytes).bin";

fn file() -> Vec<u8> {
    (0..4096u32).map(|i| (i * 7 % 251) as u8).collect()
}

/// The verbs the server saw, in order.
type Seen = Arc<Mutex<Vec<String>>>;

/// Serve one control connection the way a stock MODE E server would,
/// except that transfer number `k` opens with `openings[k]` (`{}` standing
/// for the file's real length); past the script's end the 150 is honest.
/// Data channels outlive a transfer and carry the next, as ours do.
fn stock_server(mut control: PipeLink, openings: Vec<&'static str>, seen: Seen) {
    let mut openings = openings.into_iter();
    let mut opening = move |len: usize| {
        let text = openings.next().unwrap_or("Opening BINARY mode data connection ({} bytes).");
        format!("150 {}\r\n", text.replace("{}", &len.to_string()))
    };
    let reply = |control: &mut PipeLink, line: String| control.send(line.as_bytes()).unwrap();
    let mut target: Option<HostPort> = None;
    let mut listening: Option<TcpListener> = None;
    let mut data: Option<TcpLink> = None;
    reply(&mut control, "220 stock FTP server ready\r\n".into());
    while let Ok(line) = control.recv() {
        let line = String::from_utf8(line).unwrap();
        let line = line.trim_end();
        let (verb, arg) = line.split_once(' ').unwrap_or((line, ""));
        seen.lock().unwrap().push(verb.to_string());
        match verb {
            "MODE" | "DCAU" => reply(&mut control, "200 OK\r\n".into()),
            "PORT" => {
                (target, data) = (Some(HostPort::parse(arg).unwrap()), None);
                reply(&mut control, "200 PORT command successful\r\n".into());
            }
            "PASV" => {
                let l = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = HostPort::from_socket_addr(l.local_addr().unwrap()).unwrap();
                (listening, data) = (Some(l), None);
                reply(&mut control, format!("227 Entering Passive Mode ({addr})\r\n"));
            }
            "SIZE" => reply(&mut control, format!("213 {}\r\n", file().len())),
            "RETR" | "ERET" => {
                // `ERET P <offset>,<length> <path>`; a `RETR` is the whole file.
                let range = arg.strip_prefix("P ").and_then(|a| a.split_once(' ')?.0.split_once(','));
                let (offset, length) = range.map_or((0, file().len()), |(offset, length)| {
                    (offset.parse().unwrap(), length.parse().unwrap())
                });
                let mut link = data.take().unwrap_or_else(|| {
                    TcpLink::connect(target.take().unwrap().to_socket_addr()).unwrap()
                });
                reply(&mut control, opening(length));
                let part = file()[offset..offset + length].to_vec();
                link.send(&Block::eof_count(1).encode()).unwrap();
                link.send(&Block::data(offset as u64, part).encode()).unwrap();
                link.send(&Block::eod().encode()).unwrap();
                data = Some(link);
                reply(&mut control, "226 Transfer complete\r\n".into());
            }
            "STOR" => {
                reply(&mut control, opening(0));
                let mut link = data.take().unwrap_or_else(|| {
                    TcpLink::new(listening.take().unwrap().accept().unwrap().0)
                });
                while !Block::decode(&link.recv().unwrap()).unwrap().is_eod() {}
                data = Some(link);
                reply(&mut control, "226 Transfer complete\r\n".into());
            }
            "QUIT" => {
                reply(&mut control, "221 Goodbye\r\n".into());
                return;
            }
            other => reply(&mut control, format!("500 {other} not understood\r\n")),
        }
    }
}

/// A session with a scripted server behind it, unauthenticated (so control
/// lines go in the clear) and with data-channel authentication off.
fn session(openings: Vec<&'static str>) -> (ClientSession, Seen, std::thread::JoinHandle<()>) {
    let seen: Seen = Arc::default();
    let (ours, theirs) = pipe();
    let server = {
        let seen = Arc::clone(&seen);
        std::thread::spawn(move || stock_server(theirs, openings, seen))
    };
    let mut rng = ig_crypto::rng::seeded(0x150);
    let (_, credential) =
        ig_gsi::context::test_support::ca_and_credential(&mut rng, "/O=CA", "/CN=nobody");
    let cfg = ClientConfig::new(credential, TrustStore::new())
        .with_retry(RetryPolicy::once().with_attempt_timeout(Some(Duration::from_secs(10))))
        .with_obs(ig_obs::Obs::new("hostile-150"));
    let mut session = ClientSession::from_link(Box::new(ours), cfg).unwrap();
    session.set_dcau(DcauMode::None).unwrap();
    (session, seen, server)
}

fn opts() -> TransferOpts {
    TransferOpts::default().timeout(Some(Duration::from_secs(10)))
}

/// Fetch the file from a server whose first 150 reads `opening`, then fetch
/// it again behind an honest 150. Returns the first outcome and the verbs
/// the server saw from the first `RETR` on.
fn fetch_behind(opening: &'static str) -> (Result<Vec<u8>, ClientError>, Vec<String>) {
    let (mut session, seen, server) = session(vec![opening]);
    let first = transfer::get_bytes(&mut session, PATH, &opts());
    let again = transfer::get_bytes(&mut session, PATH, &opts());
    assert_eq!(again.expect("the next GET on the same session"), file(), "after {opening:?}");
    session.quit().unwrap();
    server.join().unwrap();
    let seen = seen.lock().unwrap();
    let from = seen.iter().position(|v| v == "RETR").unwrap();
    (first, seen[from..].to_vec())
}

fn assert_truncated(outcome: Result<Vec<u8>, ClientError>, says: &str) {
    match outcome {
        Err(ClientError::Truncated(what)) => {
            assert!(what.contains(PATH) && what.contains(says), "{what}")
        }
        other => panic!("expected a truncation saying {says:?}, got {other:?}"),
    }
}

#[test]
fn an_honest_figure_costs_no_size() {
    let (got, verbs) = fetch_behind("Opening BINARY mode data connection ({} bytes).");
    assert_eq!(got.unwrap(), file());
    // Both GETs: the second rides the kept channel, so it is its RETR alone.
    assert_eq!(verbs, ["RETR", "RETR", "QUIT"]);
}

#[test]
fn no_figure_costs_one_size_after_the_transfer() {
    let (got, verbs) = fetch_behind("Opening BINARY mode data connection.");
    assert_eq!(got.unwrap(), file());
    assert_eq!(verbs, ["RETR", "SIZE", "RETR", "QUIT"], "the check is moved, not skipped");
}

#[test]
fn a_figure_that_disagrees_with_what_landed_is_a_truncation() {
    let (got, verbs) = fetch_behind("Opening data connection (4097 bytes).");
    assert_truncated(got, "expected 4097 bytes, received 4096");
    assert_eq!(verbs, ["RETR", "RETR", "QUIT"], "the figure is the server's word: no SIZE");
    let (got, _) = fetch_behind("Opening data connection (0 bytes).");
    assert_truncated(got, "expected 0 bytes, received 4096");
}

#[test]
fn the_largest_figure_allocates_nothing_and_is_a_truncation() {
    let (got, _) = fetch_behind("Opening data connection (18446744073709551615 bytes).");
    assert_truncated(got, "expected 18446744073709551615 bytes");
}

#[test]
fn a_figure_that_is_no_u64_counts_as_none() {
    for opening in [
        "Opening data connection (-4096 bytes).",
        "Opening data connection (18446744073709551616 bytes).",
        "Opening data connection (+{} bytes).",
        "Opening data connection (4 096 bytes).",
    ] {
        let (got, verbs) = fetch_behind(opening);
        assert_eq!(got.unwrap(), file(), "{opening:?}");
        assert_eq!(verbs, ["RETR", "SIZE", "RETR", "QUIT"], "{opening:?}");
    }
}

#[test]
fn of_two_parenthesised_groups_the_last_is_the_figure() {
    // A stock server echoes the file name, which may look like a figure.
    let (got, verbs) = fetch_behind("Opening data connection for /pub/f(9 bytes).bin ({} bytes).");
    assert_eq!(got.unwrap(), file());
    assert_eq!(verbs, ["RETR", "RETR", "QUIT"]);
    let (got, _) = fetch_behind("Opening data connection ({} bytes) for /pub/f(9 bytes).bin");
    assert_truncated(got, "expected 9 bytes, received 4096");
}

#[test]
fn a_partial_retrieve_is_held_to_its_150_or_to_one_size() {
    // (the first 150, the outcome behind it, the verbs from the `ERET` on)
    let table: [(&'static str, Result<(), &str>, &[&str]); 3] = [
        ("Opening data connection ({} bytes).", Ok(()), &["ERET", "RETR", "QUIT"]),
        ("Opening data connection.", Ok(()), &["ERET", "SIZE", "RETR", "QUIT"]),
        (
            "Opening data connection (1001 bytes).",
            Err("expected 1001 bytes, received 1000"),
            &["ERET", "RETR", "QUIT"],
        ),
    ];
    for (opening, outcome, verbs) in table {
        let (mut session, seen, server) = session(vec![opening]);
        let part = transfer::get_partial(&mut session, PATH, 3000, 1000, &opts());
        match outcome {
            Ok(()) => assert_eq!(part.unwrap(), file()[3000..4000], "{opening:?}"),
            Err(says) => assert_truncated(part, says),
        }
        assert_eq!(transfer::get_bytes(&mut session, PATH, &opts()).unwrap(), file(), "{opening:?}");
        session.quit().unwrap();
        server.join().unwrap();
        let seen = seen.lock().unwrap();
        let from = seen.iter().position(|v| v == "ERET").unwrap();
        assert_eq!(seen[from..], *verbs, "{opening:?}");
    }
}

#[test]
fn a_figure_on_the_150_of_a_stor_is_ignored() {
    let (mut session, seen, server) = session(vec!["Opening data connection (7 bytes)."]);
    let sent = transfer::put_bytes(&mut session, "/pub/up.bin", &file(), &opts()).unwrap();
    assert_eq!(sent, file().len() as u64);
    assert_eq!(transfer::get_bytes(&mut session, PATH, &opts()).unwrap(), file());
    session.quit().unwrap();
    server.join().unwrap();
    assert!(!seen.lock().unwrap().iter().any(|v| v == "SIZE"), "{seen:?}");
}
