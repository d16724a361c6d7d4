use super::*;
use crate::data::{CachedChannels, ChannelShape, Flow};
use crate::dsi::{memory::MemDsi, Dsi};
use ig_crypto::encode::base64_encode;
use ig_gsi::context::test_support::{ca_and_credential, config_with};
use ig_obs::sync::Mutex;
use ig_pki::TrustStore;
use ig_protocol::markers::PerfMarker;
use ig_protocol::mode_e::Block;
use ig_protocol::{dcsc, HostPort};
use ig_xio::TcpLink;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// A control link that keeps what is sent on it and says, for the
/// first `blocked` times it is asked, that a send would have to wait.
struct FullFor {
    blocked: AtomicU32,
    sent: Sent,
}

type Sent = Arc<Mutex<Vec<Vec<u8>>>>;

impl Link for FullFor {
    fn send(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.sent.lock().push(data.to_vec());
        Ok(())
    }
    fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
    fn close(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn send_would_block(&self) -> bool {
        let decrement = |left: u32| left.checked_sub(1);
        self.blocked.fetch_update(Ordering::Relaxed, Ordering::Relaxed, decrement).is_ok()
    }
}

#[test]
fn a_112_the_control_link_has_no_room_for_is_skipped_unsealed() {
    // A secured session past its login, with `PORT` given: what
    // `AUTH`/`ADAT`, `DCAU N`, `MODE E` and `PORT` would have left.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x112);
    let (ca, host) = ca_and_credential(&mut rng, "/O=CA", "/CN=host");
    let (client, server) = ig_gsi::handshake::pump(
        config_with(Some(host.clone()), &[&ca], true),
        config_with(Some(host.clone()), &[&ca], true),
        &mut rng,
    )
    .unwrap();
    let mut client = SecureContext::from_established(client);
    let dsi = MemDsi::new();
    // 1 KiB blocks at 100 kB/s, 32 of them past the throttle's 16 KiB
    // burst: a block every 10 ms for 0.3 s, six marker periods.
    let file = vec![5u8; 48 * 1024];
    dsi.put("/home/alice/f", &file);
    let obs = ig_obs::Obs::new("advisory-112");
    let config = ServerConfig::new(
        "host",
        host,
        TrustStore::new(),
        Arc::new(crate::authz::GcmuAuthz::new("host")),
        Arc::new(dsi),
    )
    .with_stripes(1, Some(100_000.0))
    .with_block_size(1024)
    .with_obs(Arc::clone(&obs));
    let sink = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let mut session = Session::new(Arc::new(config), rng);
    let mut a = Authed::new(SecureContext::from_established(server), "alice");
    a.dcau = DcauMode::None;
    a.mode = ModeCode::Extended;
    let sink_addr = HostPort::from_socket_addr(sink.local_addr().unwrap()).unwrap();
    a.channels = Channels::Targets(vec![sink_addr]);
    session.login = Login::Authed(Box::new(a));

    let sent = Arc::new(Mutex::new(Vec::new()));
    let mut link: Box<dyn Link> =
        Box::new(FullFor { blocked: AtomicU32::new(2), sent: Arc::clone(&sent) });
    let retr = secure_line::protect_command(
        &mut client,
        ProtectedKind::Enc,
        &Command::Retr("/home/alice/f".into()),
    );
    session.process_message(&mut link, retr.to_string().into_bytes()).unwrap();

    // The data arrived whole (loopback buffered it; nobody had to read).
    let mut peer = TcpLink::new(sink.accept().unwrap().0);
    let mut got = 0;
    loop {
        let block = Block::decode(&peer.recv().unwrap()).unwrap();
        got += block.payload.len();
        if block.is_eod() {
            break;
        }
    }
    assert_eq!(got, file.len());
    // Every reply that was sealed was sent: the client's context opens
    // them all, in order, with no sequence number missing.
    let replies: Vec<Reply> = sent
        .lock()
        .iter()
        .map(|wire| {
            let sealed = Reply::parse(std::str::from_utf8(wire).unwrap()).unwrap();
            secure_line::unprotect_reply(&mut client, &sealed).expect("dense sequence numbers")
        })
        .collect();
    let codes: Vec<u16> = replies.iter().map(|r| r.code).collect();
    assert_eq!(codes.first(), Some(&150), "{codes:?}");
    assert_eq!(codes.last(), Some(&226), "{codes:?}");
    let markers: Vec<u64> = replies
        .iter()
        .filter(|r| r.code == 112)
        .map(|r| PerfMarker::from_reply(r).unwrap().stripe_bytes)
        .collect();
    assert_eq!(codes.len(), markers.len() + 2, "{codes:?}");
    // Two periods' markers were skipped, not queued: the series starts
    // late, still rises, and ends at the file's size.
    assert!(markers.len() >= 2 && markers.windows(2).all(|w| w[0] < w[1]), "{markers:?}");
    assert!(markers[0] > 16 * 1024, "{markers:?}");
    assert_eq!(markers.last(), Some(&(file.len() as u64)), "{markers:?}");
    assert_eq!(obs.metrics().counter_value("server.reply_112"), markers.len() as u64);
}

// ---- The table: every state × every verb -----------------------------
//
// One sweep, no proptest: each line below is given to a session in each
// of seven states, and what came back — who answered, with which reply
// codes, and the state the session was left in — is compared with the
// literal `TABLE`. A cell reads `<who><codes>/<state after>`:
//
// * who: `D` the decoder refused the line (nothing was dispatched), `R`
//   a verb's one reply, `Q` a reply and the end of the session, `T` a
//   transfer (its opening and terminal replies; 111/112 markers left
//   out), `F` a session-fatal error (the 421 is the last code);
// * state: `F` fresh, `H` handshaking, and once logged in the data
//   channels — `N` none, `L` listening, `T` targets, `K` kept — with an
//   `r` when a `REST` is pending.
//
// The same seven tags, in this order, are the columns.
const STATES: [&str; 7] = ["F", "H", "N", "L", "T", "K", "Nr"];

/// `PORT` to a port nothing listens on: a connect is refused at once.
const DEAD: &str = "127,0,0,1,0,1";

enum Line {
    Text(&'static str),
    Bytes(&'static [u8]),
    /// The first token of a real handshake, as `ADAT <base64>`.
    Adat,
    /// A well-formed `DCSC P <blob>` carrying the host credential.
    DcscP,
    /// `ENC AAAA`, sealed by the client in the `ENC` envelope every
    /// command of a logged-in session travels in.
    Nested,
}

struct Fixture {
    host: Credential,
    server: ig_gsi::context::Established,
    client: ig_gsi::context::Established,
    adat: String,
    dcsc_p: String,
}

fn again(est: &ig_gsi::context::Established) -> SecureContext {
    SecureContext::from_established(ig_gsi::context::Established {
        role: est.role,
        keys: est.keys.clone(),
        peer: est.peer.clone(),
    })
}

impl Fixture {
    fn new() -> Fixture {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7ab1e);
        let (ca, host) = ca_and_credential(&mut rng, "/O=CA", "/CN=host");
        let gsi = || config_with(Some(host.clone()), &[&ca], true);
        let (client, server) = ig_gsi::handshake::pump(gsi(), gsi(), &mut rng).unwrap();
        let (_, hello) = ig_gsi::handshake::Initiator::start(gsi(), &mut rng);
        let adat = format!("ADAT {}", base64_encode(&hello));
        let dcsc_p = dcsc::encode_dcsc_p(&host).to_string();
        Fixture { host, server, client, adat, dcsc_p }
    }

    /// A server of its own for every cell: `DELE` and `STOR` really do
    /// change the store.
    fn config(&self) -> Arc<ServerConfig> {
        let dsi = MemDsi::new();
        dsi.put("/home/alice/f", &[7u8; 3000]);
        dsi.put("/home/alice/d/g", &[9u8; 500]);
        let root = UserContext::superuser();
        dsi.mkdir(&root, "/home/alice/e").unwrap();
        let mut config = ServerConfig::new(
            "host",
            self.host.clone(),
            TrustStore::new(),
            Arc::new(crate::authz::GcmuAuthz::new("host")),
            Arc::new(dsi),
        )
        .with_stripes(2, None)
        .with_block_size(1024)
        .with_stall_timeout(Duration::from_millis(30))
        .with_obs(ig_obs::Obs::new("sweep"));
        config.key_bits = 512;
        Arc::new(config)
    }

    fn bytes(&self, line: &Line, client: &mut SecureContext) -> Vec<u8> {
        match line {
            Line::Text(t) => t.as_bytes().to_vec(),
            Line::Bytes(b) => b.to_vec(),
            Line::Adat => self.adat.clone().into_bytes(),
            Line::DcscP => self.dcsc_p.clone().into_bytes(),
            Line::Nested => {
                let inner = Command::Protected { kind: ProtectedKind::Enc, payload: "AAAA".into() };
                let sealed = secure_line::protect_command(client, ProtectedKind::Enc, &inner);
                sealed.to_string().into_bytes()
            }
        }
    }
}

/// The line as `TABLE` spells it.
fn literal(line: &Line) -> String {
    match line {
        Line::Text(t) => format!("Text({t:?})"),
        Line::Bytes(b) => format!("Bytes(b\"{}\")", b.escape_ascii()),
        Line::Adat => "Adat".into(),
        Line::DcscP => "DcscP".into(),
        Line::Nested => "Nested".into(),
    }
}

/// A control link that takes every send, and what was sent on it.
fn recorder() -> (Box<dyn Link>, Sent) {
    let sent = Arc::new(Mutex::new(Vec::new()));
    (Box::new(FullFor { blocked: AtomicU32::new(0), sent: Arc::clone(&sent) }), sent)
}

/// Put a new session into the state of column `from`. What it returns
/// is the far end of whatever data channels the state holds.
fn enter(
    fx: &Fixture,
    config: &Arc<ServerConfig>,
    from: &str,
) -> (Session<rand::rngs::StdRng>, Option<ig_xio::PipeLink>) {
    let mut s = Session::new(Arc::clone(config), rand::rngs::StdRng::seed_from_u64(7));
    match from {
        "F" => return (s, None),
        "H" => {
            s.step(Command::Auth("GSSAPI".into())).unwrap();
            return (s, None);
        }
        _ => {}
    }
    let mut a = Authed::new(again(&fx.server), "alice");
    a.mode = ModeCode::Extended;
    let mut far = None;
    match from {
        "N" => {}
        "L" => a.channels = Channels::Listening(vec![DataListener::bind(config.data_ip).unwrap()]),
        "T" => a.channels = Channels::Targets(vec![HostPort::parse(DEAD).unwrap()]),
        "K" => {
            let (near, peer) = ig_xio::pipe();
            let shape = ChannelShape { flow: Flow::Send, mode: a.mode, parallelism: 1 };
            let kept =
                CachedChannels::keep(vec![Box::new(near)], shape, a.data_stack(config)).unwrap();
            a.channels = Channels::Kept(kept);
            far = Some(peer);
        }
        "Nr" => {
            let mut have = ByteRanges::new();
            have.add(0, 100);
            a.restart = Some(have);
        }
        other => panic!("no such state {other}"),
    }
    s.login = Login::Authed(Box::new(a));
    (s, far)
}

/// The state tag of a session, in the notation of `STATES`.
fn state_of(s: &Session<rand::rngs::StdRng>) -> String {
    let a = match &s.login {
        Login::Fresh => return "F".into(),
        Login::Handshaking(_) => return "H".into(),
        Login::Authed(a) => a,
    };
    let channels = match a.channels {
        Channels::None => "N",
        Channels::Listening(_) => "L",
        Channels::Targets(_) => "T",
        Channels::Kept(_) => "K",
    };
    format!("{channels}{}", if a.restart.is_some() { "r" } else { "" })
}

/// Give `line` to a session in state `from`: one cell of the table. Twice
/// over: to `decode` and `step` alone, with no link to answer on, and to
/// `process_message` as the reactor would. Who answers is read off the
/// first, the codes and the state left behind off the second, and where a
/// verb has one reply the two must agree on all of it.
fn cell(fx: &Fixture, from: &str, line: &Line) -> String {
    let config = fx.config();
    let (mut s, _far) = enter(fx, &config, from);
    let stepped = s
        .decode(fx.bytes(line, &mut again(&fx.client)))
        .map(|(cmd, _)| s.step(cmd).expect("no row of the sweep fails the host"));
    let state_stepped = state_of(&s);

    let config = fx.config();
    let (mut s, _far) = enter(fx, &config, from);
    let mut client = again(&fx.client);
    let (mut link, sent) = recorder();
    let result = s.process_message(&mut link, fx.bytes(line, &mut client));
    let dispatched = config.obs.metrics().counter_value("server.commands");
    let codes: Vec<u16> = sent
        .lock()
        .iter()
        .map(|wire| Reply::parse(std::str::from_utf8(wire).unwrap()).unwrap())
        .map(|r| match r.code {
            631..=633 => secure_line::unprotect_reply(&mut client, &r).unwrap().code,
            code => code,
        })
        .filter(|code| !matches!(code, 111 | 112))
        .collect();
    let state = state_of(&s);
    let who = match (&stepped, &result) {
        (Err(refusal), Ok(LoopControl::Continue)) => {
            assert_eq!((codes.as_slice(), dispatched), ([refusal.code].as_slice(), 0));
            'D'
        }
        (Ok(Outcome::Reply(reply)), Ok(LoopControl::Continue)) => {
            assert_eq!((codes.as_slice(), &state), ([reply.code].as_slice(), &state_stepped));
            'R'
        }
        (Ok(Outcome::Quit(reply)), Ok(LoopControl::Quit)) => {
            assert_eq!((codes.as_slice(), &state), ([reply.code].as_slice(), &state_stepped));
            'Q'
        }
        (Ok(Outcome::Transfer(_)), Ok(LoopControl::Continue)) => 'T',
        (Ok(Outcome::Transfer(_)), Err(_)) => 'F',
        _ => panic!("{} from {from}: `step` and `process_message` disagree", literal(line)),
    };
    let codes: Vec<String> = codes.iter().map(u16::to_string).collect();
    format!("{who}{}/{state}", codes.join("-"))
}

use Line::{Adat, Bytes, DcscP, Nested, Text};

#[rustfmt::skip]
const TABLE: &[(Line, &str)] = &[
    (Text("USER alice"), "R530/F R530/H R230/N R230/L R230/T R230/K R230/Nr"),
    (Text("USER"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("PASS secret"), "R530/F R530/H R230/N R230/L R230/T R230/K R230/Nr"),
    (Text("PASS"), "R530/F R530/H R230/N R230/L R230/T R230/K R230/Nr"),
    (Text("AUTH GSSAPI"), "R334/H R334/H R334/H R334/H R334/H R334/H R334/H"),
    (Text("AUTH KERBEROS"), "R504/F R504/H R504/N R504/L R504/T R504/K R504/Nr"),
    (Adat, "R503/F R335/H R503/N R503/L R503/T R503/K R503/Nr"),
    (Text("ADAT !!!"), "R503/F R535/F R503/N R503/L R503/T R503/K R503/Nr"),
    (Text("TYPE I"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("TYPE X"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("MODE E"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("MODE S"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("MODE Q"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("PASV"), "R530/F R530/H R227/L R227/L R227/L R227/L R227/Lr"),
    (Text("PASV now"), "R530/F R530/H R227/L R227/L R227/L R227/L R227/Lr"),
    (Text("PORT 127,0,0,1,0,1"), "R530/F R530/H R200/T R200/T R200/T R200/T R200/Tr"),
    (Text("PORT 1,2,3"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("SPAS"), "R530/F R530/H R229/L R229/L R229/L R229/L R229/Lr"),
    (Text("SPOR 127,0,0,1,0,1 127,0,0,1,0,1"),
        "R530/F R530/H R200/T R200/T R200/T R200/T R200/Tr"),
    (Text("SPOR"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("RETR /home/alice/f"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/N"),
    (Text("RETR f"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/N"),
    (Text("RETR /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("RETR"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("STOR /home/alice/up"), "R530/F R530/H T425/N T150-426/N F150-421/T T425/N T425/Nr"),
    (Text("STOR"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("ERET P 1,10 /home/alice/f"),
        "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
    (Text("ERET P 1,18446744073709551615 /home/alice/f"),
        "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
    (Text("ERET P x,y /home/alice/f"), "R530/F R530/H R500/N R500/L R500/T R500/K R500/Nr"),
    (Text("ERET P 1,10"), "R530/F R530/H R500/N R500/L R500/T R500/K R500/Nr"),
    (Text("ERET P 1,10 /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("ERET DIR 0 /home/alice/d"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
    (Text("ERET DIR 9 /home/alice/d"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("ERET DIR x /home/alice/d"), "R530/F R530/H R500/N R500/L R500/T R500/K R500/Nr"),
    (Text("ERET DIR 0 /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("ERET X 1 /home/alice/f"), "R530/F R530/H R504/N R504/L R504/T R504/K R504/Nr"),
    (Text("ERET P"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("ESTO DIR /home/alice/up"),
        "R530/F R530/H T425/N T150-426/N F150-421/T T425/N T425/Nr"),
    (Text("ESTO X /home/alice/up"), "R530/F R530/H R504/N R504/L R504/T R504/K R504/Nr"),
    (Text("ESTO"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("LIST /home/alice/d"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
    (Text("LIST"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
    (Text("LIST /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("NLST /home/alice/d"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
    (Text("NLST /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("MLSD /home/alice/d"), "R530/F R530/H T425/N T425/L T425/T T150-226/K T425/Nr"),
    (Text("MLSD /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("MLST /home/alice/f"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
    (Text("MLST /home/alice/d"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
    (Text("MLST /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("SIZE /home/alice/f"), "R530/F R530/H R213/N R213/L R213/T R213/K R213/Nr"),
    (Text("SIZE /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("SIZE"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("MDTM /home/alice/f"), "R530/F R530/H R213/N R213/L R213/T R213/K R213/Nr"),
    (Text("MDTM /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("DELE /home/alice/f"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
    (Text("DELE /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("MKD /home/alice/new"), "R530/F R530/H R257/N R257/L R257/T R257/K R257/Nr"),
    (Text("MKD /home/alice/f"), "R530/F R530/H R257/N R257/L R257/T R257/K R257/Nr"),
    (Text("RMD /home/alice/e"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
    (Text("RMD /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("CWD /home/alice/d"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
    (Text("CWD /home/alice/nope"), "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("CDUP"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
    (Text("PWD"), "R530/F R530/H R257/N R257/L R257/T R257/K R257/Nr"),
    (Text("REST 100"), "R530/F R530/H R350/Nr R350/Lr R350/Tr R350/Kr R350/Nr"),
    (Text("REST 0-100,200-300"), "R530/F R530/H R350/Nr R350/Lr R350/Tr R350/Kr R350/Nr"),
    (Text("REST soon"), "R530/F R530/H R500/N R500/L R500/T R500/K R500/Nr"),
    (Text("REST"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("PBSZ 0"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("PBSZ x"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("PROT P"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("PROT E"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("PROT X"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("DCAU N"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("DCAU S /CN=host"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("DCAU X"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("DCSC D"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (DcscP, "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("DCSC P garbage"), "R530/F R530/H R500/N R500/L R500/T R500/K R500/Nr"),
    (Text("DCSC X"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("PIPE 8"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("PIPE 0"), "R530/F R530/H R501/N R501/L R501/T R501/K R501/Nr"),
    (Text("PIPE 65"), "R530/F R530/H R501/N R501/L R501/T R501/K R501/Nr"),
    (Text("PIPE x"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("OPTS RETR Parallelism=4,4,4;"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("OPTS RETR Parallelism=64,64,64;"),
        "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("OPTS RETR Parallelism=0,0,0;"), "R530/F R530/H R501/N R501/L R501/T R501/K R501/Nr"),
    (Text("OPTS RETR Parallelism=65,65,65;"),
        "R530/F R530/H R501/N R501/L R501/T R501/K R501/Nr"),
    (Text("OPTS RETR Parallelism=lots;"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("OPTS RETR Window=4;"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("OPTS"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("SITE STATS"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
    (Text("SITE DELEG REQ"), "R530/F R530/H R250/N R250/L R250/T R250/K R250/Nr"),
    (Text("SITE DELEG PUT !!!"), "R530/F R530/H R503/N R503/L R503/T R503/K R503/Nr"),
    (Text("SITE HELP"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("SITE"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("FEAT"), "R211/F R211/H R211/N R211/L R211/T R211/K R211/Nr"),
    (Text("NOOP"), "R200/F R200/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("ABOR"), "R530/F R530/H R226/N R226/L R226/T R226/K R226/Nr"),
    (Text("QUIT"), "Q221/F Q221/H Q221/N Q221/L Q221/T Q221/K Q221/Nr"),
    (Text("ALLO 100"), "R530/F R530/H R200/N R200/L R200/T R200/K R200/Nr"),
    (Text("ALLO x"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("CKSM SHA256 0 -1 /home/alice/f"),
        "R530/F R530/H R213/N R213/L R213/T R213/K R213/Nr"),
    (Text("CKSM SHA256 1 10 /home/alice/f"),
        "R530/F R530/H R213/N R213/L R213/T R213/K R213/Nr"),
    (Text("CKSM MD5 0 -1 /home/alice/f"), "R530/F R530/H R504/N R504/L R504/T R504/K R504/Nr"),
    (Text("CKSM SHA256 1 18446744073709551615 /home/alice/f"),
        "R530/F R530/H R213/N R213/L R213/T R213/K R213/Nr"),
    (Text("CKSM SHA256 0 -1 /home/alice/nope"),
        "R530/F R530/H R550/N R550/L R550/T R550/K R550/Nr"),
    (Text("CKSM SHA256"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Nested, "D503/F D503/H R503/N R503/L R503/T R503/K R503/Nr"),
    (Text("ENC AAAA"), "D503/F D503/H D535/N D535/L D535/T D535/K D535/Nr"),
    (Text("MIC AAAA"), "D503/F D503/H D535/N D535/L D535/T D535/K D535/Nr"),
    (Text("ENC"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
    (Text("XYZZY"), "R530/F R530/H R500/N R500/L R500/T R500/K R500/Nr"),
    (Bytes(b"NOOP \xff"), "D500/F D500/H D500/N D500/L D500/T D500/K D500/Nr"),
];

#[test]
fn every_state_answers_every_verb_as_the_table_says() {
    let fx = Fixture::new();
    let mut wrong = Vec::new();
    let mut actual = String::new();
    for (line, expected) in TABLE {
        let cells: Vec<String> = STATES.iter().map(|from| cell(&fx, from, line)).collect();
        let expected: Vec<&str> = expected.split_whitespace().collect();
        if cells != expected {
            wrong.push(literal(line));
        }
        // Wrapped as the literal is: a row over 100 columns breaks after the line.
        let (line, cells) = (literal(line), cells.join(" "));
        let gap = if line.len() + cells.len() > 85 { "\n        " } else { " " };
        actual.push_str(&format!("    ({line},{gap}\"{cells}\"),\n"));
    }
    assert!(wrong.is_empty(), "rows {wrong:?} differ; the table as it is now:\n{actual}");
}

#[test]
fn a_nested_envelope_is_refused_sealed_and_the_session_goes_on() {
    let fx = Fixture::new();
    let (mut s, _) = enter(&fx, &fx.config(), "N");
    let mut client = again(&fx.client);
    let (mut link, sent) = recorder();
    let nested = fx.bytes(&Nested, &mut client);
    let noop = secure_line::protect_command(&mut client, ProtectedKind::Enc, &Command::Noop);
    for msg in [nested, noop.to_string().into_bytes()] {
        assert!(matches!(s.process_message(&mut link, msg), Ok(LoopControl::Continue)));
    }
    let replies: Vec<Reply> = sent
        .lock()
        .iter()
        .map(|wire| Reply::parse(std::str::from_utf8(wire).unwrap()).unwrap())
        .map(|sealed| secure_line::unprotect_reply(&mut client, &sealed).expect("a sealed reply"))
        .collect();
    assert_eq!(replies[0], Reply::new(503, "Nested protection envelope."));
    assert_eq!(replies[1].code, 200);
}

/// DESIGN.md §11 ("The session: states and rows") quotes rows of the
/// table; what it quotes is what the literal says.
#[test]
fn the_rows_design_md_quotes_are_the_tables() {
    let design = include_str!("../../../../DESIGN.md");
    let quoted = design.split("<!-- session-rows -->").nth(1).expect("the marked extract");
    let quoted = quoted.split("<!-- /session-rows -->").next().unwrap();
    let mut checked = 0;
    for row in quoted.lines() {
        let cols: Vec<&str> = row.split('|').map(str::trim).collect();
        let Some(line) = cols.get(2).and_then(|c| c.strip_prefix('`')?.strip_suffix('`')) else {
            continue;
        };
        let (_, cells) = TABLE
            .iter()
            .find(|(l, _)| match l {
                Text(t) => *t == line,
                Adat => line == "ADAT <hello>",
                Nested => line == "ENC <sealed ENC AAAA>",
                Bytes(_) | DcscP => false,
            })
            .unwrap_or_else(|| panic!("DESIGN.md quotes {line:?}, which the table does not hold"));
        assert_eq!(cols[3..10].join(" "), cells.split_whitespace().collect::<Vec<_>>().join(" "));
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} rows found between the markers");
}
