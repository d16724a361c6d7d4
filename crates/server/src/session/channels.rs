//! The data channels a logged-in session holds between commands, and how
//! a transfer's streams are built from them (DESIGN §8, "Data-channel
//! lifecycle").

use super::Authed;
use crate::config::ServerConfig;
use crate::data::{
    CachedChannels, ChainExpiry, ChannelShape, DataListener, DataSecurity, DataStack, Flow,
};
use crate::dtp::Streams;
use crate::error::{Result, ServerError};
use ig_protocol::HostPort;
use rand::Rng;
use std::sync::Arc;

/// What the next transfer would run on. One kind at a time: a value of
/// this type is replaced, never added to.
// One per logged-in session, inside its box; a boxed `Kept` would be an
// allocation per transfer.
#[allow(clippy::large_enum_variant)]
pub(super) enum Channels {
    /// Nothing negotiated and nothing kept: a transfer now is a 425.
    None,
    /// `PASV`/`SPAS`: the peer connects to these, one listener per stripe.
    Listening(Vec<DataListener>),
    /// `PORT`/`SPOR`: we connect to these.
    Targets(Vec<HostPort>),
    /// The channels of the last transfer, which completed, for a next
    /// one that arrives with nothing negotiated since.
    Kept(CachedChannels),
}

impl Channels {
    /// The one transition: `next` takes the place of whatever was held.
    /// Listeners close as they drop; kept streams are closed here.
    pub(super) fn set(&mut self, next: Channels) {
        if let Channels::Kept(kept) = std::mem::replace(self, next) {
            kept.close();
        }
    }

    /// The streams a transfer of `shape` starts on, or why it cannot (its
    /// 425). A sender's are dialled or accepted now; a receiver's arrive
    /// while it runs (`Frame::pump`), so it starts on none. With nothing
    /// negotiated since the last transfer both get the kept ones, if
    /// `stack` and `shape` would build exactly them again and their
    /// chains are still valid; anything else has closed them.
    pub(super) fn open<R: Rng>(
        &mut self,
        shape: &ChannelShape,
        stack: &DataStack,
        config: &ServerConfig,
        rng: &mut R,
    ) -> Result<Streams> {
        let sending = shape.flow == Flow::Send;
        let mut streams: Streams = Vec::new();
        match self {
            // Active: connect out (we are the sender, the canonical case).
            Channels::Targets(targets) if sending => {
                for target in targets.iter() {
                    for _ in 0..shape.parallelism {
                        streams.push(stack.connect(*target, rng)?);
                    }
                }
            }
            // Passive sender (two-party GET): accept `parallelism`
            // connections per listener.
            Channels::Listening(listeners) if sending => {
                let stall = config.live().stall_timeout;
                for l in listeners.iter() {
                    for _ in 0..shape.parallelism {
                        streams.push(stack.accept(l.accept(stall)?, rng)?);
                    }
                }
            }
            Channels::Targets(_) | Channels::Listening(_) => {}
            Channels::None | Channels::Kept(_) => {
                let mut kept = match std::mem::replace(self, Channels::None) {
                    Channels::Kept(kept) => Some(kept),
                    _ => None,
                };
                streams = CachedChannels::rearm(&mut kept, shape, stack, config.clock.now())
                    .ok_or_else(|| {
                        ServerError::Data("no data channel established (use PASV/PORT)".into())
                    })?;
                config.obs.metrics().add("server.dtp.channels_reused", streams.len() as u64);
            }
        }
        Ok(streams)
    }
}

impl Authed {
    /// Assemble how this session's data streams are built. §V: a DCSC
    /// context replaces both the presented credential and (via its
    /// self-signed chain certs) the accepted trust anchors; `DCSC D` has
    /// cleared `self.dcsc`, falling back to the login (delegated)
    /// credential. Every stream is metered as `server.dtp.*`.
    pub(super) fn data_stack(&self, config: &ServerConfig) -> DataStack {
        let (credential, trust) = match &self.dcsc {
            Some(cred) => (
                Some(cred.clone()),
                config.trust.with_extra_roots(cred.chain().iter()),
            ),
            None => (self.delegated.clone(), config.trust.clone()),
        };
        DataStack {
            security: DataSecurity {
                dcau: self.dcau.clone(),
                prot: self.prot,
                credential,
                trust,
                clock: config.clock,
            },
            stripe_rate: config.live().stripe_rate,
            deadline: Some(config.live().stall_timeout),
            chaos: config.data_chaos.clone(),
            meter: Some((Arc::clone(&config.obs), "server.dtp")),
            expiry: ChainExpiry::default(),
        }
    }
}
