//! Reference receivers for the transport's differential tests.
//!
//! [`NaiveReceiver`] is the rekeying receiver as it was before it opened
//! each frame under one key: it tries the current key, the previous key
//! and every future key up to the skip budget on every frame, whatever
//! sequence the frame claims. Its replay check is [`NaiveWindow`], a set of every
//! accepted sequence number plus the highest one and the horizon below it,
//! in place of `ReplayWindow`'s bitmap. `Receiver` must agree with it on
//! every frame: the same `Result` (error values included), epoch, last
//! epoch, highest sequence and counters.

#![allow(dead_code)]

use std::cell::RefCell;
use std::collections::HashSet;

use age_crypto::{Cipher, EpochRatchet};
use age_transport::{
    CipherFactory, ReceiveError, Receiver, ReceiverStats, ReplayError, ReplayWindow,
};

/// The cipher of each epoch of the chain off `root`, built by `factory`.
/// Keys are derived once, in order, and remembered: a key is a pure
/// function of its epoch, so remembering it changes no trial.
pub fn epoch_keys(root: [u8; 32], factory: CipherFactory) -> impl Fn(u64) -> Box<dyn Cipher> {
    let chain = RefCell::new((EpochRatchet::new(root), vec![EpochRatchet::new(root).key()]));
    move |epoch| {
        let mut chain = chain.borrow_mut();
        let (ratchet, keys) = &mut *chain;
        while keys.len() as u64 <= epoch {
            ratchet.advance();
            keys.push(ratchet.key());
        }
        factory(keys[epoch as usize])
    }
}

/// The replay check without a bitmap: every accepted number is kept.
pub struct NaiveWindow {
    seen: HashSet<u64>,
    highest: Option<u64>,
    size: u64,
}

impl NaiveWindow {
    /// A window accepting numbers down to `size - 1` below the highest.
    pub fn new(size: u64) -> Self {
        NaiveWindow {
            seen: HashSet::new(),
            highest: None,
            size,
        }
    }

    pub fn highest(&self) -> Option<u64> {
        self.highest
    }

    pub fn observe(&mut self, sequence: u64) -> Result<(), ReplayError> {
        if let Some(highest) = self.highest {
            let horizon = highest.saturating_sub(self.size - 1);
            if sequence < horizon {
                return Err(ReplayError::TooOld { sequence, horizon });
            }
        }
        if !self.seen.insert(sequence) {
            return Err(ReplayError::Replayed { sequence });
        }
        self.highest = Some(self.highest.map_or(sequence, |h| h.max(sequence)));
        Ok(())
    }
}

/// Feeds `sequences` to a `ReplayWindow` and a [`NaiveWindow`] of `size`
/// and asserts the same verdict on each one.
pub fn assert_windows_agree(sequences: impl IntoIterator<Item = u64>, size: u64, at: &str) {
    let mut window = ReplayWindow::with_size(size);
    let mut naive = NaiveWindow::new(size);
    for (i, sequence) in sequences.into_iter().enumerate() {
        assert_eq!(
            window.observe(sequence),
            naive.observe(sequence),
            "window verdict differs at {at}, sequence {sequence} (#{i}, size {size})"
        );
        assert_eq!(window.highest(), naive.highest(), "highest differs at {at}");
    }
}

/// The trial-open receiver. `key_for(e)` builds the cipher of
/// epoch `e`; a static-key receiver has `skip` 0 and never leaves epoch 0.
pub struct NaiveReceiver {
    key_for: Box<dyn Fn(u64) -> Box<dyn Cipher>>,
    skip: u64,
    max_skip: u64,
    pub epoch: u64,
    pub last_epoch: u64,
    pub window: NaiveWindow,
    pub stats: ReceiverStats,
}

impl NaiveReceiver {
    pub fn new(
        key_for: impl Fn(u64) -> Box<dyn Cipher> + 'static,
        skip: u64,
        max_skip: u64,
        window: u64,
    ) -> Self {
        NaiveReceiver {
            key_for: Box::new(key_for),
            skip,
            max_skip,
            epoch: 0,
            last_epoch: 0,
            window: NaiveWindow::new(window),
            stats: ReceiverStats::default(),
        }
    }

    /// A rekeying reference for a sensor rotating every `interval`
    /// sequence numbers: it probes `max_skip / interval + 2` epochs ahead.
    pub fn rekeying(
        key_for: impl Fn(u64) -> Box<dyn Cipher> + 'static,
        interval: u64,
        max_skip: u64,
        window: u64,
    ) -> Self {
        Self::new(key_for, max_skip / interval + 2, max_skip, window)
    }

    fn opens(&self, epoch: u64, frame: &[u8], payload: &mut Vec<u8>) -> bool {
        (self.key_for)(epoch).open_into(frame, payload).is_ok()
    }

    fn open(&mut self, frame: &[u8], payload: &mut Vec<u8>) -> Result<u64, ReceiveError> {
        let err = match (self.key_for)(self.epoch).open_into(frame, payload) {
            Ok(()) => return Ok(self.epoch),
            Err(err) => err,
        };
        // A rekeying receiver holds a previous-epoch key once it has
        // advanced.
        if self.epoch > 0 && self.opens(self.epoch - 1, frame, payload) {
            self.stats.epoch_behind += 1;
            return Ok(self.epoch - 1);
        }
        for ahead in 1..=self.skip {
            if self.opens(self.epoch + ahead, frame, payload) {
                self.epoch += ahead;
                self.stats.epoch_advances += 1;
                return Ok(self.epoch);
            }
        }
        Err(ReceiveError::Cipher(err))
    }

    pub fn receive(&mut self, frame: &[u8]) -> Result<(u64, Vec<u8>), ReceiveError> {
        let Some(sequence) = (self.key_for)(self.epoch).sequence_of(frame) else {
            self.stats.missing_sequence += 1;
            return Err(ReceiveError::MissingSequence);
        };
        let mut payload = Vec::new();
        let opened = self.open(frame, &mut payload).inspect_err(|_| {
            self.stats.auth_failed += 1;
        })?;
        // An empty window applies no limit.
        if let Some(limit) = self
            .window
            .highest()
            .map(|h| h.saturating_add(self.max_skip))
        {
            if sequence > limit {
                self.stats.far_future += 1;
                return Err(ReceiveError::FarFuture { sequence, limit });
            }
        }
        self.window.observe(sequence).map_err(|e| {
            self.stats.replay_rejected += 1;
            ReceiveError::Replay(e)
        })?;
        self.stats.accepted += 1;
        self.last_epoch = opened;
        Ok((sequence, payload))
    }

    /// Delivers `frame` to both receivers and asserts they agree on the
    /// verdict and on every piece of observable state. Returns the
    /// verdict.
    pub fn receive_beside(
        &mut self,
        receiver: &mut Receiver,
        frame: &[u8],
        at: &str,
    ) -> Result<(u64, Vec<u8>), ReceiveError> {
        let got = receiver.receive(frame);
        let want = self.receive(frame);
        assert_eq!(got, want, "verdict differs at {at}");
        assert_eq!(receiver.epoch(), self.epoch, "epoch differs at {at}");
        assert_eq!(
            receiver.last_epoch(),
            self.last_epoch,
            "last epoch differs at {at}"
        );
        assert_eq!(
            receiver.highest_sequence(),
            self.window.highest(),
            "highest sequence differs at {at}"
        );
        assert_eq!(*receiver.stats(), self.stats, "stats differ at {at}");
        got
    }
}
