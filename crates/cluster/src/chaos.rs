//! A fault-injecting [`Transport`] wrapper: the network you actually
//! get, composed over the network you wish you had.
//!
//! [`ChaosTransport`] wraps any [`Transport`] and perturbs frames in
//! both directions according to a seeded
//! [`FrameChaos`](ppm_faults::FrameChaos) schedule — drop, bit-flip,
//! truncate, duplicate, reorder, delay, and hang (the link goes
//! permanently silent, modelling a dead peer or a partition). The
//! wrapper itself is honest about none of it: a dropped frame returns
//! `Ok(())`, a corrupted frame is delivered corrupted. Detection is
//! the *protocol's* job — the v2 frame envelope
//! ([`seal_v2`](crate::frame::seal_v2)/[`unseal`](crate::frame::unseal))
//! catches corruption and duplication, and coordinator supervision
//! (deadlines, retries, failover) catches loss and silence.
//!
//! Each direction draws from its own decider (seeds `seed` and
//! `seed ^ RECV_SEED_FLIP`), so request and response faults are
//! decorrelated but each stream is individually reproducible. Every
//! injected fault is counted in [`ChaosCounters`], whose
//! [`InjectedFaults`] snapshot the simulation threads into its report —
//! chaos tests assert the faults they configured actually fired.

use crate::transport::Transport;
use ppm_faults::{ChaosRates, FrameChaos, FrameFault};
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// XOR'd into the seed for the receive-direction decider so the two
/// directions draw decorrelated fault streams.
const RECV_SEED_FLIP: u64 = 0x9E37_79B9_7F4A_7C15;

/// Shape of the chaos injected into one link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Seed for both direction deciders (receive direction derives its
    /// own stream from it).
    pub seed: u64,
    /// Per-frame fault probabilities.
    pub rates: ChaosRates,
    /// How late a delayed frame is delivered.
    pub delay_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            rates: ChaosRates::default(),
            delay_ms: 15,
        }
    }
}

impl ChaosConfig {
    /// The same chaos shape with a per-link seed, decorrelating links
    /// that share one configured seed.
    pub fn for_link(&self, link: u64) -> ChaosConfig {
        ChaosConfig {
            seed: self.seed ^ link.wrapping_mul(0xD6E8_FEB8_6659_FD93).wrapping_add(link),
            ..*self
        }
    }
}

/// Injected-fault counters, shared between the transport and whoever
/// reports on it.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    /// Frames silently lost.
    pub dropped: AtomicU64,
    /// Frames delivered with a flipped byte.
    pub corrupted: AtomicU64,
    /// Frames delivered cut to a prefix.
    pub truncated: AtomicU64,
    /// Frames delivered twice.
    pub duplicated: AtomicU64,
    /// Frames delivered after their successor.
    pub reordered: AtomicU64,
    /// Frames delivered late.
    pub delayed: AtomicU64,
    /// Links that went permanently silent.
    pub hangs: AtomicU64,
}

impl ChaosCounters {
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> InjectedFaults {
        InjectedFaults {
            dropped: self.dropped.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            hangs: self.hangs.load(Ordering::Relaxed),
        }
    }
}

/// A plain-number snapshot of [`ChaosCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Frames silently lost.
    pub dropped: u64,
    /// Frames delivered with a flipped byte.
    pub corrupted: u64,
    /// Frames delivered cut to a prefix.
    pub truncated: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames delivered after their successor.
    pub reordered: u64,
    /// Frames delivered late.
    pub delayed: u64,
    /// Links that went permanently silent.
    pub hangs: u64,
}

impl InjectedFaults {
    /// Total faults injected across all families.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.corrupted
            + self.truncated
            + self.duplicated
            + self.reordered
            + self.delayed
            + self.hangs
    }

    /// Folds another snapshot into this one (summing across links).
    pub fn absorb(&mut self, other: &InjectedFaults) {
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.truncated += other.truncated;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.delayed += other.delayed;
        self.hangs += other.hangs;
    }

    /// Hand-rolled JSON object, matching the workspace's report style.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"dropped\":{},\"corrupted\":{},\"truncated\":{},\
             \"duplicated\":{},\"reordered\":{},\"delayed\":{},\
             \"hangs\":{},\"total\":{}}}",
            self.dropped,
            self.corrupted,
            self.truncated,
            self.duplicated,
            self.reordered,
            self.delayed,
            self.hangs,
            self.total(),
        )
    }
}

struct DirState {
    chaos: FrameChaos,
    /// Frame held back by a reorder fault, released behind the next
    /// frame that moves in this direction.
    held: Option<Vec<u8>>,
    /// Frames queued for delivery ahead of the underlying transport
    /// (duplicates and released reorders).
    ready: VecDeque<Vec<u8>>,
}

impl DirState {
    fn new(seed: u64, rates: ChaosRates) -> Self {
        DirState {
            chaos: FrameChaos::new(seed, rates),
            held: None,
            ready: VecDeque::new(),
        }
    }
}

/// A [`Transport`] that injects seeded faults into both directions of
/// an inner transport. Wrap the *coordinator* end of a link: outbound
/// faults then model the request leg, inbound faults the response leg,
/// and the unwrapped worker end stays honest.
pub struct ChaosTransport<T: Transport> {
    inner: T,
    send_state: Mutex<DirState>,
    recv_state: Mutex<DirState>,
    hung: AtomicBool,
    delay: Duration,
    counters: Arc<ChaosCounters>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` with the chaos described by `config`.
    pub fn new(inner: T, config: ChaosConfig) -> Self {
        ChaosTransport {
            inner,
            send_state: Mutex::new(DirState::new(config.seed, config.rates)),
            recv_state: Mutex::new(DirState::new(config.seed ^ RECV_SEED_FLIP, config.rates)),
            hung: AtomicBool::new(false),
            delay: Duration::from_millis(config.delay_ms),
            counters: Arc::new(ChaosCounters::default()),
        }
    }

    /// Shared handle to the injected-fault counters; clone it before
    /// boxing the transport so reports can read the totals afterwards.
    pub fn counters(&self) -> Arc<ChaosCounters> {
        Arc::clone(&self.counters)
    }

    /// Snapshot of everything injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.counters.snapshot()
    }

    /// Whether a hang fault has silenced this link for good.
    pub fn is_hung(&self) -> bool {
        self.hung.load(Ordering::Relaxed)
    }

    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&self, frame: Vec<u8>) -> io::Result<()> {
        if self.is_hung() {
            // A partitioned link swallows everything without telling
            // the sender: loss must be discovered by the deadline, not
            // by a polite error.
            return Ok(());
        }
        let mut st = lock(&self.send_state);
        let mut deliver: Option<Vec<u8>> = None;
        match st.chaos.next_fault() {
            FrameFault::Deliver => deliver = Some(frame),
            FrameFault::Drop => self.bump(&self.counters.dropped),
            FrameFault::Corrupt => {
                let mut f = frame;
                st.chaos.mangle(&mut f);
                self.bump(&self.counters.corrupted);
                deliver = Some(f);
            }
            FrameFault::Truncate => {
                let mut f = frame;
                st.chaos.truncate_frame(&mut f);
                self.bump(&self.counters.truncated);
                deliver = Some(f);
            }
            FrameFault::Duplicate => {
                self.bump(&self.counters.duplicated);
                self.inner.send(frame.clone())?;
                deliver = Some(frame);
            }
            FrameFault::Reorder => {
                self.bump(&self.counters.reordered);
                // Hold this frame; it travels behind the next one.
                if let Some(prev) = st.held.replace(frame) {
                    // Two holds in a row: the older one goes out now.
                    self.inner.send(prev)?;
                }
                return Ok(());
            }
            FrameFault::Delay => {
                self.bump(&self.counters.delayed);
                std::thread::sleep(self.delay);
                deliver = Some(frame);
            }
            FrameFault::Hang => {
                self.bump(&self.counters.hangs);
                self.hung.store(true, Ordering::Relaxed);
                return Ok(());
            }
        }
        if let Some(f) = deliver {
            self.inner.send(f)?;
        }
        if let Some(held) = st.held.take() {
            self.inner.send(held)?;
        }
        Ok(())
    }

    fn recv(&self) -> io::Result<Vec<u8>> {
        // Blocking receive over a possibly-hung link: wait in slices so
        // a hang behaves as an endless silence, exactly like the real
        // thing. Supervised callers use recv_timeout instead.
        loop {
            if let Some(frame) = self.recv_timeout(Duration::from_secs(1))? {
                return Ok(frame);
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.recv_state);
        loop {
            if let Some(frame) = st.ready.pop_front() {
                return Ok(Some(frame));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            if self.is_hung() {
                // The peer's frames no longer reach us; burn the
                // deadline like a real silent link would.
                std::thread::sleep(remaining);
                return Ok(None);
            }
            let Some(frame) = self.inner.recv_timeout(remaining)? else {
                return Ok(None);
            };
            let mut frame = frame;
            match st.chaos.next_fault() {
                FrameFault::Deliver => {}
                FrameFault::Drop => {
                    self.bump(&self.counters.dropped);
                    continue;
                }
                FrameFault::Corrupt => {
                    st.chaos.mangle(&mut frame);
                    self.bump(&self.counters.corrupted);
                }
                FrameFault::Truncate => {
                    st.chaos.truncate_frame(&mut frame);
                    self.bump(&self.counters.truncated);
                }
                FrameFault::Duplicate => {
                    self.bump(&self.counters.duplicated);
                    st.ready.push_back(frame.clone());
                }
                FrameFault::Reorder => {
                    self.bump(&self.counters.reordered);
                    if let Some(prev) = st.held.replace(frame) {
                        st.ready.push_back(prev);
                    }
                    continue;
                }
                FrameFault::Delay => {
                    self.bump(&self.counters.delayed);
                    std::thread::sleep(self.delay.min(remaining));
                }
                FrameFault::Hang => {
                    self.bump(&self.counters.hangs);
                    self.hung.store(true, Ordering::Relaxed);
                    continue;
                }
            }
            // Delivering a frame releases a reorder-held predecessor
            // behind it.
            if let Some(prev) = st.held.take() {
                st.ready.push_back(prev);
            }
            return Ok(Some(frame));
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::frame::{seal_v2, unseal};
    use crate::transport::channel_pair;
    use ppm_faults::ChaosRates;

    fn rates(f: impl Fn(&mut ChaosRates)) -> ChaosRates {
        let mut r = ChaosRates::default();
        f(&mut r);
        r
    }

    #[test]
    fn clean_config_is_a_transparent_wrapper() {
        let (a, b) = channel_pair();
        let chaotic = ChaosTransport::new(a, ChaosConfig::default());
        chaotic.send(vec![1, 2, 3]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![1, 2, 3]);
        b.send(vec![4]).unwrap();
        assert_eq!(chaotic.recv().unwrap(), vec![4]);
        assert_eq!(chaotic.injected().total(), 0);
    }

    #[test]
    fn all_drop_loses_everything_and_counts_it() {
        let (a, b) = channel_pair();
        let chaotic = ChaosTransport::new(
            a,
            ChaosConfig {
                seed: 1,
                rates: rates(|r| r.drop = 1.0),
                ..ChaosConfig::default()
            },
        );
        for i in 0..10u8 {
            chaotic.send(vec![i]).unwrap();
        }
        assert_eq!(b.recv_timeout(Duration::from_millis(10)).unwrap(), None);
        assert_eq!(chaotic.injected().dropped, 10);
    }

    #[test]
    fn corruption_is_caught_by_the_v2_envelope() {
        let (a, b) = channel_pair();
        let chaotic = ChaosTransport::new(
            a,
            ChaosConfig {
                seed: 2,
                rates: rates(|r| r.corrupt = 1.0),
                ..ChaosConfig::default()
            },
        );
        for seq in 0..20u32 {
            chaotic.send(seal_v2(seq, b"precious sectors")).unwrap();
            let frame = b.recv().unwrap();
            // Wherever the flip landed — the magic byte included — the
            // frame no longer unseals.
            assert!(unseal(frame).is_err(), "seq {seq} survived corruption");
        }
        assert_eq!(chaotic.injected().corrupted, 20);
    }

    #[test]
    fn duplicates_arrive_twice_and_reorders_swap() {
        let (a, b) = channel_pair();
        let chaotic = ChaosTransport::new(
            a,
            ChaosConfig {
                seed: 3,
                rates: rates(|r| r.duplicate = 1.0),
                ..ChaosConfig::default()
            },
        );
        chaotic.send(vec![9]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![9]);
        assert_eq!(b.recv().unwrap(), vec![9]);

        let (a, b) = channel_pair();
        let chaotic = ChaosTransport::new(
            a,
            ChaosConfig {
                seed: 4,
                rates: rates(|r| r.reorder = 0.5),
                ..ChaosConfig::default()
            },
        );
        let n = 40u8;
        for i in 0..n {
            chaotic.send(vec![i]).unwrap();
        }
        // Flush any frame still held back by a trailing reorder.
        let injected = chaotic.injected();
        let mut got = Vec::new();
        while let Some(f) = b.recv_timeout(Duration::from_millis(10)).unwrap() {
            got.push(f[0]);
        }
        assert!(injected.reordered > 0);
        // Nothing is lost except possibly one frame still held; order
        // differs from the identity permutation.
        assert!(got.len() as u8 >= n - 1);
        assert_ne!(got, (0..got.len() as u8).collect::<Vec<_>>());
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), got.len(), "no duplicates from reorder");
    }

    #[test]
    fn hang_silences_the_link_for_good() {
        let (a, b) = channel_pair();
        let chaotic = ChaosTransport::new(
            a,
            ChaosConfig {
                seed: 5,
                rates: rates(|r| r.hang = 1.0),
                ..ChaosConfig::default()
            },
        );
        chaotic.send(vec![1]).unwrap();
        assert!(chaotic.is_hung());
        // Everything after the hang is swallowed without error.
        chaotic.send(vec![2]).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(10)).unwrap(), None);
        // And inbound frames never surface either.
        b.send(vec![3]).unwrap();
        assert_eq!(
            chaotic.recv_timeout(Duration::from_millis(20)).unwrap(),
            None
        );
        assert_eq!(chaotic.injected().hangs, 1);
    }

    #[test]
    fn same_seed_injects_the_same_faults() {
        let run = || {
            let (a, b) = channel_pair();
            let chaotic = ChaosTransport::new(
                a,
                ChaosConfig {
                    seed: 77,
                    rates: ChaosRates {
                        drop: 0.2,
                        corrupt: 0.2,
                        truncate: 0.1,
                        duplicate: 0.1,
                        ..ChaosRates::default()
                    },
                    ..ChaosConfig::default()
                },
            );
            let mut delivered = Vec::new();
            for i in 0..50u8 {
                chaotic.send(vec![i; 8]).unwrap();
            }
            while let Some(f) = b.recv_timeout(Duration::from_millis(5)).unwrap() {
                delivered.push(f);
            }
            (chaotic.injected(), delivered)
        };
        let (ia, da) = run();
        let (ib, db) = run();
        assert_eq!(ia, ib);
        assert_eq!(da, db);
        assert!(ia.total() > 0);
    }

    #[test]
    fn per_link_seeds_decorrelate() {
        let cfg = ChaosConfig {
            seed: 9,
            rates: rates(|r| r.drop = 0.5),
            ..ChaosConfig::default()
        };
        assert_ne!(cfg.for_link(0).seed, cfg.for_link(1).seed);
        assert_eq!(cfg.for_link(3), cfg.for_link(3));
    }

    #[test]
    fn partial_drops_deliver_the_rest_intact() {
        // A drop-only schedule loses frames, but whatever is delivered
        // is byte-for-byte what was sent and still unseals.
        let (a, b) = channel_pair();
        let chaotic = ChaosTransport::new(
            a,
            ChaosConfig {
                seed: 10,
                rates: rates(|r| r.drop = 0.3),
                ..ChaosConfig::default()
            },
        );
        let mut sent = Vec::new();
        for i in 0..30u8 {
            let f = seal_v2(u32::from(i), &[i, i, i]);
            sent.push(f.clone());
            chaotic.send(f).unwrap();
        }
        while let Some(f) = b.recv_timeout(Duration::from_millis(5)).unwrap() {
            assert!(sent.contains(&f));
            assert_eq!(unseal(f).unwrap().payload.len(), 3);
        }
        assert!(chaotic.injected().dropped > 0);
    }
}
