//! Bounded blocking channels for long-running service pipelines.
//!
//! The `ros-serve` corridor service streams radar frames through
//! sharded workers; the seams between its stages are these channels.
//! Two properties the fleet workload needs that `std::sync::mpsc` does
//! not provide together:
//!
//! 1. **Explicit backpressure, never silent loss.** The buffer is hard
//!    bounded at its construction capacity. A producer that outruns its
//!    consumer *blocks* (and the blocking event is counted in
//!    [`ChannelStats::stalls`]) — frames are never dropped to make
//!    room. Frame-count conservation across a fan-in is therefore an
//!    assertable invariant, not a hope.
//! 2. **Observable occupancy.** The channel tracks its high-water mark
//!    ([`ChannelStats::max_occupancy`]), which by construction can
//!    never exceed the capacity — the slow-consumer integration test
//!    pins both facts.
//!
//! [`Sender`] is `Clone`, so one channel serves both the SPSC shape
//! (producer → shard worker) and the MPSC shape (worker fan-in →
//! aggregator). Disconnect semantics are conventional: `recv` returns
//! `None` once the buffer is empty and every sender is gone; `send`
//! returns the rejected value once the receiver is gone.
//!
//! **Batches cross under one lock.** [`Sender::send_all`] drains a
//! `Vec` into the buffer, as many items per lock as fit, and
//! [`Receiver::recv_into`] moves up to `max` buffered items out under
//! one lock — so a producer that emits frames in chunks pays one lock
//! round-trip and one wakeup per chunk, not per frame. Capacity and
//! occupancy are still counted in items, and the single-item and batch
//! forms share one wait loop and one set of stall and occupancy
//! bookkeeping.
//!
//! Determinism note: a channel transports values, it does not create
//! them. Cross-thread *arrival order* at an MPSC fan-in is scheduler
//! dependent; consumers that need a reproducible aggregate (the serve
//! read log) must order by a deterministic key after draining, which is
//! exactly what `ros-serve` does.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Snapshot of a channel's backpressure counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Number of `send`/`send_all` calls that had to block on a full
    /// buffer (counted once per blocking call, not once per wakeup).
    pub stalls: u64,
    /// High-water mark of buffered items; `<= capacity` always.
    pub max_occupancy: usize,
    /// The bound the channel was built with.
    pub capacity: usize,
}

/// Mutex-guarded channel state (stats live under the same lock, so a
/// snapshot is always internally consistent).
struct State<T> {
    buf: VecDeque<T>,
    senders: usize,
    recv_alive: bool,
    stalls: u64,
    max_occupancy: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn stats(&self) -> ChannelStats {
        let st = self.lock();
        ChannelStats {
            stalls: st.stalls,
            max_occupancy: st.max_occupancy,
            capacity: self.cap,
        }
    }

    /// The sender's wait loop: blocks while the buffer is full and
    /// returns the guard once there is room, or `None` once the
    /// receiver is gone. The first wait of a call (tracked by
    /// `stalled`) counts one stall.
    fn wait_for_room<'a>(
        &'a self,
        mut st: MutexGuard<'a, State<T>>,
        stalled: &mut bool,
    ) -> Option<MutexGuard<'a, State<T>>> {
        loop {
            if !st.recv_alive {
                return None;
            }
            if st.buf.len() < self.cap {
                return Some(st);
            }
            if !*stalled {
                *stalled = true;
                st.stalls += 1;
            }
            st = self.not_full.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// The receiver's wait loop: blocks while the buffer is empty and
    /// returns the guard once it holds an item, or `None` once it is
    /// drained and every sender is gone.
    fn wait_for_item<'a>(
        &'a self,
        mut st: MutexGuard<'a, State<T>>,
    ) -> Option<MutexGuard<'a, State<T>>> {
        loop {
            if !st.buf.is_empty() {
                return Some(st);
            }
            if st.senders == 0 {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
}

impl<T> State<T> {
    /// Records the occupancy after a push.
    fn note_occupancy(&mut self) {
        self.max_occupancy = self.max_occupancy.max(self.buf.len());
    }
}

/// The sending half of a bounded channel; clone it for MPSC fan-in.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a bounded channel (single consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Channel errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelError {
    /// The requested capacity was 0 — a zero-capacity buffer could
    /// never accept a send, so [`try_bounded`] refuses to build one.
    ZeroCapacity,
    /// The receiver is gone: [`Sender::send_all`] stopped, and the
    /// items it could not send are still in the caller's `Vec`.
    Disconnected,
}

/// Fallible twin of [`bounded`]: rejects `cap == 0` with a typed error
/// instead of clamping. Use this where the capacity is configuration
/// input and a silent clamp would mask a misconfiguration; keep
/// [`bounded`] where the capacity is a computed internal constant.
pub fn try_bounded<T>(cap: usize) -> Result<(Sender<T>, Receiver<T>), ChannelError> {
    if cap == 0 {
        return Err(ChannelError::ZeroCapacity);
    }
    Ok(bounded(cap))
}

/// Creates a bounded blocking channel with room for `cap` items.
///
/// `cap` is clamped to at least 1 (a zero-capacity buffer could never
/// accept a send). The buffer is allocated up front, so steady-state
/// send/recv never allocates.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let cap = cap.max(1);
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            buf: VecDeque::with_capacity(cap),
            senders: 1,
            recv_alive: true,
            stalls: 0,
            max_occupancy: 0,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        cap,
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Sends `v`, blocking while the buffer is full. Each blocking send
    /// increments the stall counter exactly once. Returns `Err(v)` when
    /// the receiver is gone (the value is handed back, never dropped
    /// silently).
    pub fn send(&self, v: T) -> Result<(), T> {
        let st = self.shared.lock();
        let Some(mut st) = self.shared.wait_for_room(st, &mut false) else {
            return Err(v);
        };
        st.buf.push_back(v);
        st.note_occupancy();
        drop(st);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Sends every item of `items` in order, draining the `Vec`: each
    /// lock pushes as many items as fit, and the call blocks while the
    /// buffer is full. A call that blocks counts one stall, however
    /// often it waits. Returns [`ChannelError::Disconnected`] when the
    /// receiver is gone; the items not yet sent stay in `items`, in
    /// order, so nothing is dropped silently.
    pub fn send_all(&self, items: &mut Vec<T>) -> Result<(), ChannelError> {
        let mut st = self.shared.lock();
        let mut stalled = false;
        while !items.is_empty() {
            st = self
                .shared
                .wait_for_room(st, &mut stalled)
                .ok_or(ChannelError::Disconnected)?;
            let n = (self.shared.cap - st.buf.len()).min(items.len());
            st.buf.extend(items.drain(..n));
            st.note_occupancy();
            // Wake the receiver before this call can wait for room.
            self.shared.not_empty.notify_one();
        }
        Ok(())
    }

    /// Backpressure counters as of now.
    pub fn stats(&self) -> ChannelStats {
        self.shared.stats()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        let mut st = self.shared.lock();
        st.senders += 1;
        drop(st);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            // Wake a receiver parked on an empty buffer so it can
            // observe the disconnect and return `None`.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receives the next item, blocking while the buffer is empty.
    /// Returns `None` once the buffer is drained and every sender has
    /// been dropped — by then every sent item has been delivered.
    pub fn recv(&self) -> Option<T> {
        let mut st = self.shared.wait_for_item(self.shared.lock())?;
        let v = st.buf.pop_front();
        drop(st);
        self.shared.not_full.notify_one();
        v
    }

    /// Appends up to `max` buffered items to `out` under one lock,
    /// blocking while the buffer is empty (a `max` of 0 is treated as
    /// 1). Returns `false` — with nothing appended — only once the
    /// buffer is drained and every sender has been dropped.
    pub fn recv_into(&self, out: &mut Vec<T>, max: usize) -> bool {
        let Some(mut st) = self.shared.wait_for_item(self.shared.lock()) else {
            return false;
        };
        let n = max.max(1).min(st.buf.len());
        out.extend(st.buf.drain(..n));
        drop(st);
        // Up to `n` slots opened: wake every sender waiting for room.
        self.shared.not_full.notify_all();
        true
    }

    /// Backpressure counters as of now.
    pub fn stats(&self) -> ChannelStats {
        self.shared.stats()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.recv_alive = false;
        drop(st);
        // Wake every producer parked on a full buffer so their sends
        // can fail fast instead of blocking forever.
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = bounded(8);
        for i in 0..5 {
            tx.send(i).map_err(|_| "receiver gone").unwrap();
        }
        drop(tx);
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        let stats = rx.stats();
        assert_eq!(stats.stalls, 0);
        assert_eq!(stats.max_occupancy, 5);
        assert_eq!(stats.capacity, 8);
    }

    #[test]
    fn occupancy_never_exceeds_cap_and_stalls_count() {
        let cap = 3;
        let (tx, rx) = bounded(cap);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..50u64 {
                    tx.send(i).map_err(|_| "receiver gone").unwrap();
                }
            });
            // Slow consumer: drain with a delay so the producer fills
            // the buffer and must stall.
            let mut got = Vec::new();
            while let Some(v) = rx.recv() {
                std::thread::sleep(std::time::Duration::from_micros(200));
                got.push(v);
            }
            let expect: Vec<u64> = (0..50).collect();
            assert_eq!(got, expect, "no item lost or reordered");
            let stats = rx.stats();
            assert!(stats.max_occupancy <= cap, "occupancy {stats:?}");
            assert!(stats.stalls > 0, "producer never stalled: {stats:?}");
        });
    }

    #[test]
    fn batch_larger_than_capacity_arrives_in_order_within_capacity() {
        let cap = 4;
        let (tx, rx) = bounded(cap);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut items: Vec<u64> = (0..50).collect();
                tx.send_all(&mut items)
                    .map_err(|e| format!("{e:?}"))
                    .unwrap();
                assert!(items.is_empty(), "send_all drains the batch");
            });
            let mut got = Vec::new();
            while rx.recv_into(&mut got, 3) {}
            assert_eq!(got, (0..50).collect::<Vec<u64>>(), "FIFO across batches");
            let stats = rx.stats();
            assert!(stats.max_occupancy <= cap, "occupancy {stats:?}");
            assert_eq!(stats.max_occupancy, cap, "a 50-item batch fills the buffer");
        });
    }

    #[test]
    fn blocking_send_all_counts_exactly_one_stall() {
        let (tx, rx) = bounded(2);
        // Fits: no stall.
        tx.send_all(&mut vec![1u64, 2])
            .map_err(|e| format!("{e:?}"))
            .unwrap();
        let mut got = Vec::new();
        assert!(rx.recv_into(&mut got, 8));
        assert_eq!(tx.stats().stalls, 0);
        std::thread::scope(|s| {
            s.spawn(move || {
                // Twenty items through two slots: the call waits many
                // times but is one blocking call.
                let mut items: Vec<u64> = (3..23).collect();
                tx.send_all(&mut items)
                    .map_err(|e| format!("{e:?}"))
                    .unwrap();
            });
            while rx.recv_into(&mut got, 1) {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        });
        assert_eq!(got, (1..23).collect::<Vec<u64>>());
        assert_eq!(rx.stats().stalls, 1, "{:?}", rx.stats());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send_all(&mut Vec::new())
            .map_err(|e| format!("{e:?}"))
            .unwrap();
        drop(tx);
        let mut got = Vec::new();
        assert!(!rx.recv_into(&mut got, 4));
        assert!(got.is_empty());
        assert_eq!(rx.stats().max_occupancy, 0);
    }

    #[test]
    fn mpsc_fan_in_conserves_items() {
        let (tx, rx) = bounded(4);
        let n_producers = 4;
        let per = 25u64;
        std::thread::scope(|s| {
            for p in 0..n_producers {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..per {
                        tx.send(p * 1000 + i).map_err(|_| "receiver gone").unwrap();
                    }
                });
            }
            drop(tx);
            let mut got: Vec<u64> = std::iter::from_fn(|| rx.recv()).collect();
            got.sort_unstable();
            let mut expect: Vec<u64> = (0..n_producers)
                .flat_map(|p| (0..per).map(move |i| p * 1000 + i))
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "fan-in must conserve every item");
        });
    }

    #[test]
    fn send_after_receiver_drop_returns_value() {
        let (tx, rx) = bounded(2);
        drop(rx);
        assert_eq!(tx.send(42), Err(42));
    }

    #[test]
    fn recv_after_senders_drop_drains_then_ends() {
        let (tx, rx) = bounded(4);
        tx.send(1).map_err(|_| "receiver gone").unwrap();
        tx.send(2).map_err(|_| "receiver gone").unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let (tx, rx) = bounded(0);
        tx.send(7).map_err(|_| "receiver gone").unwrap();
        assert_eq!(rx.stats().capacity, 1);
        assert_eq!(rx.recv(), Some(7));
    }

    #[test]
    fn try_bounded_rejects_zero_capacity_with_typed_error() {
        assert_eq!(
            try_bounded::<u32>(0).map(|_| ()),
            Err(ChannelError::ZeroCapacity)
        );
        let (tx, rx) = try_bounded::<u32>(2).map_err(|e| format!("{e:?}")).unwrap();
        tx.send(9).map_err(|_| "receiver gone").unwrap();
        assert_eq!(rx.stats().capacity, 2);
        assert_eq!(rx.recv(), Some(9));
    }
}
