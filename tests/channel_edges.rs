//! Edge-case tests for the `ros_exec::channel` seams: every disconnect
//! and misconfiguration path returns a typed result — `Err(value)`
//! handing the rejected item back, `None` on drain-after-disconnect,
//! `ChannelError::ZeroCapacity` at construction, and for the batch
//! forms `ChannelError::Disconnected` with the unsent items left in
//! the caller's `Vec` and `recv_into` returning `false` only at the
//! end — and none of them panics.

use ros_exec::channel::{bounded, try_bounded, ChannelError};

#[test]
fn send_after_receiver_drop_hands_every_value_back() {
    let (tx, rx) = bounded::<u64>(2);
    drop(rx);
    // Repeated sends keep failing fast with the value intact — no
    // panic, no silent drop, no block on the full-buffer path.
    for i in 0..10 {
        assert_eq!(tx.send(i), Err(i));
    }
    // A clone of the sender sees the same disconnect.
    let tx2 = tx.clone();
    assert_eq!(tx2.send(99), Err(99));
}

#[test]
fn recv_after_sender_drop_drains_buffer_then_signals_end() {
    let (tx, rx) = bounded::<u64>(4);
    tx.send(1).map_err(|_| "receiver gone").unwrap();
    tx.send(2).map_err(|_| "receiver gone").unwrap();
    let tx2 = tx.clone();
    drop(tx);
    tx2.send(3).map_err(|_| "receiver gone").unwrap();
    drop(tx2);
    // Buffered items survive the disconnect in order; only then does
    // the channel report the end — and keeps reporting it.
    assert_eq!(rx.recv(), Some(1));
    assert_eq!(rx.recv(), Some(2));
    assert_eq!(rx.recv(), Some(3));
    assert_eq!(rx.recv(), None);
    assert_eq!(rx.recv(), None, "end of stream is sticky");
}

#[test]
fn zero_capacity_is_a_typed_construction_error() {
    assert_eq!(
        try_bounded::<u64>(0).map(|_| ()),
        Err(ChannelError::ZeroCapacity)
    );
    // The error is plain data: comparable, copyable, debuggable.
    let e = ChannelError::ZeroCapacity;
    let e2 = e;
    assert_eq!(format!("{e2:?}"), "ZeroCapacity");
    // The infallible constructor keeps its clamping contract for
    // internal call sites.
    let (tx, rx) = bounded::<u64>(0);
    assert_eq!(tx.stats().capacity, 1);
    tx.send(5).map_err(|_| "receiver gone").unwrap();
    drop(tx);
    assert_eq!(rx.recv(), Some(5));
    assert_eq!(rx.recv(), None);
}

#[test]
fn send_all_after_receiver_drop_keeps_every_item() {
    let (tx, rx) = bounded::<u64>(4);
    drop(rx);
    let mut items: Vec<u64> = (0..6).collect();
    assert_eq!(tx.send_all(&mut items), Err(ChannelError::Disconnected));
    assert_eq!(
        items,
        (0..6).collect::<Vec<u64>>(),
        "nothing sent, nothing lost"
    );
}

#[test]
fn receiver_drop_mid_batch_leaves_the_unsent_suffix_in_the_vec() {
    let (tx, rx) = bounded::<u64>(3);
    let n = 40u64;
    std::thread::scope(|s| {
        let producer = s.spawn(move || {
            let mut items: Vec<u64> = (0..n).collect();
            let r = tx.send_all(&mut items);
            (r, items)
        });
        // Take a few items, then hang up while the producer is still
        // blocked on a full buffer.
        let mut got = Vec::new();
        while got.len() < 5 {
            assert!(rx.recv_into(&mut got, 2));
        }
        drop(rx);
        let (r, left) = producer.join().unwrap();
        assert_eq!(r, Err(ChannelError::Disconnected));
        assert_eq!(
            got,
            (0..got.len() as u64).collect::<Vec<u64>>(),
            "FIFO prefix received"
        );
        // The unsent items are the batch's tail, in order; the ones in
        // between were in the buffer when the receiver went away.
        assert!(
            !left.is_empty(),
            "a 40-item batch cannot fit 3 slots + 5 taken"
        );
        let first = n - left.len() as u64;
        assert!(first >= got.len() as u64);
        assert_eq!(left, (first..n).collect::<Vec<u64>>());
    });
}

#[test]
fn recv_into_honours_max_and_ends_only_when_drained_and_disconnected() {
    let (tx, rx) = bounded::<u64>(8);
    let mut batch: Vec<u64> = (0..5).collect();
    tx.send_all(&mut batch)
        .map_err(|_| "receiver gone")
        .unwrap();
    let tx2 = tx.clone();
    drop(tx);
    let mut out = Vec::new();
    assert!(rx.recv_into(&mut out, 2));
    assert_eq!(out, [0, 1], "at most `max` items per call");
    // A `max` of 0 still makes progress: one item.
    assert!(rx.recv_into(&mut out, 0));
    assert_eq!(out, [0, 1, 2]);
    // A sender is still alive: the buffered tail comes out, and the
    // channel is not over while `tx2` exists.
    assert!(rx.recv_into(&mut out, 10));
    assert_eq!(out, [0, 1, 2, 3, 4]);
    tx2.send(5).map_err(|_| "receiver gone").unwrap();
    drop(tx2);
    assert!(
        rx.recv_into(&mut out, 10),
        "buffered items outlive the senders"
    );
    assert_eq!(out, [0, 1, 2, 3, 4, 5]);
    assert!(!rx.recv_into(&mut out, 10), "drained and disconnected");
    assert!(!rx.recv_into(&mut out, 10), "end of stream is sticky");
    assert_eq!(out.len(), 6, "nothing appended at the end");
}
