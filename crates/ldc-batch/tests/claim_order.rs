//! `sharded_map` is work-conserving: executors claim items in index order
//! from one shared cursor, so a blocked item never holds up the next one.
//!
//! This is its own test binary so that no other test dispatches to the
//! process-wide pool concurrently (a busy pool runs a dispatch inline).

use ldc_batch::sharded_map;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

#[test]
fn item_zero_can_wait_for_item_one_at_two_shards() {
    let (done_tx, done_rx) = channel::<()>();
    let done_rx = Mutex::new(done_rx);
    let items = [0usize, 1, 2, 3];
    // Item 0 blocks until item 1 has finished. Under a static split, items
    // 0 and 1 share one executor and item 0 times out; with a shared
    // cursor the second executor claims item 1 while item 0 waits.
    let out = sharded_map(2, &items, |i, &x| {
        match i {
            0 => {
                let got = done_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(10));
                assert_ne!(got, Err(RecvTimeoutError::Timeout), "item 1 never ran");
            }
            1 => done_tx.send(()).unwrap(),
            _ => {}
        }
        x * 10
    });
    assert_eq!(out, vec![0, 10, 20, 30]);
}
