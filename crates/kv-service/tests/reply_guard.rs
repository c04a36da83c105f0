//! Regression test for reply-slot reuse racing the worker's reply guard.
//!
//! Clients pool reply slots: as soon as a reply is published, `drain` may
//! return its slot to the pool and the next `submit` may `reset` it for a
//! new command. The worker must therefore be done with a slot the moment
//! it publishes into it. When the reply guard's "fail if still pending"
//! check ran *after* the publish, a reused slot could be caught pending by
//! it and the new command failed with a spurious
//! `RetryAfter(Generation(0))` on a healthy shard.
//!
//! The `kv::worker::reply` fault point sits between the publish and the
//! end of the worker's reply handling, so a stall there holds the worker
//! inside exactly that window while the client reuses the slot. A second
//! stall at the end of the batch then holds the worker before it executes
//! the reused slot's new command, so the client reads the slot in the
//! state the window left it in.
//!
//! Requires `--features fault-injection`.
#![cfg(feature = "fault-injection")]

use std::time::{Duration, Instant};

use kv_service::{Command, KvConfig, KvService, NrStore};
use smr_common::fault::{self, FaultAction};

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn slot_reused_between_publish_and_guard_teardown_gets_its_real_reply() {
    let _plan = fault::plan()
        .at("kv::worker::reply", 1, FaultAction::Stall)
        .at("kv::worker::batch", 1, FaultAction::Stall)
        .install();
    // Batches of one: the worker ends its batch after the first command,
    // before it pops the second.
    let svc = KvService::<NrStore>::start(KvConfig {
        shards: 1,
        batch: 1,
        ring_depth: 16,
        buckets: 16,
        ..KvConfig::new()
    });
    let mut client = svc.client();

    client.submit(Command::Put { key: 1, value: 10 }).unwrap();
    wait_for("the worker to stall after publishing", || {
        fault::stalled_count("kv::worker::reply") == 1
    });

    // The reply is published before the stall point, so this drain
    // returns while the worker is still inside the window — and pools the
    // command's slot.
    let mut first = Vec::new();
    client.drain(|_, r| first.push(r));
    assert_eq!(first, [Ok(Some(10))]);

    // The client's only pooled slot: the next submit takes and resets it
    // while the worker has not left the window yet.
    client.submit(Command::Get { key: 1 }).unwrap();
    fault::release("kv::worker::reply");
    wait_for("the worker to finish its first batch", || {
        fault::stalled_count("kv::worker::batch") == 1
    });

    // The worker has left the window but not executed the Get. Release it
    // only once the drain below has had time to read the slot: a slot the
    // window marked dropped would fail the Get right away.
    let releaser = std::thread::spawn(|| {
        std::thread::sleep(Duration::from_millis(50));
        fault::release("kv::worker::batch");
    });
    let mut second = Vec::new();
    client.drain(|_, r| second.push(r));
    releaser.join().unwrap();
    assert_eq!(second, [Ok(Some(10))], "the reused slot must get its own reply");
    svc.shutdown();
}
