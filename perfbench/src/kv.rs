//! `kv-pipelined`: one client thread drives a one-shard `KvService` as a
//! closed loop, 16 `submit` calls then one `drain` per window, and checks
//! every reply against a shadow map. Also the two ladder rungs that replay
//! the same op stream, a map-less `NoopStore` service and direct calls on
//! an `HppStore`, and the probe for the service's known defect.

use std::time::{Duration, Instant};

use bench::workload::{pin_thread, Op, OpMix, ZipfSampler};
use kv_service::{Client, Command, KvConfig, KvError, KvService, ShardStore};
use smr_common::policy::PolicyKind;

use crate::gen::{prefill_keys, Rng};
use crate::hist::Hist;
use crate::trace::Tracer;
use crate::{slice_count, Ledger, Out, Slices, Tally};

const KEYS: u64 = 65_536;
const OPS_LEN: usize = 1 << 17;
const PIPELINE: usize = 16;
const GARBAGE_EVERY: u64 = 1024;

const SPANS: &[&str] = &["kv.window", "kv-service.submit", "kv-service.drain"];
const WINDOW: usize = 0;
const SUBMIT: usize = 1;
const DRAIN: usize = 2;

/// The generated inputs: the prefill and the cycled op stream.
pub struct Inputs {
    prefill: Vec<(u64, u64)>,
    ops: Vec<Command>,
}

/// Prefill of 50% of the keys, then Zipf(0.99) keys with a 90/5/5
/// get/put/del mix.
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 0);
    let keys = prefill_keys(&mut rng, KEYS, (KEYS / 2) as usize);
    let prefill = keys.into_iter().map(|k| (k, rng.value())).collect();
    let zipf = ZipfSampler::new(KEYS, 0.99);
    let mix = OpMix::new(90, 5, 5);
    let ops = (0..OPS_LEN)
        .map(|_| {
            let op = mix.pick(rng.next());
            let key = zipf.sample(&mut rng);
            match op {
                Op::Get => Command::Get { key },
                Op::Insert => Command::Put {
                    key,
                    value: rng.value(),
                },
                Op::Remove => Command::Del { key },
            }
        })
        .collect();
    Inputs { prefill, ops }
}

const ABSENT: u64 = 0;
const UNKNOWN: u64 = u64::MAX;

/// Predicts every reply. One client thread, which drains each window
/// before it sends the next, and one shard make the commands FIFO,
/// so the reply to each command follows from the shadow state in
/// submission order. A command that fails may or may not have run, so its
/// key becomes unknown until a later reply on it shows the state again.
pub struct Checker {
    shadow: Vec<u64>,
    noop: bool,
    tally: Tally,
}

impl Checker {
    pub fn new(noop: bool) -> Self {
        Self {
            shadow: vec![ABSENT; KEYS as usize],
            noop,
            tally: Tally::default(),
        }
    }

    /// Replies that were errors or wrong.
    pub fn failed(&self) -> u64 {
        let t = &self.tally;
        t.retry_after + t.deadline + t.stopped + t.wrong_reply
    }

    pub fn error(&mut self, cmd: Command, err: KvError) {
        self.tally.attempted += 1;
        match err {
            KvError::RetryAfter(_) => self.tally.retry_after += 1,
            KvError::DeadlineExceeded => self.tally.deadline += 1,
            KvError::Stopped => self.tally.stopped += 1,
        }
        self.shadow[cmd.key() as usize] = UNKNOWN;
    }

    /// Checks one reply; returns whether it was the predicted one.
    pub fn reply(&mut self, cmd: Command, got: Option<u64>) -> bool {
        self.tally.attempted += 1;
        let slot = &mut self.shadow[cmd.key() as usize];
        let (expected, next) = if self.noop {
            let expected = match cmd {
                Command::Put { value, .. } => Some(value),
                _ => None,
            };
            (expected, ABSENT)
        } else {
            let present = (*slot != ABSENT).then_some(*slot);
            match cmd {
                Command::Get { .. } => (present, *slot),
                Command::Put { value, .. } if present.is_none() => (Some(value), value),
                Command::Put { .. } => (None, *slot),
                _ => (present, ABSENT),
            }
        };
        if *slot == UNKNOWN {
            *slot = match (cmd, got) {
                (Command::Get { .. }, Some(v)) => v,
                (Command::Put { value, .. }, Some(_)) => value,
                (Command::Put { .. }, None) => UNKNOWN,
                _ => ABSENT,
            };
            return true;
        }
        if got == expected {
            *slot = next;
            true
        } else {
            self.tally.wrong_reply += 1;
            *slot = UNKNOWN;
            false
        }
    }
}

/// What one timed window measured.
#[derive(Default)]
pub struct Window {
    ops: u64,
    elapsed: Duration,
    lat: Hist,
    garbage_sum: f64,
    garbage_samples: u64,
    next_sample: u64,
}

impl Window {
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
    pub fn garbage_mean(&self, baseline: u64) -> f64 {
        (self.garbage_sum / self.garbage_samples.max(1) as f64 - baseline as f64).max(0.0)
    }
}

/// Runs closed-loop windows of `PIPELINE` submits and one drain for
/// `millis`, continuing the op stream at `pos`. The windows take turns
/// over `clients` (see [`run`]). Latency runs from `submit` to the reply
/// being seen in `drain`; a failed op is recorded as beyond every
/// percentile.
fn run_window<S: ShardStore>(
    svc: &KvService<S>,
    clients: &mut [Client<S>],
    ops: &[Command],
    pos: &mut usize,
    chk: &mut Checker,
    millis: u64,
    mut tracer: Option<&mut Tracer>,
) -> Window {
    let mut w = Window::default();
    let mut sent = [(Command::Get { key: 0 }, Instant::now()); PIPELINE];
    let start = Instant::now();
    let end_at = start + Duration::from_millis(millis);
    loop {
        let failed_before = chk.failed();
        let client = &mut clients[0];
        let mut parent = tracer.as_mut().map(|t| t.open(WINDOW));
        let mut n = 0;
        for _ in 0..PIPELINE {
            let cmd = ops[*pos];
            *pos = (*pos + 1) % ops.len();
            let t = Instant::now();
            let r = match tracer.as_mut() {
                Some(tr) => tr.leaf(SUBMIT, parent.as_mut(), || client.submit(cmd)),
                None => client.submit(cmd),
            };
            match r {
                Ok(()) => {
                    sent[n] = (cmd, t);
                    n += 1;
                }
                Err(e) => {
                    chk.error(cmd, e);
                    w.lat.record_failed();
                }
            }
        }
        let mut done = 0;
        let sink = |i: usize, reply: Result<Option<u64>, KvError>| {
            let now = Instant::now();
            let (cmd, t) = sent[i];
            match reply {
                Ok(got) if chk.reply(cmd, got) => {
                    w.lat.record((now - t).as_nanos() as u64);
                    done += 1;
                }
                Ok(_) => w.lat.record_failed(),
                Err(e) => {
                    chk.error(cmd, e);
                    w.lat.record_failed();
                }
            }
        };
        match tracer.as_mut() {
            Some(tr) => tr.leaf(DRAIN, parent.as_mut(), || client.drain(sink)),
            None => client.drain(sink),
        }
        if let (Some(tr), Some(p)) = (tracer.as_mut(), parent) {
            tr.close(p);
        }
        if chk.failed() > failed_before {
            renew(svc, client);
        }
        clients.rotate_left(1);
        w.ops += done;
        if w.ops >= w.next_sample {
            w.garbage_sum += smr_common::counters::garbage_now() as f64;
            w.garbage_samples += 1;
            w.next_sample += GARBAGE_EVERY;
        }
        let now = Instant::now();
        if now >= end_at {
            w.elapsed = now - start;
            return w;
        }
    }
}

/// Replaces the client after a failed reply. A reply slot that reported an
/// error goes back to the client's pool while the worker may still hold
/// it (see the known defect in README.md), so a later command that reuses
/// the slot could read a stale reply. A fresh client has fresh slots; the
/// failed op stays counted and is not retried.
fn renew<S: ShardStore>(svc: &KvService<S>, client: &mut Client<S>) {
    *client = svc.client();
}

/// Writes the prefill through the clients, `PIPELINE` commands at a time,
/// taking turns as the timed windows do.
fn prefill<S: ShardStore>(
    svc: &KvService<S>,
    clients: &mut [Client<S>],
    inputs: &Inputs,
    chk: &mut Checker,
) {
    for chunk in inputs.prefill.chunks(PIPELINE) {
        let failed_before = chk.failed();
        let client = &mut clients[0];
        let mut cmds = Vec::with_capacity(PIPELINE);
        for &(key, value) in chunk {
            let cmd = Command::Put { key, value };
            match client.submit(cmd) {
                Ok(()) => cmds.push(cmd),
                Err(e) => chk.error(cmd, e),
            }
        }
        client.drain(|i, reply| match reply {
            Ok(got) => {
                chk.reply(cmds[i], got);
            }
            Err(e) => chk.error(cmds[i], e),
        });
        if chk.failed() > failed_before {
            renew(svc, client);
        }
        clients.rotate_left(1);
    }
}

fn config() -> KvConfig {
    KvConfig::new().with_shards(1)
}

/// Starts the service with its threads on core 1, then moves the calling
/// client thread to core 0, so every window crosses cores: the doorbell
/// wakes the worker on the other core and the client polls for replies
/// written there. Threads inherit the placement and timer slack of the
/// thread that spawns them.
///
/// The timer slack is set to 1 ns first. The client's reply polling
/// escalates from spinning to parking in sleeps of 0.5-1 us; under the
/// default 50 us slack each park lasted ~65 us, and whether a window
/// reached one flipped with the host's wake-up latency, so throughput
/// moved between 0.34 and 2.26 Mops from one 1 s process to the next
/// (README.md, "Placement").
fn start_across_cores<S: ShardStore>() -> KvService<S> {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: a libc call with plain integer arguments. A failure only
    // leaves the default slack in place.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    pin_thread(1);
    let svc = KvService::<S>::start(config());
    pin_thread(0);
    svc
}

/// The clients the windows take turns over. With two, a client's reply
/// slots are reused only after the worker has executed the whole window
/// that another client sent in between, so the worker has long finished
/// with them. With one, the last slot of a window is reused at once by the
/// next window's first command, and the known defect (README.md) can fail
/// that command at random; [`defect_probe`] measures that case on its own.
fn clients<S: ShardStore>(svc: &KvService<S>) -> [Client<S>; 2] {
    [svc.client(), svc.client()]
}

/// One `kv-pipelined` process for store `S`: the set-up (inputs, service
/// start and prefill), one untraced window in slices, then with `traced` a
/// second, traced one.
pub fn run<S: ShardStore>(seed: u64, millis: u64, traced: bool, out: &mut Out) {
    let inputs = inputs(seed);
    let svc = start_across_cores::<S>();
    let mut clients = clients(&svc);
    let mut chk = Checker::new(false);
    prefill(&svc, &mut clients, &inputs, &mut chk);
    let mut pos = 0;

    let untraced_ms = if traced { millis / 2 } else { millis };
    let base = smr_common::counters::garbage_now();
    out.setup_done();
    let slices = slice_count(untraced_ms);
    let mut figs = Slices::default();
    for _ in 0..slices {
        let w = run_window(
            &svc,
            &mut clients,
            &inputs.ops,
            &mut pos,
            &mut chk,
            untraced_ms / slices as u64,
            None,
        );
        figs.push(w.mops(), w.garbage_mean(base), &w.lat);
    }
    figs.report(out);

    if traced {
        let mut tracer = Tracer::new(Instant::now(), SPANS);
        let stats0 = svc.shard_stats(0);
        let ledger0 = Ledger::now();
        let tw = run_window(
            &svc,
            &mut clients,
            &inputs.ops,
            &mut pos,
            &mut chk,
            millis - untraced_ms,
            Some(&mut tracer),
        );
        let ledger = Ledger::now().since(&ledger0);
        let stats = svc.shard_stats(0);
        out.put("mops_traced", tw.mops());
        out.put("ops_traced", tw.ops as f64);
        ledger.put(out);
        out.put(
            "ops_per_batch",
            (stats.ops - stats0.ops) as f64 / (stats.batches - stats0.batches).max(1) as f64,
        );
        out.median_ns("submit_ns", tracer.durations(SUBMIT));
        out.put(
            "drain_ns",
            tracer.total_ns(DRAIN) as f64 / tw.ops.max(1) as f64,
        );
        out.median_ns("window_self_ns", tracer.self_times(WINDOW));
        out.write_spans(&tracer, "client");
    }
    drop(clients);
    svc.shutdown();
    out.tally(&chk.tally, true);
}

/// A store with no map: every get and remove misses and every insert
/// succeeds. It leaves only the service's coordination to measure.
pub struct NoopStore;

impl ShardStore for NoopStore {
    type Handle = ();

    fn new_shard(_buckets: usize, _policy: PolicyKind) -> Self {
        NoopStore
    }
    fn handle(&self) -> Self::Handle {}
    fn get(&self, _: &mut (), _key: u64) -> Option<u64> {
        None
    }
    fn insert(&self, _: &mut (), _key: u64, _value: u64) -> bool {
        true
    }
    fn remove(&self, _: &mut (), _key: u64) -> Option<u64> {
        None
    }
    fn garbage(_: &()) -> u64 {
        0
    }
    fn garbage_bound(&self) -> Option<u64> {
        None
    }
    fn quiesce(&self, _: &mut ()) {}
    fn drain_orphans(&self) {}

    const SCHEME: &'static str = "noop";
}

/// The coordination-only rung: the `kv-pipelined` op stream through a
/// `KvService<NoopStore>`, as ns per op (median of `parts` windows).
pub fn noop_rung(seed: u64, millis: u64, parts: usize, tally: &mut Tally) -> f64 {
    let inputs = inputs(seed);
    let svc = start_across_cores::<NoopStore>();
    let mut clients = clients(&svc);
    let mut chk = Checker::new(true);
    let mut pos = 0;
    let mut per_op: Vec<f64> = (0..parts)
        .map(|_| {
            let w = run_window(
                &svc,
                &mut clients,
                &inputs.ops,
                &mut pos,
                &mut chk,
                millis / parts as u64,
                None,
            );
            w.elapsed.as_nanos() as f64 / w.ops.max(1) as f64
        })
        .collect();
    drop(clients);
    svc.shutdown();
    tally.add(&chk.tally);
    crate::median(&mut per_op)
}

/// The store rung: the same op stream called directly on an `HppStore`
/// from this thread, as ns per op (median of `parts` windows).
pub fn store_rung(seed: u64, millis: u64, parts: usize, tally: &mut Tally) -> f64 {
    let inputs = inputs(seed);
    let cfg = config();
    let store = kv_service::HppStore::new_shard(cfg.buckets, cfg.policy);
    let mut h = store.handle();
    let mut chk = Checker::new(false);
    for &(key, value) in &inputs.prefill {
        let got = store.insert(&mut h, key, value).then_some(value);
        chk.reply(Command::Put { key, value }, got);
    }
    let mut pos = 0;
    let mut per_op: Vec<f64> = (0..parts)
        .map(|_| {
            let start = Instant::now();
            let end_at = start + Duration::from_millis(millis / parts as u64);
            let mut ops = 0u64;
            loop {
                for _ in 0..1024 {
                    let cmd = inputs.ops[pos];
                    pos = (pos + 1) % inputs.ops.len();
                    let got = match cmd {
                        Command::Get { key } => store.get(&mut h, key),
                        Command::Put { key, value } => {
                            store.insert(&mut h, key, value).then_some(value)
                        }
                        Command::Del { key } | Command::Crash { key } => store.remove(&mut h, key),
                    };
                    chk.reply(cmd, got);
                }
                ops += 1024;
                let now = Instant::now();
                if now >= end_at {
                    return (now - start).as_nanos() as f64 / ops as f64;
                }
            }
        })
        .collect();
    tally.add(&chk.tally);
    crate::median(&mut per_op)
}

/// Gives the known defect (README.md) a chance to show: the
/// `kv-pipelined` op stream and windows through a `KvService<NoopStore>` on
/// the other core, from one client, so each window's last reply slot is
/// reused by the next window's first command right after its reply is
/// seen. This is how `kv-pipelined` itself ran when the defect showed in
/// about one op in 20M. Each spurious error is counted in `tally`, never
/// retried.
pub fn defect_probe(seed: u64, millis: u64, tally: &mut Tally) {
    let inputs = inputs(seed);
    let svc = start_across_cores::<NoopStore>();
    let mut client = [svc.client()];
    let mut chk = Checker::new(true);
    let mut pos = 0;
    run_window(
        &svc,
        &mut client,
        &inputs.ops,
        &mut pos,
        &mut chk,
        millis,
        None,
    );
    drop(client);
    svc.shutdown();
    tally.add(&chk.tally);
}
