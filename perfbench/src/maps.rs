//! `map-churn` and `map-long-reads`: two load threads run a pre-generated
//! op stream against one map, bypassing `kv-service`. In untraced windows
//! only the main thread reads the clock, at slice edges; a load thread
//! times one op in `LAT_EVERY` for the latency percentiles. Traced windows
//! time every op as a span.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bench::workload::{pin_thread, Op, OpMix};
use smr_common::ConcurrentMap;

use crate::gen::{map_ops, map_value, prefill_keys, Rng};
use crate::hist::Hist;
use crate::trace::Tracer;
use crate::{slice_count, Ledger, Out, Slices, Tally};

const THREADS: usize = 2;
const OPS_LEN: usize = 1 << 16;
/// Ops between two checks of the slice clock; one of them is timed.
const LAT_EVERY: usize = 64;
const GARBAGE_EVERY: u64 = 1024;

const SPANS: &[&str] = &["ds.get", "ds.insert", "ds.remove"];

/// The shape of one map workload.
#[derive(Clone, Copy)]
pub struct Spec {
    pub range: u64,
    pub prefill: usize,
    /// Get/insert/remove percentages.
    pub mix: (u32, u32, u32),
}

/// Write-only 50/50 insert/remove over a hash map half full of 1,024 keys.
pub const CHURN: Spec = Spec {
    range: 1024,
    prefill: 512,
    mix: (0, 50, 50),
};

/// 90/5/5 get/insert/remove over one list half full of 4,096 keys.
pub const LONG_READS: Spec = Spec {
    range: 4096,
    prefill: 2048,
    mix: (90, 5, 5),
};

/// One thread's counts for one window.
#[derive(Default)]
struct Counts {
    ops: u64,
    inserts: u64,
    inserts_ok: u64,
    removes: u64,
    removes_ok: u64,
    wrong: u64,
    garbage_sum: f64,
    garbage_samples: u64,
    lat: Hist,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.ops += o.ops;
        self.inserts += o.inserts;
        self.inserts_ok += o.inserts_ok;
        self.removes += o.removes;
        self.removes_ok += o.removes_ok;
        self.wrong += o.wrong;
        self.garbage_sum += o.garbage_sum;
        self.garbage_samples += o.garbage_samples;
        self.lat.merge(&o.lat);
    }
}

#[inline]
fn apply<M: ConcurrentMap<u64, u64>>(
    map: &M,
    h: &mut M::Handle,
    (op, k): (Op, u64),
    c: &mut Counts,
) {
    match op {
        Op::Get => {
            c.wrong += map.get(h, &k).is_some_and(|v| v != map_value(k)) as u64;
        }
        Op::Insert => {
            c.inserts += 1;
            c.inserts_ok += map.insert(h, k, map_value(k)) as u64;
        }
        Op::Remove => {
            c.removes += 1;
            if let Some(v) = map.remove(h, &k) {
                c.removes_ok += 1;
                c.wrong += (v != map_value(k)) as u64;
            }
        }
    }
}

fn span_of(op: Op) -> usize {
    match op {
        Op::Get => 0,
        Op::Insert => 1,
        Op::Remove => 2,
    }
}

/// Runs the op stream from `pos` until `clock` reaches `slices`, closing
/// one `Counts` each time the main thread advances `clock`.
fn window<M: ConcurrentMap<u64, u64>>(
    map: &M,
    h: &mut M::Handle,
    ops: &[(Op, u64)],
    pos: &mut usize,
    clock: &AtomicUsize,
    slices: usize,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Counts> {
    let mut done = Vec::with_capacity(slices);
    let mut c = Counts::default();
    let mask = ops.len() - 1;
    let mut next_sample = 0;
    loop {
        match tracer.as_mut() {
            None => {
                for _ in 1..LAT_EVERY {
                    apply(map, h, ops[*pos], &mut c);
                    *pos = (*pos + 1) & mask;
                }
                let t = Instant::now();
                apply(map, h, ops[*pos], &mut c);
                c.lat.record(t.elapsed().as_nanos() as u64);
                *pos = (*pos + 1) & mask;
            }
            Some(tr) => {
                for _ in 0..LAT_EVERY {
                    let op = ops[*pos];
                    tr.leaf(span_of(op.0), None, || apply(map, h, op, &mut c));
                    *pos = (*pos + 1) & mask;
                }
            }
        }
        c.ops += LAT_EVERY as u64;
        if c.ops >= next_sample {
            c.garbage_sum += smr_common::counters::garbage_now() as f64;
            c.garbage_samples += 1;
            next_sample += GARBAGE_EVERY;
        }
        let now = clock.load(Relaxed);
        while done.len() < now {
            done.push(std::mem::take(&mut c));
            next_sample = 0;
        }
        if done.len() == slices {
            return done;
        }
    }
}

/// One window's results: per slice, the counts summed over the load
/// threads and the slice's length.
struct WindowResult {
    slices: Vec<(Counts, Duration)>,
    garbage_base: u64,
    ledger: Ledger,
    tracers: Vec<Tracer>,
}

impl WindowResult {
    fn total(&self) -> Counts {
        let mut t = Counts::default();
        for (c, _) in &self.slices {
            t.add(c);
        }
        t
    }

    fn elapsed(&self) -> Duration {
        self.slices.iter().map(|(_, d)| *d).sum()
    }
}

/// One map process for map type `M`: the set-up (map construction,
/// prefill and load-thread start), one untraced window in slices, then
/// with `traced` a second, traced one.
pub fn run<M>(spec: Spec, seed: u64, millis: u64, traced: bool, out: &mut Out)
where
    M: ConcurrentMap<u64, u64> + Sync,
{
    // (length, slices, traced) per window.
    let windows: Vec<(u64, usize, bool)> = if traced {
        vec![
            (millis / 2, slice_count(millis / 2), false),
            (millis - millis / 2, 1, true),
        ]
    } else {
        vec![(millis, slice_count(millis), false)]
    };
    let mut rng = Rng::new(seed, 0);
    let prefill = prefill_keys(&mut rng, spec.range, spec.prefill);
    let (get, insert, remove) = spec.mix;
    let mix = OpMix::new(get, insert, remove);
    let streams: Vec<Vec<(Op, u64)>> = (0..THREADS)
        .map(|t| map_ops(&mut Rng::new(seed, 1 + t as u64), OPS_LEN, spec.range, &mix))
        .collect();
    let map = M::new();
    let mut h = map.handle();
    for &k in &prefill {
        assert!(
            map.insert(&mut h, k, map_value(k)),
            "prefill keys are distinct"
        );
    }
    let barrier = Barrier::new(THREADS + 1);
    let clocks: Vec<AtomicUsize> = windows.iter().map(|_| AtomicUsize::new(0)).collect();
    let results = std::thread::scope(|s| {
        let workers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(tid, ops)| {
                let (map, barrier, clocks, windows) = (&map, &barrier, &clocks, &windows);
                s.spawn(move || {
                    pin_thread(tid);
                    let mut h = map.handle();
                    let mut pos = 0;
                    barrier.wait(); // set up
                    let mut mine = Vec::new();
                    for (w, &(_, slices, traced)) in windows.iter().enumerate() {
                        let mut tracer = traced.then(|| Tracer::new(Instant::now(), SPANS));
                        barrier.wait();
                        let c = window(
                            map,
                            &mut h,
                            ops,
                            &mut pos,
                            &clocks[w],
                            slices,
                            tracer.as_mut(),
                        );
                        mine.push((c, tracer));
                        barrier.wait();
                    }
                    mine
                })
            })
            .collect();
        barrier.wait(); // the load threads are set up
        let mut edges = Vec::new();
        for (w, &(ms, slices, _)) in windows.iter().enumerate() {
            let garbage_base = smr_common::counters::garbage_now();
            let ledger0 = Ledger::now();
            if w == 0 {
                out.setup_done();
            }
            let start = Instant::now();
            barrier.wait();
            let mut lens = Vec::with_capacity(slices);
            let mut prev = start;
            for i in 1..=slices {
                let due = start + Duration::from_millis(ms * i as u64 / slices as u64);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let now = Instant::now();
                clocks[w].store(i, Relaxed);
                lens.push(now - prev);
                prev = now;
            }
            barrier.wait();
            edges.push((lens, garbage_base, Ledger::now().since(&ledger0)));
        }
        let mut per_thread: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked").into_iter())
            .collect();
        edges
            .into_iter()
            .map(|(lens, garbage_base, ledger)| {
                let mut slices: Vec<(Counts, Duration)> =
                    lens.into_iter().map(|d| (Counts::default(), d)).collect();
                let mut tracers = Vec::new();
                for t in per_thread.iter_mut() {
                    let (counts, tr) = t.next().expect("one result per window");
                    for ((sum, _), c) in slices.iter_mut().zip(&counts) {
                        sum.add(c);
                    }
                    tracers.extend(tr);
                }
                WindowResult {
                    slices,
                    garbage_base,
                    ledger,
                    tracers,
                }
            })
            .collect::<Vec<_>>()
    });
    report(&map, &mut h, spec, &results, out);
}

fn report<M: ConcurrentMap<u64, u64>>(
    map: &M,
    h: &mut M::Handle,
    spec: Spec,
    results: &[WindowResult],
    out: &mut Out,
) {
    let first = &results[0];
    let mut figs = Slices::default();
    for (c, len) in &first.slices {
        let mean = c.garbage_sum / c.garbage_samples.max(1) as f64;
        let garbage = (mean - first.garbage_base as f64).max(0.0);
        figs.push(c.ops as f64 / len.as_secs_f64() / 1e6, garbage, &c.lat);
    }
    figs.report(out);

    // Output check: the net successful inserts must equal the growth of
    // the map, every stored value must be the one written, and the ledger
    // must never have freed more than was retired.
    let mut total = Counts::default();
    for r in results {
        total.add(&r.total());
    }
    let mut final_len = 0i64;
    for k in 0..spec.range {
        if let Some(v) = map.get(h, &k) {
            final_len += 1;
            total.wrong += (v != map_value(k)) as u64;
        }
    }
    let net = total.inserts_ok as i64 - total.removes_ok as i64;
    let balanced = net == final_len - spec.prefill as i64;
    let freed_ok = smr_common::counters::total_freed() <= smr_common::counters::total_retired();
    if !balanced {
        eprintln!(
            "perfbench: final size {final_len} != prefill {} + net inserts {net}",
            spec.prefill
        );
    }
    if !freed_ok {
        eprintln!("perfbench: the ledger freed more blocks than were retired");
    }
    let tally = Tally {
        attempted: total.ops,
        wrong_reply: total.wrong,
        ..Tally::default()
    };
    out.tally(&tally, balanced && freed_ok);

    if let Some(traced) = results.get(1) {
        let tc = traced.total();
        out.put(
            "mops_traced",
            tc.ops as f64 / traced.elapsed().as_secs_f64() / 1e6,
        );
        out.put("ops_traced", tc.ops as f64);
        traced.ledger.put(out);
        let mut all = Tracer::new(Instant::now(), SPANS);
        for (tid, tr) in traced.tracers.iter().enumerate() {
            out.write_spans(tr, &format!("t{tid}"));
            all.merge(tr);
        }
        for (i, name) in ["get_ns", "insert_ns", "remove_ns"].into_iter().enumerate() {
            out.median_ns(name, all.durations(i));
        }
        out.put(
            "insert_hit_frac",
            tc.inserts_ok as f64 / tc.inserts.max(1) as f64,
        );
        out.put(
            "remove_hit_frac",
            tc.removes_ok as f64 / tc.removes.max(1) as f64,
        );
    }
}
