//! The repository benchmark's measuring process. `run.py` starts a fresh
//! one for every measurement of a (workload, scheme), so the process-global
//! `smr_common::counters` ledger and the service's leaked shard domains
//! never carry over between measurements. Each process prints one JSON
//! object of raw figures on its last line; `run.py` turns them into the
//! benchmark's metrics.
//!
//! ```text
//! perfbench work --workload <kv-pipelined|map-churn|map-long-reads>
//!                --scheme <hpp|ebr|hyaline> --seed N --millis M
//!                --trace <0|1> [--spans DIR]
//! perfbench rungs --seed N --millis M
//! ```

mod gen;
mod hist;
mod kv;
mod maps;
mod micro;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use hist::Hist;
use kv_service::{EbrStore, HppStore, HyalineStore};
use smr_common::counters;
use trace::Tracer;

type GuardedHashMap<S> = ds::hash_map::HashMap<u64, u64, ds::guarded::HHSList<u64, u64, S>>;
type GuardedList<S> = ds::guarded::HHSList<u64, u64, S>;

/// The latency reported for a percentile that falls among failed ops: the
/// service's default per-op deadline, 5 s.
const FAILED_LAT_US: f64 = 5e6;

/// Named raw figures, printed as one JSON object.
pub struct Out {
    fields: Vec<(String, f64)>,
    spans: Option<PathBuf>,
    tag: String,
    /// When the process started.
    start: Instant,
}

impl Out {
    /// Records `setup_s`: the time from process start to now, called just
    /// before the first timed op.
    pub fn setup_done(&mut self) {
        self.put("setup_s", self.start.elapsed().as_secs_f64());
    }

    pub fn put(&mut self, key: &str, value: f64) {
        self.fields.push((key.to_string(), value));
    }

    pub fn median_ns(&mut self, key: &str, h: &Hist) {
        self.put(key, h.percentile(50.0).unwrap_or(0.0));
    }

    pub fn tally(&mut self, t: &Tally, checks_ok: bool) {
        let errors = t.retry_after + t.deadline + t.stopped;
        self.put("attempted", t.attempted as f64);
        self.put("failed", (errors + t.wrong_reply) as f64);
        self.put("failed.retry_after", t.retry_after as f64);
        self.put("failed.deadline", t.deadline as f64);
        self.put("failed.stopped", t.stopped as f64);
        self.put("failed.wrong_reply", t.wrong_reply as f64);
        self.put("correct", (checks_ok && t.wrong_reply == 0) as u8 as f64);
    }

    /// The defect probe's figures. They are kept out of `attempted` and
    /// `failed`, which count the workload's own ops.
    pub fn probe(&mut self, t: &Tally) {
        self.put("probe.attempted", t.attempted as f64);
        self.put("probe.retry_after", t.retry_after as f64);
        self.put("probe.deadline", t.deadline as f64);
        self.put("probe.stopped", t.stopped as f64);
        self.put("probe.wrong_reply", t.wrong_reply as f64);
    }

    /// Writes a recorder's raw spans to `<spans dir>/<tag>-<part>.csv`.
    pub fn write_spans(&self, tracer: &Tracer, part: &str) {
        if let Some(dir) = &self.spans {
            let path = dir.join(format!("{}-{part}.csv", self.tag));
            if let Err(e) = tracer.write(&path) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
    }

    fn print(&self) {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| {
                let v = if v.is_finite() { *v } else { -1.0 };
                format!("\"{k}\": {v}")
            })
            .collect();
        println!("{{{}}}", body.join(", "));
    }
}

/// Length of one slice of a timed window. Each slice yields its own
/// throughput, latency percentiles and mean garbage, and a process reports
/// the median over its slices, so a burst of load from outside the
/// benchmark moves one slice rather than the result.
pub const SLICE_MS: u64 = 200;

pub fn slice_count(millis: u64) -> usize {
    (millis / SLICE_MS).max(1) as usize
}

/// Per-slice figures of one untimed window.
#[derive(Default)]
pub struct Slices {
    mops: Vec<f64>,
    garbage: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    pooled: Hist,
}

impl Slices {
    pub fn push(&mut self, mops: f64, garbage_mean: f64, lat: &Hist) {
        let us = |p: f64| lat.percentile(p).map_or(FAILED_LAT_US, |ns| ns / 1e3);
        self.mops.push(mops);
        self.garbage.push(garbage_mean);
        self.p50_us.push(us(50.0));
        self.p99_us.push(us(99.0));
        self.pooled.merge(lat);
    }

    pub fn mops(&self) -> f64 {
        median(&mut self.mops.clone())
    }

    /// Medians over the slices, plus, over all slices pooled, the latency
    /// sample count and the highest percentile with ten samples beyond it.
    pub fn report(&self, out: &mut Out) {
        out.put("mops", self.mops());
        out.put("garbage_mean", median(&mut self.garbage.clone()));
        out.put("lat_p50_us", median(&mut self.p50_us.clone()));
        out.put("lat_p99_us", median(&mut self.p99_us.clone()));
        let top = self.pooled.top_percentile();
        out.put("lat_top_pct", top);
        out.put(
            "lat_top_us",
            self.pooled
                .percentile(top)
                .map_or(FAILED_LAT_US, |ns| ns / 1e3),
        );
        out.put("lat_samples", self.pooled.count() as f64);
        out.put("slices", self.mops.len() as f64);
    }
}

/// Operations attempted and how they failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub wrong_reply: u64,
    pub retry_after: u64,
    pub deadline: u64,
    pub stopped: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.wrong_reply += o.wrong_reply;
        self.retry_after += o.retry_after;
        self.deadline += o.deadline;
        self.stopped += o.stopped;
    }
}

/// A reading of the process-global `smr_common::counters` ledger; windows
/// report the difference of two readings taken at their edges.
#[derive(Clone, Copy)]
pub struct Ledger {
    retired: u64,
    freed: u64,
    cas_failures: u64,
    spins: u64,
    yields: u64,
    parks: u64,
    scans_forced: u64,
}

impl Ledger {
    pub fn now() -> Self {
        let (spins, yields, parks) = counters::total_backoff();
        Self {
            retired: counters::total_retired(),
            freed: counters::total_freed(),
            cas_failures: counters::total_cas_failures(),
            spins,
            yields,
            parks,
            scans_forced: counters::policy_scans_forced(),
        }
    }

    pub fn since(&self, before: &Ledger) -> Ledger {
        Ledger {
            retired: self.retired - before.retired,
            freed: self.freed - before.freed,
            cas_failures: self.cas_failures - before.cas_failures,
            spins: self.spins - before.spins,
            yields: self.yields - before.yields,
            parks: self.parks - before.parks,
            scans_forced: self.scans_forced - before.scans_forced,
        }
    }

    pub fn put(&self, out: &mut Out) {
        out.put("d_retired", self.retired as f64);
        out.put("d_freed", self.freed as f64);
        out.put("d_cas_failures", self.cas_failures as f64);
        out.put("d_spins", self.spins as f64);
        out.put("d_yields", self.yields as f64);
        out.put("d_parks", self.parks as f64);
        out.put("d_scans_forced", self.scans_forced as f64);
    }
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

struct Args {
    cmd: String,
    workload: String,
    scheme: String,
    seed: u64,
    millis: u64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing command (work|rungs)")?;
    let mut a = Args {
        cmd,
        workload: String::new(),
        scheme: String::new(),
        seed: 1,
        millis: 1000,
        trace: false,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--scheme" => a.scheme = val.clone(),
            "--seed" => a.seed = num()?,
            "--millis" => a.millis = num()?.max(1),
            "--trace" => a.trace = num()? != 0,
            "--spans" => a.spans = Some(PathBuf::from(&val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Out {
        fields: Vec::new(),
        spans: args.spans.clone(),
        tag: format!("{}-{}", args.workload, args.scheme),
        start,
    };
    if let Some(dir) = &args.spans {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
        }
    }
    let (seed, ms, tr) = (args.seed, args.millis, args.trace);
    match (
        args.cmd.as_str(),
        args.workload.as_str(),
        args.scheme.as_str(),
    ) {
        ("work", "kv-pipelined", "hpp") => kv::run::<HppStore>(seed, ms, tr, &mut out),
        ("work", "kv-pipelined", "ebr") => kv::run::<EbrStore>(seed, ms, tr, &mut out),
        ("work", "kv-pipelined", "hyaline") => kv::run::<HyalineStore>(seed, ms, tr, &mut out),
        ("work", "map-churn", "hpp") => {
            maps::run::<ds::hpp::HashMap<u64, u64>>(maps::CHURN, seed, ms, tr, &mut out)
        }
        ("work", "map-churn", "ebr") => {
            maps::run::<GuardedHashMap<ebr::Ebr>>(maps::CHURN, seed, ms, tr, &mut out)
        }
        ("work", "map-churn", "hyaline") => {
            maps::run::<GuardedHashMap<hyaline::Hyaline>>(maps::CHURN, seed, ms, tr, &mut out)
        }
        ("work", "map-long-reads", "hpp") => {
            maps::run::<ds::hpp::HHSList<u64, u64>>(maps::LONG_READS, seed, ms, tr, &mut out)
        }
        ("work", "map-long-reads", "ebr") => {
            maps::run::<GuardedList<ebr::Ebr>>(maps::LONG_READS, seed, ms, tr, &mut out)
        }
        ("work", "map-long-reads", "hyaline") => {
            maps::run::<GuardedList<hyaline::Hyaline>>(maps::LONG_READS, seed, ms, tr, &mut out)
        }
        ("rungs", _, _) => {
            let mut tally = Tally::default();
            out.put("noop_op_ns", kv::noop_rung(seed, ms / 6, 5, &mut tally));
            out.put("store_op_ns", kv::store_rung(seed, ms / 6, 5, &mut tally));
            let mut probe = Tally::default();
            kv::defect_probe(seed, ms * 2 / 3, &mut probe);
            out.probe(&probe);
            micro::run(&mut out);
            out.tally(&tally, probe.wrong_reply == 0);
        }
        (cmd, workload, scheme) => {
            eprintln!("perfbench: unknown command/workload/scheme: {cmd} {workload} {scheme}");
            std::process::exit(2);
        }
    }
    out.print();
}
