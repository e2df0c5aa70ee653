//! The timed window's bookkeeping and the end-to-end metrics, plus the
//! serving stack's cache and certificate counters.

use std::time::Duration;

use hac_serve::json::Json;
use hac_serve::Server;

use crate::gate;
use crate::gen::Spec;
use crate::Args;

/// One reported metric: name, unit and measured value.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The timed window. Per request it keeps only the latency (and, in the
/// traced run, the spec), so the untraced run's peak RSS is the
/// server's, not the benchmark's bookkeeping.
pub struct Window {
    pub requests: usize,
    pub lat_us: Vec<f32>,
    /// Every request's spec, kept by the traced run only (the daemon
    /// replay and the per-program table need them).
    specs: Option<Vec<Spec>>,
    /// Requests whose outcome differs from the expected one.
    pub failed: usize,
    /// Requests that got no reply at all.
    pub dropped: usize,
    pub sample: gate::Sample,
    pub elapsed: Duration,
    pub cpu: Duration,
    pub rss_mb: f64,
}

impl Window {
    pub fn new(args: &Args) -> Window {
        Window {
            requests: 0,
            lat_us: Vec::new(),
            specs: args.trace.then(Vec::new),
            failed: 0,
            dropped: 0,
            sample: gate::Sample::new(args.workload.reference_cap(), args.seed),
            elapsed: Duration::ZERO,
            cpu: Duration::ZERO,
            rss_mb: 0.0,
        }
    }

    pub fn push(&mut self, spec: Spec, lat: Duration, reply: Option<(&str, Option<String>)>) {
        match reply {
            Some((status, digest)) => {
                if status != spec.expect.as_str() {
                    self.failed += 1;
                }
                self.sample.offer(&spec, || (status.to_string(), digest));
            }
            None => {
                self.failed += 1;
                self.dropped += 1;
            }
        }
        self.requests += 1;
        self.lat_us.push((lat.as_secs_f64() * 1e6) as f32);
        if let Some(specs) = self.specs.as_mut() {
            specs.push(spec);
        }
    }

    /// The specs the traced run kept.
    pub fn specs(&self) -> &[Spec] {
        self.specs.as_deref().unwrap_or(&[])
    }

    pub fn e2e(&self, setups: &[Duration]) -> Vec<Metric> {
        let n = self.requests as f64;
        let completed = (self.requests - self.dropped) as f64;
        let lat: Vec<f64> = self.lat_us.iter().map(|&l| f64::from(l)).collect();
        let setup: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
        vec![
            metric("req_per_s", "1/s", completed / self.elapsed.as_secs_f64()),
            metric("latency_p50_us", "us", percentile(&lat, 0.50)),
            metric("latency_p90_us", "us", percentile(&lat, 0.90)),
            metric("cpu_us_per_req", "us", self.cpu.as_secs_f64() * 1e6 / n),
            metric("ok_rate", "ratio", (n - self.failed as f64) / n),
            metric("peak_rss_mb", "MB", self.rss_mb),
            metric("setup_s", "s", percentile(&setup, 0.50)),
        ]
    }
}

/// Linear-interpolated percentile, `q` in [0, 1].
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
/// Cache and certificate counters, from a `Server` or a daemon's
/// `stats` reply.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    pub pc_lookups: u64,
    pub pc_hits: u64,
    pub pc_evictions: u64,
    pub rc_lookups: u64,
    pub rc_hits: u64,
    pub rc_deltas: u64,
    pub rc_evictions: u64,
    pub rc_resident_bytes: u64,
    pub certified: u64,
    pub open: u64,
    pub panics_recovered: u64,
}

impl Ledger {
    pub fn of(server: &Server) -> Ledger {
        let pc = server.cache_stats();
        let rc = server.result_cache_stats();
        let cs = server.cert_stats();
        Ledger {
            pc_lookups: pc.lookups,
            pc_hits: pc.hits,
            pc_evictions: pc.evictions,
            rc_lookups: rc.lookups,
            rc_hits: rc.hits,
            rc_deltas: rc.deltas,
            rc_evictions: rc.evictions,
            rc_resident_bytes: rc.resident_bytes,
            certified: cs.certified,
            open: cs.open,
            panics_recovered: 0,
        }
    }

    pub fn from_stats(j: &Json) -> Result<Ledger, String> {
        let get = |obj: &str, key: &str| {
            j.get(obj)
                .and_then(|o| o.get(key))
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats reply lacks {obj}.{key}"))
        };
        Ok(Ledger {
            pc_lookups: get("cache", "lookups")?,
            pc_hits: get("cache", "hits")?,
            pc_evictions: get("cache", "evictions")?,
            rc_lookups: get("result_cache", "lookups")?,
            rc_hits: get("result_cache", "hits")?,
            rc_deltas: get("result_cache", "deltas")?,
            rc_evictions: get("result_cache", "evictions")?,
            rc_resident_bytes: get("result_cache", "resident_bytes")?,
            certified: get("certificates", "certified")?,
            open: get("certificates", "open")?,
            panics_recovered: get("daemon", "panics_recovered")?,
        })
    }

    /// Counts accumulated since `before`; gauges keep this reading.
    pub fn since(self, before: Ledger) -> Ledger {
        Ledger {
            pc_lookups: self.pc_lookups - before.pc_lookups,
            pc_hits: self.pc_hits - before.pc_hits,
            pc_evictions: self.pc_evictions - before.pc_evictions,
            rc_lookups: self.rc_lookups - before.rc_lookups,
            rc_hits: self.rc_hits - before.rc_hits,
            rc_deltas: self.rc_deltas - before.rc_deltas,
            rc_evictions: self.rc_evictions - before.rc_evictions,
            rc_resident_bytes: self.rc_resident_bytes,
            certified: self.certified - before.certified,
            open: self.open - before.open,
            panics_recovered: self.panics_recovered - before.panics_recovered,
        }
    }
}

pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
