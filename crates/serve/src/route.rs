//! Result-cache routing: how an admitted request is served from the
//! [`ResultCache`](crate::cache::ResultCache) — a verbatim hit, a wait
//! on an earlier filler, a delta replay over a family snapshot, or a
//! full run that fills the slots it was elected for.

use std::collections::HashMap;
use std::sync::Arc;

use hac_core::pipeline::{
    run_delta, run_units, Compiled, Engine, ExecMode, ExecOutput, ExecState, RunOptions,
};
use hac_runtime::error::RuntimeError;
use hac_runtime::governor::{Limits, Meter};
use hac_runtime::value::{ArrayBuf, FuncTable};

use crate::cache::{CachedOutcome, FamilyEntry, Payload, Probe, SlotKey};
use crate::{
    family_key, faults_active, result_key, Admitted, Request, Response, ResultClass, Server,
};

/// One `Pending` result-cache slot install: its key and its token (the
/// installer's admission ordinal).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Claim {
    key: SlotKey,
    token: u64,
}

/// How the result cache serves an admitted request, decided on the
/// sequential admission path. Every `fill` (and a `Miss`'s `family`)
/// names a `Pending` slot this request must resolve before returning;
/// every `wait` names an earlier-admitted filler's slot.
pub(crate) enum ResultRoute {
    /// Result caching is off for this request.
    Bypass,
    /// A cached outcome was `Ready` at admission: serve it verbatim.
    Hit(Arc<CachedOutcome>),
    /// An earlier-admitted filler is computing this exact outcome:
    /// wait for it (safe — waits only ever target earlier ordinals).
    WaitHit { wait: Claim },
    /// A family snapshot was `Ready`: replay only the update.
    Delta { fill: Claim, fam: Arc<FamilyEntry> },
    /// An earlier-admitted filler is snapshotting this family: wait,
    /// then replay the update against its snapshot.
    WaitDelta { fill: Claim, wait: Claim },
    /// Cold: run the full pipeline and fill the result slot — and the
    /// family slot (whose bytes were ceiling-reserved at admission),
    /// when this request was elected the family filler.
    Miss { fill: Claim, family: Option<Claim> },
}

/// Drop guard for a filler's `Pending` slots: any path that returns
/// (or panics) without resolving them marks the slots `Failed` and
/// refunds family bytes, so waiters never block on a dead filler.
/// Disarmed piecewise as each obligation is met.
pub(crate) struct FillGuard<'a> {
    pub(crate) server: &'a Server,
    pub(crate) full: Option<Claim>,
    pub(crate) family: Option<Claim>,
}

impl Drop for FillGuard<'_> {
    fn drop(&mut self) {
        if self.full.is_none() && self.family.is_none() {
            return;
        }
        let mut rc = self.server.results.lock().expect("result cache lock");
        let bytes: u64 = [self.full.take(), self.family.take()]
            .into_iter()
            .flatten()
            .map(|c| rc.fail(c.key, c.token))
            .sum();
        drop(rc);
        self.server.ceiling.refund_mem(bytes);
        self.server.results_cv.notify_all();
    }
}

impl Server {
    /// Decide how the result cache serves an admitted request. Runs
    /// on the sequential admission path, so cache membership,
    /// eviction, and filler election are pure functions of the
    /// admission sequence — execution threads later only resolve the
    /// slots installed here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn route_result(
        &self,
        req: &Request,
        compiled: &Compiled,
        mode: ExecMode,
        engine: Engine,
        limits: Limits,
        meter: &Meter,
        ordinal: u64,
    ) -> ResultRoute {
        // Bypass gates, all admission-computable: caching off, a fault
        // plan in force, or a meter that draws the shared pool lazily
        // (its exhaustion point depends on sibling requests, so its
        // outcome is not a pure function of the request).
        if self.options.result_cache_cap == 0
            || faults_active(&self.options)
            || meter.draws_lazily()
            || meter.draws_mem_lazily()
        {
            return ResultRoute::Bypass;
        }
        let key = SlotKey::Full(result_key(req, mode, engine, limits));
        let cost = compiled.units.len() as u64;
        let mut rc = self.results.lock().expect("result cache lock");
        match rc.probe(key, ordinal) {
            Probe::Ready(Payload::Full(o)) => return ResultRoute::Hit(o),
            Probe::Pending { token } => {
                return ResultRoute::WaitHit {
                    wait: Claim { key, token },
                }
            }
            _ => {}
        }
        // Cold at the full key: this request becomes its filler.
        let mut freed = rc.install(key, ordinal, cost, 0);
        let fill = Claim {
            key,
            token: ordinal,
        };
        let route = match &compiled.delta {
            None => ResultRoute::Miss { fill, family: None },
            Some(plan) => {
                let fkey = SlotKey::Family(family_key(req, &plan.params, mode, engine));
                match rc.probe(fkey, ordinal) {
                    Probe::Ready(Payload::Family(fam)) => ResultRoute::Delta { fill, fam },
                    Probe::Pending { token } => ResultRoute::WaitDelta {
                        fill,
                        wait: Claim { key: fkey, token },
                    },
                    // Elect this request the family filler — if the
                    // pool covers the snapshot's residency (charged
                    // now, deterministically, from the plan's static
                    // byte count).
                    _ if self.ceiling.reserve_mem(plan.prefix_bytes) => {
                        let bytes = plan.prefix_bytes;
                        freed += rc.install(fkey, ordinal, cost.saturating_sub(1), bytes);
                        let family = Some(Claim {
                            key: fkey,
                            token: ordinal,
                        });
                        ResultRoute::Miss { fill, family }
                    }
                    _ => ResultRoute::Miss { fill, family: None },
                }
            }
        };
        drop(rc);
        self.ceiling.refund_mem(freed);
        route
    }

    /// Block until the `Pending` slot `wait` names resolves; `None`
    /// means the filler failed or the slot vanished. Waits only while
    /// that exact install is pending — a re-installed slot belongs to
    /// a *later* ordinal, and waiting on one could deadlock a
    /// single-worker batch. The install this waits on was admitted
    /// earlier, so its filler is already running (workers drain in
    /// admission order): the wait always makes progress.
    pub(crate) fn await_slot(&self, wait: Claim) -> Option<Payload> {
        let mut rc = self.results.lock().expect("result cache lock");
        loop {
            match rc.peek(wait.key) {
                Probe::Ready(p) => return Some(p),
                Probe::Pending { token } if token == wait.token => {
                    rc = self.results_cv.wait(rc).expect("result cache lock");
                }
                _ => return None,
            }
        }
    }

    /// Serve a memoized outcome verbatim. Zero engine ops: the meter
    /// settles untouched, refunding the whole reservation to the pool.
    pub(crate) fn serve_cached(&self, mut adm: Admitted, o: &CachedOutcome) -> Response {
        adm.meter.settle();
        self.results.lock().expect("result cache lock").record_hit();
        adm.respond(o, Some(ResultClass::Hit), 1)
    }

    /// Serve by replaying only the trailing update over a family
    /// snapshot. The probe runs on a standalone meter priced at
    /// `budget − prefix`, so exhaustion lands exactly where the cold
    /// run's would; *any* probe failure is discarded and the full
    /// metered run on the admitted meter becomes the authority (its
    /// error text embeds the request's own limits, the probe's would
    /// not). On success the admitted meter is charged for precisely
    /// what the cold run would have spent, so the pool's settlement
    /// is identical.
    pub(crate) fn serve_delta(
        &self,
        mut adm: Admitted,
        fill: Claim,
        fam: &FamilyEntry,
    ) -> Response {
        let writes = adm
            .compiled
            .delta
            .as_ref()
            .expect("delta route requires a plan")
            .writes;
        // A budget the snapshot cannot price (unmeasured prefix) or
        // cannot cover (prefix alone exceeds it) falls back to the
        // full run, which reproduces cold's outcome — including a
        // cold prefix exhaustion — exactly.
        let probe_fuel = match (adm.limits.fuel, fam.prefix_fuel) {
            (None, _) => None,
            (Some(f), Some(pf)) if pf <= f => Some(f - pf),
            _ => return self.execute_full(adm, Some(fill), None, true),
        };
        let probe_mem = match (adm.limits.mem_bytes, fam.prefix_mem) {
            (None, _) => None,
            (Some(m), Some(pm)) if pm <= m => Some(m - pm),
            _ => return self.execute_full(adm, Some(fill), None, true),
        };
        let mut probe = Meter::new(Limits {
            fuel: probe_fuel,
            mem_bytes: probe_mem,
        });
        let funcs = FuncTable::new();
        let run_opts = RunOptions {
            threads: Some(self.options.threads),
            limits: Limits::unlimited(),
            faults: self.options.faults.clone(),
            ceiling: None,
        };
        match run_delta(&adm.compiled, &fam.state, &funcs, &run_opts, &mut probe) {
            Ok(out) => {
                // The probe's closing balance *is* the cold run's:
                // (budget − prefix) − delta = budget − total. Charge
                // the admitted meter down to it and settle, so the
                // pool sees exactly the recomputed work spent.
                if let (Some(f), Some(left)) = (adm.limits.fuel, out.fuel_left) {
                    adm.meter.consume_fuel(f - left);
                }
                adm.meter.settle();
                let outcome = CachedOutcome::of_run(&out);
                let mut resp = adm.respond(&outcome, Some(ResultClass::Delta), 1);
                resp.delta_elems = Some(writes);
                {
                    let mut rc = self.results.lock().expect("result cache lock");
                    rc.fill(fill.key, fill.token, Payload::Full(Arc::new(outcome)));
                    rc.record_delta();
                }
                self.results_cv.notify_all();
                resp
            }
            Err(_) => self.execute_full(adm, Some(fill), None, true),
        }
    }

    /// Run the full pipeline split at the trailing update, publishing
    /// the family snapshot between the halves. Byte-equivalent to
    /// [`run_with_meter`] — same units, same state threading, same
    /// meter — plus a clone of the prefix state (and its measured
    /// cost) published for the family.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_split(
        &self,
        compiled: &Compiled,
        limits: Limits,
        inputs: &HashMap<String, ArrayBuf>,
        funcs: &FuncTable,
        opts: &RunOptions,
        meter: &mut Meter,
        guard: &mut FillGuard<'_>,
    ) -> Result<ExecOutput, RuntimeError> {
        let last = compiled.units.len() - 1;
        let mut state = ExecState::default();
        run_units(compiled, 0..last, &mut state, inputs, funcs, opts, meter)?;
        // What the prefix charged — measurable whenever the cap is
        // finite (routing already excluded lazily-drawing meters).
        let prefix_fuel = limits.fuel.map(|f| f - meter.fuel_left());
        let prefix_mem = limits.mem_bytes.map(|m| m - meter.mem_left());
        if let Some(family) = guard.family.take() {
            let entry = Arc::new(FamilyEntry {
                state: state.clone(),
                prefix_fuel,
                prefix_mem,
            });
            // A fill that misses (slot evicted meanwhile) wastes only
            // the clone; the eviction already refunded its bytes.
            self.results.lock().expect("result cache lock").fill(
                family.key,
                family.token,
                Payload::Family(entry),
            );
            self.results_cv.notify_all();
        }
        run_units(
            compiled,
            last..compiled.units.len(),
            &mut state,
            inputs,
            funcs,
            opts,
            meter,
        )?;
        Ok(state.into_output(meter))
    }

    /// Resolve a routed request's full-slot obligation with its final
    /// outcome and count the realized miss.
    pub(crate) fn finish_routed(
        &self,
        guard: &mut FillGuard<'_>,
        routed: bool,
        outcome: CachedOutcome,
    ) {
        if !routed {
            return;
        }
        let mut rc = self.results.lock().expect("result cache lock");
        if let Some(fill) = guard.full.take() {
            rc.fill(fill.key, fill.token, Payload::Full(Arc::new(outcome)));
        }
        rc.record_miss();
        drop(rc);
        self.results_cv.notify_all();
    }
}
