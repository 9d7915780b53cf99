//! The queueing/dispatch simulator: time-multiplexing tenant replays on
//! one systolic array.
//!
//! [`simulate`] runs a deterministic event loop over an arrival trace.
//! One array serves all tenants; at every decision point the dispatcher
//! picks the *oldest waiting work* (the parked job or queue head whose
//! oldest request arrived first — FCFS across tenants, tenant index
//! breaking ties). Three policy knobs shape the schedule:
//!
//! * **batch formation** ([`ServingConfig::batch_window`],
//!   [`ServingConfig::max_batch`]): a queue head matures when
//!   `max_batch` same-tenant requests are waiting or the head has waited
//!   `batch_window` cycles, whichever first. A mature head launches as
//!   one batch — compute replays per request, staging amortized (see
//!   [`TenantProfile::batched_layer_cycles`]);
//! * **preemption at layer boundaries** ([`ServingConfig::quantum_layers`]):
//!   with a quantum set, the dispatcher serves tenants round-robin
//!   (least recently served first, oldest request breaking ties) and
//!   parks the running job at the next layer boundary whenever another
//!   tenant has work waiting — short-model tenants stop queueing behind
//!   whole long-model jobs, at the price of extra re-staging. `0`
//!   disables preemption (run-to-completion, pure FCFS);
//! * **SPM context-switch cost**: whenever the array turns to a tenant
//!   other than the one whose data is resident, the layers still to run
//!   re-stage their SPM-resident bytes through the RANDOM channel first
//!   ([`TenantProfile::restage_cycles`]). An empty array (start of the
//!   simulation) is warm by the replay's own convention — the per-layer
//!   cycles already include first-use staging — so a zero-load request
//!   finishes in exactly its stand-alone replay latency.
//!
//! Streaming: the loop never holds the arrival trace. It pulls the
//! workload's requests in 4096-request pieces of
//! [`Workload::arrivals`] ([`simulate_traced`]) or from any chunked feed
//! of the same stream ([`simulate_arrivals`], which `serving_sim` fills
//! from a producer thread). Per event the loop does O(1) work per
//! tenant: a quantum of consecutive layers is priced from prefix sums
//! of the profile's layer cycles, batch arrival vectors are reused, and
//! lane calls are skipped outright when tracing is off. The report's
//! aggregate latency sample is a merge of the sorted per-tenant
//! samples.
//!
//! Determinism: the loop consumes the requests in order, draws no
//! randomness of its own, and never looks at wall-clock time, so one
//! `(workload, config)` pair yields one byte-identical [`ServingReport`]
//! regardless of machine, worker count, or how the requests were
//! chunked and where they were generated.

// lint:allow-file(index, queue and tenant indices are bounded by the profile vectors built at admission)

use std::collections::VecDeque;

use crate::profile::{PrefixCosts, TenantProfile};
use crate::report::{ServingReport, TenantServingStats};
use crate::workload::{Request, Workload};
use smart_trace::{Lane, Tracer};
use smart_units::Frequency;

/// Dispatch-policy knobs of one serving run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingConfig {
    /// Cycles a queue head waits for co-batching before it launches
    /// alone (`0` = launch immediately).
    pub batch_window: u64,
    /// Most requests of one tenant in a batch (`>= 1`).
    pub max_batch: u32,
    /// Layers run before the dispatcher reconsiders (`0` =
    /// run-to-completion, no preemption).
    pub quantum_layers: u32,
    /// Per-tenant SLO deadline (arrival to completion) in cycles, in
    /// workload tenant order. Empty = no SLO (every completion counts as
    /// goodput).
    pub slo_cycles: Vec<u64>,
}

impl ServingConfig {
    /// Plain FCFS: no batching, no preemption, no SLO.
    #[must_use]
    pub fn fcfs() -> Self {
        Self {
            batch_window: 0,
            max_batch: 1,
            quantum_layers: 0,
            slo_cycles: Vec::new(),
        }
    }

    /// This config with batching up to `max_batch` at `window` cycles.
    #[must_use]
    pub fn with_batching(mut self, max_batch: u32, window: u64) -> Self {
        self.max_batch = max_batch;
        self.batch_window = window;
        self
    }

    /// This config with layer-boundary preemption every `quantum` layers.
    #[must_use]
    pub fn with_quantum(mut self, quantum: u32) -> Self {
        self.quantum_layers = quantum;
        self
    }

    /// This config with per-tenant SLO deadlines in cycles.
    #[must_use]
    pub fn with_slo(mut self, slo_cycles: Vec<u64>) -> Self {
        self.slo_cycles = slo_cycles;
        self
    }
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self::fcfs()
    }
}

/// An in-flight batch: requests of one tenant moving through the model's
/// layers together.
#[derive(Debug)]
struct Job {
    tenant: usize,
    /// Arrival cycles of the batched requests (head first).
    arrivals: Vec<u64>,
    /// Next layer to run.
    next_layer: usize,
}

impl Job {
    fn oldest(&self) -> u64 {
        self.arrivals[0]
    }
}

/// Runs `workload`'s first `n` requests through the dispatch simulator
/// on the given per-tenant profiles (one per workload tenant, same
/// order, all replayed on the same scheme). The simulator drains: every
/// injected request completes and its latency is sampled.
///
/// # Panics
///
/// Panics when `profiles` and the workload's tenants disagree in length
/// or model, when profiles mix schemes or clocks, when
/// `cfg.max_batch == 0`, or when `cfg.slo_cycles` is non-empty with the
/// wrong length.
#[must_use]
pub fn simulate(
    profiles: &[TenantProfile],
    workload: &Workload,
    n: usize,
    cfg: &ServingConfig,
) -> ServingReport {
    simulate_traced(profiles, workload, n, cfg, &Tracer::disabled(), "")
}

/// [`simulate`], recording each request's lifecycle onto `tracer` —
/// one lane per tenant (named `"<lane_prefix>tenant <index> <name>"`),
/// carrying `arrive` instants, a `dispatch` instant per formed batch,
/// `restage` spans for cold switches, `run L<a>..L<b>` spans per
/// executed quantum, and `preempt` / `complete` instants. Timestamps
/// are simulated accelerator cycles, so the trace is as deterministic
/// as the report; a disabled tracer makes this exactly [`simulate`].
///
/// The arrivals stream through the loop in 4096-request pieces of
/// [`Workload::arrivals`]; the whole trace is never held.
///
/// # Panics
///
/// As [`simulate`].
#[must_use]
pub fn simulate_traced(
    profiles: &[TenantProfile],
    workload: &Workload,
    n: usize,
    cfg: &ServingConfig,
    tracer: &Tracer,
    lane_prefix: &str,
) -> ServingReport {
    let clock = check_inputs(profiles, workload, cfg);
    let chunks = workload.arrivals(clock).chunks(n);
    simulate_arrivals(profiles, workload, chunks, cfg, tracer, lane_prefix)
}

/// [`simulate_traced`] over a request stream the caller feeds in
/// chunks: the first requests of `workload.arrivals(clock)`, in order,
/// however they were produced (for example generated on another thread
/// and received through a channel). The report depends only on the
/// requests, not on how they are cut into chunks or where they were
/// made, so every feed of the same stream gives the same report and
/// trace.
///
/// # Panics
///
/// As [`simulate`].
#[must_use]
pub fn simulate_arrivals(
    profiles: &[TenantProfile],
    workload: &Workload,
    chunks: impl IntoIterator<Item = Vec<Request>>,
    cfg: &ServingConfig,
    tracer: &Tracer,
    lane_prefix: &str,
) -> ServingReport {
    let clock = check_inputs(profiles, workload, cfg);
    let mut requests = Feed {
        chunks: chunks.into_iter(),
        chunk: Vec::new(),
        pos: 0,
    };
    let first_arrival = requests.peek().map_or(0, |r| r.arrival);

    // One trace lane per tenant. Lane calls are no-ops on a disabled
    // tracer, but still out-of-line calls, so the loop checks `traced`
    // first. The exporter re-sorts each lane by timestamp, so emitting
    // `arrive` instants at admission time (after later events) is fine.
    let traced = tracer.is_enabled();
    let lanes: Vec<Lane> = profiles
        .iter()
        .enumerate()
        .map(|(t, p)| tracer.lane(&format!("{lane_prefix}tenant {t} {}", p.name)))
        .collect();
    let costs: Vec<PrefixCosts> = profiles.iter().map(PrefixCosts::new).collect();
    let max_batch = cfg.max_batch as usize;
    let quantum = cfg.quantum_layers as usize;

    // Round-robin bookkeeping (only consulted when a quantum is set):
    // the dispatch sequence number at which each tenant last ran.
    let mut last_served = vec![0u64; profiles.len()];
    let mut seq = 0u64;

    let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); profiles.len()];
    let mut injected = vec![0u64; profiles.len()];
    let mut samples: Vec<Vec<u64>> = vec![Vec::new(); profiles.len()];
    let mut parked: Vec<Job> = Vec::new();
    // Arrival vectors of completed jobs, reused by the next dispatches.
    let mut pool: Vec<Vec<u64>> = Vec::new();
    let mut now = 0u64;
    let mut resident: Option<usize> = None;
    let mut service_cycles = 0u64;
    let mut switch_cycles = 0u64;
    let mut switches = 0u64;
    let mut last_completion = 0u64;

    // Admits every request that has arrived by `now`.
    macro_rules! admit {
        () => {
            while let Some(r) = requests.next_by(now) {
                let t = usize::from(r.tenant);
                queues[t].push_back(r.arrival);
                injected[t] += 1;
                if traced {
                    lanes[t].instant("arrive", r.arrival);
                }
            }
        };
    }

    loop {
        admit!();

        // Candidate selection. Pure FCFS (quantum 0): the parked job or
        // queue head with the oldest request, parked jobs winning ties
        // (resuming beats launching at equal age). With a quantum set:
        // round-robin — least recently served tenant first, request age
        // breaking ties — so a preempted long job cannot immediately
        // reclaim the array from the tenants it was parked for.
        let rank = |t: usize, arrival: u64| {
            if quantum == 0 {
                (0, arrival, t)
            } else {
                (last_served[t], arrival, t)
            }
        };
        let best_parked = parked
            .iter()
            .enumerate()
            .min_by_key(|(_, j)| rank(j.tenant, j.oldest()))
            .map(|(i, j)| (rank(j.tenant, j.oldest()), i));
        let best_head = queues
            .iter()
            .enumerate()
            .filter_map(|(t, q)| q.front().map(|&a| (rank(t, a), (a, t))))
            .min();

        let mut job = match (best_parked, best_head) {
            (None, None) => {
                // Idle: jump to the next arrival or finish.
                let Some(next) = requests.peek() else {
                    break;
                };
                now = now.max(next.arrival);
                continue;
            }
            (Some((pr, pi)), head) if head.is_none_or(|(hr, _)| pr <= hr) => parked.swap_remove(pi),
            (Some((_, pi)), None) => parked.swap_remove(pi),
            (_, Some((_, (head_arrival, t)))) => {
                // Batch maturity: full, or the head has waited out the
                // window (with the stream exhausted nothing more can
                // join, so launch what is queued).
                let deadline = head_arrival.saturating_add(cfg.batch_window);
                if queues[t].len() < max_batch && now < deadline {
                    if let Some(next) = requests.peek() {
                        // Wait for more co-batchable arrivals or the window.
                        now = deadline.min(next.arrival);
                        continue;
                    }
                }
                let b = queues[t].len().min(max_batch);
                let mut arrivals = pool.pop().unwrap_or_default();
                arrivals.extend(queues[t].drain(..b));
                if traced {
                    lanes[t].instant(&format!("dispatch batch={b}"), now);
                }
                Job {
                    tenant: t,
                    arrivals,
                    next_layer: 0,
                }
            }
        };

        // Cold switch: another tenant's data is resident, so the layers
        // still to run re-stage their resident bytes first. An empty
        // array (None) is warm by the replay convention.
        let t = job.tenant;
        let cost_t = &costs[t];
        if resident.is_some_and(|r| r != t) {
            let cost = cost_t.restage(job.next_layer);
            if traced {
                lanes[t].span("restage", now, now + cost);
            }
            now += cost;
            switch_cycles += cost;
            switches += 1;
        }
        resident = Some(t);

        // Run the job quantum by quantum, parking it when an older
        // request of another tenant is waiting at a layer boundary.
        let layers = profiles[t].layers();
        // lint:allow(panic_freedom, arrivals per batch are bounded by the admission quantum, far below u32::MAX)
        let batch = u32::try_from(job.arrivals.len()).expect("batch fits u32");
        loop {
            let first = job.next_layer;
            let remaining = layers - first;
            let run = if quantum == 0 {
                remaining
            } else {
                remaining.min(quantum)
            };
            let segment_start = now;
            let c = cost_t.run_cycles(first, first + run, batch);
            now += c;
            service_cycles += c;
            job.next_layer += run;
            seq += 1;
            last_served[t] = seq;
            if traced && run > 0 {
                lanes[t].span(
                    &format!("run L{first}..L{}", job.next_layer),
                    segment_start,
                    now,
                );
            }

            if job.next_layer == layers {
                samples[t].extend(job.arrivals.iter().map(|&arrival| now - arrival));
                if traced {
                    lanes[t].instant("complete", now);
                }
                last_completion = last_completion.max(now);
                job.arrivals.clear();
                pool.push(job.arrivals);
                break;
            }

            admit!();
            // Park at the layer boundary when any other tenant has work
            // waiting; the round-robin rank hands the array to the least
            // recently served of them.
            let other_waiting = parked.iter().any(|j| j.tenant != t)
                || queues
                    .iter()
                    .enumerate()
                    .any(|(qt, q)| qt != t && !q.is_empty());
            if other_waiting {
                if traced {
                    lanes[t].instant("preempt", now);
                }
                parked.push(job);
                break;
            }
        }
    }

    // Assemble the report. Each tenant's sample is sorted once; the
    // aggregate sample is their merge.
    let mut per_tenant = Vec::with_capacity(profiles.len());
    let mut completed = 0u64;
    let mut slo_met = 0u64;
    for (t, mut lat) in samples.into_iter().enumerate() {
        lat.sort_unstable();
        let slo = cfg.slo_cycles.get(t).copied().unwrap_or(u64::MAX);
        let met = lat.partition_point(|&l| l <= slo) as u64;
        completed += lat.len() as u64;
        slo_met += met;
        per_tenant.push(TenantServingStats {
            name: profiles[t].name.clone(),
            injected: injected[t],
            completed: lat.len() as u64,
            slo_met: met,
            latencies: lat,
        });
    }
    let runs: Vec<&[u64]> = per_tenant.iter().map(|s| s.latencies.as_slice()).collect();
    let latencies = merge_sorted(&runs);

    ServingReport {
        scheme: profiles[0].scheme,
        clock,
        offered_rps: workload.rate_rps,
        injected: injected.iter().sum(),
        completed,
        slo_met,
        makespan_cycles: last_completion.saturating_sub(first_arrival),
        service_cycles,
        switch_cycles,
        switches,
        latencies,
        per_tenant,
    }
}

/// The simulator's cursor over a chunked request stream.
struct Feed<I> {
    chunks: I,
    chunk: Vec<Request>,
    /// Next request in `chunk`.
    pos: usize,
}

impl<I: Iterator<Item = Vec<Request>>> Feed<I> {
    /// The next request, or `None` once the stream is exhausted.
    fn peek(&mut self) -> Option<&Request> {
        while self.pos == self.chunk.len() {
            self.chunk = self.chunks.next()?;
            self.pos = 0;
        }
        self.chunk.get(self.pos)
    }

    /// Takes the next request if it has arrived by `now`.
    fn next_by(&mut self, now: u64) -> Option<Request> {
        let r = *self.peek()?;
        (r.arrival <= now).then(|| {
            self.pos += 1;
            r
        })
    }
}

/// Checks that `profiles` can serve `workload` under `cfg` and returns
/// their shared clock.
fn check_inputs(profiles: &[TenantProfile], workload: &Workload, cfg: &ServingConfig) -> Frequency {
    assert_eq!(
        profiles.len(),
        workload.tenants.len(),
        "one profile per tenant"
    );
    assert!(!profiles.is_empty(), "serving needs at least one tenant");
    assert!(cfg.max_batch >= 1, "a batch holds at least one request");
    assert!(
        cfg.slo_cycles.is_empty() || cfg.slo_cycles.len() == profiles.len(),
        "slo_cycles must be empty or one deadline per tenant"
    );
    for (p, t) in profiles.iter().zip(&workload.tenants) {
        assert_eq!(p.model, t.model, "profile/tenant model mismatch");
        assert_eq!(p.scheme, profiles[0].scheme, "profiles must share a scheme");
        assert_eq!(p.clock, profiles[0].clock, "profiles must share a clock");
    }
    profiles[0].clock
}

/// The sorted union of sorted `runs`: a k-way merge that scans the run
/// heads for the smallest (`k` is the tenant count, so a scan beats a
/// heap).
fn merge_sorted(runs: &[&[u64]]) -> Vec<u64> {
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    let mut next = vec![0usize; runs.len()];
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (i, run) in runs.iter().enumerate() {
            if let Some(&v) = run.get(next[i]) {
                if best.is_none_or(|(b, _)| v < b) {
                    best = Some((v, i));
                }
            }
        }
        let Some((v, i)) = best else {
            return out;
        };
        out.push(v);
        next[i] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Tenant;
    use smart_systolic::models::ModelId;
    use smart_units::Frequency;

    /// A synthetic profile: `layers` uniform layers of `total` cycles
    /// (`compute` of them batch-scaling) with `restage` switch cycles
    /// each. The simulator only reads the public fields, so tests need
    /// no ILP compile.
    fn prof(total: u64, compute: u64, restage: u64, layers: usize) -> TenantProfile {
        TenantProfile {
            name: "synthetic".to_owned(),
            model: ModelId::AlexNet,
            scheme: "TEST",
            clock: Frequency::from_ghz(1.0),
            layer_cycles: vec![total; layers],
            layer_compute: vec![compute; layers],
            restage_cycles: vec![restage; layers],
            resident_fraction: 0.5,
        }
    }

    fn two_tenant_workload(rate: f64, seed: u64) -> Workload {
        Workload::poisson(
            vec![
                Tenant::of(ModelId::AlexNet, 1.0),
                Tenant::of(ModelId::AlexNet, 1.0),
            ],
            rate,
            seed,
        )
    }

    #[test]
    fn zero_load_latency_is_the_standalone_replay() {
        let p = prof(1_000, 600, 50, 10);
        let w = Workload::poisson(vec![Tenant::of(ModelId::AlexNet, 1.0)], 10.0, 7);
        let r = simulate(std::slice::from_ref(&p), &w, 1, &ServingConfig::fcfs());
        assert_eq!(r.completed, 1);
        assert_eq!(r.latencies, vec![p.standalone_cycles()]);
        assert_eq!(r.switch_cycles, 0, "an empty array is warm");
    }

    #[test]
    fn requests_are_conserved_and_switches_paid() {
        let profiles = [prof(1_000, 600, 50, 10), prof(2_000, 1_200, 80, 10)];
        // 50% load on the slower tenant mix keeps queues finite but
        // forces plenty of interleaving.
        let w = two_tenant_workload(3e4, 11);
        let r = simulate(&profiles, &w, 300, &ServingConfig::fcfs());
        assert_eq!(r.injected, 300);
        assert_eq!(r.completed, 300);
        assert_eq!(
            r.per_tenant.iter().map(|t| t.completed).sum::<u64>(),
            r.completed
        );
        assert_eq!(
            r.per_tenant.iter().map(|t| t.injected).sum::<u64>(),
            r.injected
        );
        assert!(r.switches > 0, "alternating tenants must cold-switch");
        // Run-to-completion never parks mid-model, so every switch
        // re-stages a full model: 500 cycles into tenant 0, 800 into 1.
        assert!(r.switch_cycles >= r.switches * 500);
        assert!(r.switch_cycles <= r.switches * 800);
        assert!(r.quantile_cycles(0.5) <= r.quantile_cycles(0.99));
        assert!(r.quantile_cycles(0.99) <= r.quantile_cycles(0.999));
    }

    #[test]
    fn simulation_is_deterministic() {
        let profiles = [prof(1_000, 600, 50, 10), prof(2_000, 1_200, 80, 10)];
        let w = two_tenant_workload(5e4, 3);
        let cfg = ServingConfig::fcfs()
            .with_batching(4, 20_000)
            .with_quantum(2);
        let a = simulate(&profiles, &w, 200, &cfg);
        let b = simulate(&profiles, &w, 200, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn p99_is_monotone_in_offered_load_under_fcfs() {
        let profiles = [prof(1_000, 600, 50, 10), prof(2_000, 1_200, 80, 10)];
        let mut last = 0;
        for rate in [1e4, 2e4, 4e4, 6e4, 8e4] {
            let r = simulate(
                &profiles,
                &two_tenant_workload(rate, 17),
                400,
                &ServingConfig::fcfs(),
            );
            let p99 = r.quantile_cycles(0.99);
            assert!(p99 >= last, "p99 regressed at rate {rate}: {p99} < {last}");
            last = p99;
        }
    }

    #[test]
    fn batching_amortizes_service_cycles() {
        let profiles = [prof(1_000, 400, 50, 10), prof(1_000, 400, 50, 10)];
        let w = two_tenant_workload(8e4, 23);
        let solo = simulate(&profiles, &w, 300, &ServingConfig::fcfs());
        let batched = simulate(
            &profiles,
            &w,
            300,
            &ServingConfig::fcfs().with_batching(8, 50_000),
        );
        assert_eq!(batched.completed, solo.completed);
        assert!(
            batched.service_cycles < solo.service_cycles,
            "batch {} vs solo {}",
            batched.service_cycles,
            solo.service_cycles
        );
    }

    #[test]
    fn preemption_cuts_the_short_tenant_tail() {
        // Tenant 0 runs 100x longer per request than tenant 1; without
        // preemption the short tenant queues behind whole long jobs.
        let profiles = [prof(100_000, 60_000, 500, 10), prof(1_000, 600, 50, 10)];
        let w = two_tenant_workload(1.5e3, 29);
        let rtc = simulate(&profiles, &w, 200, &ServingConfig::fcfs());
        let preempt = simulate(&profiles, &w, 200, &ServingConfig::fcfs().with_quantum(1));
        assert_eq!(preempt.completed, rtc.completed);
        let short_p99 = |r: &ServingReport| r.per_tenant[1].quantile_cycles(0.99);
        assert!(
            short_p99(&preempt) < short_p99(&rtc),
            "preempt {} vs run-to-completion {}",
            short_p99(&preempt),
            short_p99(&rtc)
        );
        assert!(
            preempt.switch_cycles > rtc.switch_cycles,
            "preemption must pay more re-staging"
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_lifecycle_lanes() {
        let profiles = [prof(1_000, 600, 50, 10), prof(2_000, 1_200, 80, 10)];
        let w = two_tenant_workload(3e4, 11);
        let cfg = ServingConfig::fcfs().with_quantum(2);
        let plain = simulate(&profiles, &w, 100, &cfg);
        let tracer = Tracer::enabled();
        let traced = simulate_traced(&profiles, &w, 100, &cfg, &tracer, "serving/");
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let lanes = tracer.lanes();
        let names: Vec<&str> = lanes.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            ["serving/tenant 0 synthetic", "serving/tenant 1 synthetic"]
        );
        for (name, events) in &lanes {
            let has = |n: &str| events.iter().any(|e| e.name.starts_with(n));
            assert!(has("arrive"), "{name} has arrivals");
            assert!(has("dispatch batch="), "{name} has dispatches");
            assert!(has("run L"), "{name} has run segments");
            assert!(has("complete"), "{name} has completions");
        }
        // The lifecycle lanes are a valid, deterministic Chrome trace.
        let a = smart_trace::chrome::export(&tracer).expect("valid trace");
        let retracer = Tracer::enabled();
        let _ = simulate_traced(&profiles, &w, 100, &cfg, &retracer, "serving/");
        let b = smart_trace::chrome::export(&retracer).expect("valid trace");
        assert_eq!(a, b, "same seed, byte-identical trace");
    }

    #[test]
    fn any_chunking_of_the_stream_gives_the_same_report_and_trace() {
        let profiles = [prof(1_000, 600, 50, 10), prof(2_000, 1_200, 80, 10)];
        // Loaded enough that several requests arrive during a quantum.
        let w = two_tenant_workload(1e5, 5);
        let cfg = ServingConfig::fcfs()
            .with_batching(4, 20_000)
            .with_quantum(3);
        let tracer = Tracer::enabled();
        let whole = simulate_traced(&profiles, &w, 500, &cfg, &tracer, "");
        let whole_trace = smart_trace::chrome::export(&tracer).expect("valid trace");
        let trace = w.trace(500, profiles[0].clock);
        for size in [1, 7] {
            // Small pieces, with empty chunks in between and at the end.
            let chunks: Vec<Vec<Request>> = trace
                .chunks(size)
                .flat_map(|c| [c.to_vec(), Vec::new()])
                .collect();
            let retracer = Tracer::enabled();
            let pieces = simulate_arrivals(&profiles, &w, chunks, &cfg, &retracer, "");
            assert_eq!(whole, pieces, "chunks of {size}");
            assert_eq!(
                whole_trace,
                smart_trace::chrome::export(&retracer).expect("valid trace"),
                "chunks of {size}"
            );
        }
    }

    #[test]
    fn merge_sorted_is_the_sorted_union() {
        let runs: [&[u64]; 4] = [&[1, 4, 4, 9], &[], &[2, 3, 4, 10, 11], &[0, 4]];
        let mut expect: Vec<u64> = runs.concat();
        expect.sort_unstable();
        assert_eq!(merge_sorted(&runs), expect);
        assert!(merge_sorted(&[]).is_empty());
    }

    #[test]
    fn slo_deadlines_gate_goodput() {
        let profiles = [prof(1_000, 600, 50, 10), prof(2_000, 1_200, 80, 10)];
        let w = two_tenant_workload(6e4, 31);
        let loose = simulate(
            &profiles,
            &w,
            300,
            &ServingConfig::fcfs().with_slo(vec![u64::MAX, u64::MAX]),
        );
        let tight = simulate(
            &profiles,
            &w,
            300,
            &ServingConfig::fcfs().with_slo(vec![10_000, 20_000]),
        );
        assert_eq!(loose.slo_met, loose.completed);
        assert!(tight.slo_met < tight.completed);
        assert!(tight.goodput_rps() < loose.goodput_rps());
        assert!(tight.slo_attainment() < 1.0);
    }
}
