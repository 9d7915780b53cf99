//! Tenant mixes and seeded open-loop arrival-trace generation.
//!
//! A serving scenario is a [`Workload`]: a set of [`Tenant`]s (each a CNN
//! model with a share of the offered load), an [`ArrivalModel`] (Poisson
//! or bursty on/off), an aggregate request rate, and a seed. From those,
//! [`Workload::arrivals`] opens a deterministic open-loop stream of
//! `(arrival_cycle, tenant)` pairs through the hand-rolled
//! [`smart_units::rng`] generators — the same seed replays byte-identical
//! on every machine and worker count.
//!
//! [`Arrivals`] is the only generator. [`Arrivals::fill`] appends the
//! next `k` requests and keeps its position, so the stream can be
//! consumed in pieces: [`Workload::trace`] is one fill of `n`, and the
//! simulator pulls 4096-request pieces through [`Arrivals::chunks`]
//! instead of holding the whole trace. Every split of the stream yields
//! the same requests.
//!
//! Arrivals are *open-loop*: request `k`'s arrival never depends on when
//! request `k - 1` completed, which is what saturates a server and
//! exposes the latency knee. Traces are generated by request count, not
//! by time horizon, so sweeping the rate rescales one fixed arrival
//! pattern: with a shared seed, the trace at rate `2λ` is exactly the
//! rate-`λ` trace with every gap halved (same exponential draws, same
//! tenant sequence). That makes per-request latency — and therefore every
//! latency quantile — provably monotone in offered load under FCFS
//! dispatch.

use smart_systolic::models::ModelId;
use smart_units::rng::Rng;
use smart_units::Frequency;

/// One tenant of the accelerator: a model and its share of the offered
/// request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Display name (defaults to the model name).
    pub name: String,
    /// The CNN this tenant serves.
    pub model: ModelId,
    /// Relative share of the aggregate arrival rate (weights are
    /// normalized; non-positive weights receive no traffic).
    pub weight: f64,
}

impl Tenant {
    /// A tenant named after its model.
    #[must_use]
    pub fn of(model: ModelId, weight: f64) -> Self {
        Self {
            name: model.name().to_owned(),
            model,
            weight,
        }
    }
}

/// The arrival process of the aggregate request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Memoryless open-loop arrivals at the workload's rate.
    Poisson,
    /// A two-state on/off modulated Poisson process (MMPP-style): during
    /// ON phases requests arrive at `rate / on_fraction` so the long-run
    /// average still equals the workload rate; OFF phases are silent.
    /// Phase durations are exponential with means `period * on_fraction`
    /// and `period * (1 - on_fraction)`.
    Bursty {
        /// Long-run fraction of time spent ON, in `(0, 1]`.
        on_fraction: f64,
        /// Mean ON + OFF cycle length in seconds.
        period_s: f64,
    },
}

/// One synthesized request: an arrival cycle and the tenant it belongs
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival time in accelerator cycles.
    pub arrival: u64,
    /// Index into the workload's tenant list.
    pub tenant: u16,
}

/// A complete serving scenario: tenants, arrival model, aggregate rate,
/// and the seed of its deterministic trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The tenant mix.
    pub tenants: Vec<Tenant>,
    /// Arrival process of the aggregate stream.
    pub arrivals: ArrivalModel,
    /// Aggregate offered load in requests per second.
    pub rate_rps: f64,
    /// Seed of the arrival trace.
    pub seed: u64,
}

impl Workload {
    /// A Poisson workload over `tenants` at `rate_rps`.
    #[must_use]
    pub fn poisson(tenants: Vec<Tenant>, rate_rps: f64, seed: u64) -> Self {
        Self {
            tenants,
            arrivals: ArrivalModel::Poisson,
            rate_rps,
            seed,
        }
    }

    /// The arrival process of this workload at `clock` (the accelerator
    /// clock that converts seconds to cycles), ready to generate from
    /// the first request on.
    ///
    /// # Panics
    ///
    /// Panics when the workload is degenerate: no tenants, more than
    /// `u16::MAX` tenants, a non-positive rate, or a bursty model with
    /// `on_fraction` outside `(0, 1]` or a non-positive period.
    #[must_use]
    pub fn arrivals(&self, clock: Frequency) -> Arrivals {
        assert!(
            !self.tenants.is_empty() && self.tenants.len() <= usize::from(u16::MAX),
            "workload needs 1..=65535 tenants"
        );
        assert!(
            self.rate_rps > 0.0 && self.rate_rps.is_finite(),
            "offered load must be a positive rate"
        );
        let weights: Vec<f64> = self.tenants.iter().map(|t| t.weight).collect();
        assert!(
            weights.iter().any(|w| *w > 0.0),
            "at least one tenant needs positive weight"
        );
        let process = match self.arrivals {
            ArrivalModel::Poisson => Process::Poisson {
                mean_gap: 1.0 / self.rate_rps,
            },
            ArrivalModel::Bursty {
                on_fraction,
                period_s,
            } => {
                assert!(
                    on_fraction > 0.0 && on_fraction <= 1.0,
                    "on_fraction must be in (0, 1]"
                );
                assert!(
                    period_s > 0.0 && period_s.is_finite(),
                    "burst period must be positive"
                );
                let mut phases = Rng::stream(self.seed, 2);
                let mean_on = period_s * on_fraction;
                let phase_end = phases.next_exp(mean_on);
                Process::Bursty {
                    mean_gap: 1.0 / (self.rate_rps / on_fraction),
                    mean_on,
                    mean_off: period_s * (1.0 - on_fraction),
                    phases,
                    phase_end,
                }
            }
        };
        // Two independent substreams: gaps and tenant picks. Keeping them
        // separate means a different tenant count cannot shift the
        // arrival times (and vice versa), which the rate-rescaling
        // monotonicity argument relies on.
        Arrivals {
            gaps: Rng::stream(self.seed, 0),
            picks: Rng::stream(self.seed, 1),
            weights,
            hz: clock.as_si(),
            t: 0.0,
            process,
        }
    }

    /// Generates the first `n` requests of this workload's arrival
    /// process at `clock`: one [`Arrivals::fill`] of `n`. Deterministic
    /// in `(self, n, clock)`; arrivals are non-decreasing.
    ///
    /// # Panics
    ///
    /// As [`Workload::arrivals`].
    #[must_use]
    pub fn trace(&self, n: usize, clock: Frequency) -> Vec<Request> {
        let mut out = Vec::with_capacity(n);
        self.arrivals(clock).fill(&mut out, n);
        out
    }
}

/// Requests per [`Arrivals::chunks`] item: 64 KiB of requests, small
/// enough to stay in cache, large enough that a chunk hand-off costs
/// nothing per request.
pub(crate) const CHUNK: usize = 4096;

/// A workload's arrival process, positioned after the requests it has
/// generated so far: [`Arrivals::fill`] continues the stream exactly
/// where the last call stopped, so any split of `n` requests into
/// fills yields [`Workload::trace`]`(n)`.
#[derive(Debug)]
pub struct Arrivals {
    gaps: Rng,
    picks: Rng,
    weights: Vec<f64>,
    /// Cycles per second.
    hz: f64,
    /// Arrival time of the last generated request, in seconds.
    t: f64,
    process: Process,
}

/// The per-model state of an [`Arrivals`] stream.
#[derive(Debug)]
enum Process {
    Poisson {
        mean_gap: f64,
    },
    Bursty {
        /// Mean gap inside an ON phase.
        mean_gap: f64,
        mean_on: f64,
        mean_off: f64,
        phases: Rng,
        /// End of the current ON phase, in seconds.
        phase_end: f64,
    },
}

impl Arrivals {
    /// Appends the next `k` requests of the stream to `out`.
    pub fn fill(&mut self, out: &mut Vec<Request>, k: usize) {
        out.reserve(k);
        // The loops keep the generator state in locals, so pushing to
        // `out` cannot force it back through memory every request.
        let (hz, weights) = (self.hz, self.weights.as_slice());
        let mut gaps = self.gaps.clone();
        let mut picks = self.picks.clone();
        let mut t = self.t;
        match &mut self.process {
            Process::Poisson { mean_gap } => {
                let mean_gap = *mean_gap;
                for _ in 0..k {
                    t += gaps.next_exp(mean_gap);
                    out.push(Request {
                        arrival: (t * hz) as u64,
                        tenant: picks.pick_weighted(weights) as u16,
                    });
                }
            }
            Process::Bursty {
                mean_gap,
                mean_on,
                mean_off,
                phases,
                phase_end,
            } => {
                let (mean_gap, mean_on, mean_off) = (*mean_gap, *mean_on, *mean_off);
                let mut ph = phases.clone();
                let mut end = *phase_end;
                // Walk ON phases; exponential gaps are memoryless, so
                // redrawing at each phase boundary is exact.
                for _ in 0..k {
                    t += gaps.next_exp(mean_gap);
                    while t > end {
                        // Jump over the OFF phase and restart the clock
                        // of the truncated ON draw at the next ON start.
                        let off = ph.next_exp(mean_off);
                        t = end + off + gaps.next_exp(mean_gap);
                        end += off + ph.next_exp(mean_on);
                    }
                    out.push(Request {
                        arrival: (t * hz) as u64,
                        tenant: picks.pick_weighted(weights) as u16,
                    });
                }
                *phases = ph;
                *phase_end = end;
            }
        }
        self.gaps = gaps;
        self.picks = picks;
        self.t = t;
    }

    /// The next `n` requests as consecutive chunks of 4096 (the last one
    /// shorter), for a consumer that streams them instead of holding
    /// the whole trace.
    pub fn chunks(mut self, n: usize) -> impl Iterator<Item = Vec<Request>> + Send {
        let mut left = n;
        std::iter::from_fn(move || {
            (left > 0).then(|| {
                let k = left.min(CHUNK);
                left -= k;
                let mut chunk = Vec::with_capacity(k);
                self.fill(&mut chunk, k);
                chunk
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> Frequency {
        Frequency::from_ghz(52.6)
    }

    fn mix() -> Vec<Tenant> {
        vec![
            Tenant::of(ModelId::AlexNet, 3.0),
            Tenant::of(ModelId::Vgg16, 1.0),
        ]
    }

    #[test]
    fn poisson_trace_is_deterministic_and_sorted() {
        let w = Workload::poisson(mix(), 1e5, 9);
        let a = w.trace(500, clock());
        let b = w.trace(500, clock());
        assert_eq!(a, b);
        assert!(a.windows(2).all(|p| p[0].arrival <= p[1].arrival));
        assert!(a.iter().all(|r| usize::from(r.tenant) < 2));
        // The empirical rate is in the right ballpark.
        let span_s = a.last().expect("nonempty").arrival as f64 / clock().as_si();
        let rate = 500.0 / span_s;
        assert!((rate / 1e5 - 1.0).abs() < 0.25, "empirical rate {rate}");
    }

    #[test]
    fn tenant_shares_follow_weights() {
        let w = Workload::poisson(mix(), 1e5, 4);
        let trace = w.trace(4000, clock());
        let alex = trace.iter().filter(|r| r.tenant == 0).count();
        let frac = alex as f64 / 4000.0;
        assert!((frac - 0.75).abs() < 0.05, "AlexNet share {frac}");
    }

    #[test]
    fn doubling_the_rate_halves_the_gaps_exactly() {
        let slow = Workload::poisson(mix(), 5e4, 11).trace(300, clock());
        let fast = Workload {
            rate_rps: 1e5,
            ..Workload::poisson(mix(), 5e4, 11)
        }
        .trace(300, clock());
        for (s, f) in slow.iter().zip(&fast) {
            assert_eq!(s.tenant, f.tenant, "tenant sequence must be shared");
            // Same exponential draws, scaled: cycle truncation allows
            // off-by-one per event.
            let expect = s.arrival / 2;
            assert!(
                f.arrival.abs_diff(expect) <= 150,
                "{} vs {expect}",
                f.arrival
            );
        }
    }

    #[test]
    fn bursty_trace_clusters_arrivals() {
        let rate = 1e5;
        let bursty = Workload {
            arrivals: ArrivalModel::Bursty {
                on_fraction: 0.2,
                period_s: 1e-4,
            },
            ..Workload::poisson(mix(), rate, 13)
        };
        let n = 2000;
        let b = bursty.trace(n, clock());
        let p = Workload::poisson(mix(), rate, 13).trace(n, clock());
        assert!(b.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Burstiness: the squared coefficient of variation of gaps is
        // well above the Poisson value of ~1.
        let scv = |t: &[Request]| {
            let gaps: Vec<f64> = t
                .windows(2)
                .map(|w| (w[1].arrival - w[0].arrival) as f64)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        assert!(
            scv(&b) > 1.5 * scv(&p),
            "bursty SCV {} vs poisson {}",
            scv(&b),
            scv(&p)
        );
    }

    fn bursty(seed: u64) -> Workload {
        Workload {
            arrivals: ArrivalModel::Bursty {
                on_fraction: 0.25,
                period_s: 2e-4,
            },
            ..Workload::poisson(mix(), 1e5, seed)
        }
    }

    /// FNV-1a over each request's little-endian `(arrival, tenant)`.
    fn trace_hash(trace: &[Request]) -> u64 {
        let bytes: Vec<u8> = trace
            .iter()
            .flat_map(|r| {
                r.arrival
                    .to_le_bytes()
                    .into_iter()
                    .chain(r.tenant.to_le_bytes())
            })
            .collect();
        smart_units::codec::fnv1a(&bytes)
    }

    #[test]
    fn traces_are_pinned() {
        let poisson = Workload::poisson(mix(), 1e5, 9).trace(50_000, clock());
        let bursty = bursty(9).trace(50_000, clock());
        assert_eq!(trace_hash(&poisson), 12_804_980_877_625_264_859, "poisson");
        assert_eq!(trace_hash(&bursty), 7_294_848_418_633_309_054, "bursty");
    }

    #[test]
    fn chunks_and_split_fills_continue_one_stream() {
        for w in [Workload::poisson(mix(), 1e5, 9), bursty(9)] {
            let mut one = Vec::new();
            w.arrivals(clock()).fill(&mut one, CHUNK + 1);
            for n in [CHUNK - 1, CHUNK, CHUNK + 1] {
                assert_eq!(w.trace(n, clock()), one[..n], "trace({n})");
                let chunks: Vec<Vec<Request>> = w.arrivals(clock()).chunks(n).collect();
                assert!(chunks.iter().all(|c| c.len() <= CHUNK));
                assert_eq!(chunks.concat(), one[..n], "chunks({n})");
                let mut split = Vec::new();
                let mut arrivals = w.arrivals(clock());
                arrivals.fill(&mut split, 1);
                arrivals.fill(&mut split, n - 1);
                assert_eq!(split, one[..n], "fill(1) + fill({})", n - 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn zero_rate_is_rejected() {
        let _ = Workload::poisson(mix(), 0.0, 1).trace(10, clock());
    }
}
