//! Measurement helper of the repository benchmark (`perfbench/run.py`).
//!
//! Three subcommands, each printing one JSON object on stdout:
//!
//! * `spawn [--delay-ms D] --stdout F --stderr F -- PROG ARGS..` runs one
//!   child process and reports its wall-clock time (spawn to exit), its
//!   user+sys CPU time and its peak resident memory from `wait4`. The
//!   optional delay is slept inside the timed interval, before the spawn:
//!   it is how the benchmark's sensitivity self-check injects a slowdown
//!   without touching the program under test.
//! * `serving-setup --seed S --requests N` times the `serving_1e6`
//!   set-up in-process: three `TenantProfile`s from an empty timing cache
//!   plus the request trace.
//! * `traced --workload W --seed S --requests N --store DIR --work DIR`
//!   runs one traced tour: the workload's own work first, in a fresh
//!   single-threaded context whose metrics snapshot is the counter block,
//!   then every other layer's public calls, each behind a timer placed
//!   here, outside the program.

use smart_bench::registry::{Group, REGISTRY};
use smart_bench::{frontier_table, ExperimentContext};
use smart_core::eval::evaluate;
use smart_core::scheme::Scheme;
use smart_cryomem::pipeline::explore;
use smart_josim::cells::{characterize, CellSpec};
use smart_josim::fixtures::validate_ptl_model;
use smart_report::ResultTable;
use smart_search::{search, SearchConfig, SearchSpace};
use smart_serving::{simulate, ServingConfig, Tenant, TenantProfile, Workload};
use smart_sfq::cells::{JtlChainSpec, PtlLinkSpec, SplitterFanoutSpec};
use smart_systolic::dag::LayerDag;
use smart_systolic::mapping::LayerMapping;
use smart_systolic::models::ModelId;
use smart_systolic::trace::LayerDemand;
use smart_timing::{prepare_model, TimingConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("spawn") => spawn(&args[1..]),
        Some("serving-setup") => serving_setup(&Flags::parse(&args[1..])),
        Some("traced") => traced(&Flags::parse(&args[1..])),
        _ => Err("usage: perfbench-probe spawn|serving-setup|traced ...".to_owned()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` pairs of the in-process subcommands.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Self {
        Self(
            args.chunks(2)
                .filter_map(|p| Some((p.first()?.clone(), p.get(1)?.clone())))
                .collect(),
        )
    }

    fn get(&self, flag: &str) -> Result<&str, String> {
        self.0
            .get(flag)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    }

    fn num(&self, flag: &str) -> Result<u64, String> {
        let v = self.get(flag)?;
        v.parse()
            .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
    }
}

// ---------------------------------------------------------------- spawn

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout above is that of 64-bit Linux");

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

fn spawn(args: &[String]) -> Result<String, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("spawn needs `-- PROG ARGS..`")?;
    let flags = Flags::parse(&args[..split]);
    let argv = &args[split + 1..];
    let prog = argv.first().ok_or("spawn needs a program")?;
    let delay = Duration::from_millis(flags.0.get("--delay-ms").map_or(Ok(0), |v| {
        v.parse::<u64>().map_err(|_| format!("--delay-ms: `{v}`"))
    })?);
    let open = |flag: &str| -> Result<std::fs::File, String> {
        let path = flags.get(flag)?;
        std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))
    };
    let (stdout, stderr) = (open("--stdout")?, open("--stderr")?);

    let started = Instant::now();
    std::thread::sleep(delay);
    let child = Command::new(prog)
        .args(&argv[1..])
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("{prog}: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range")?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `pid` is our own unreaped child (std never waits on it: the
    // `Child` handle is dropped unwaited below), and both out-pointers are
    // valid, exclusively borrowed locals of the layout the kernel writes.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = started.elapsed().as_secs_f64();
    drop(child);
    if reaped != pid {
        return Err(format!("wait4 on {pid} returned {reaped}"));
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    // WIFEXITED && WEXITSTATUS; a signal death reports -1.
    let exit = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    Ok(format!(
        "{{\"wall_s\":{wall},\"cpu_s\":{},\"rss_kb\":{},\"exit\":{exit}}}",
        secs(usage.utime) + secs(usage.stime),
        usage.maxrss_kb
    ))
}

// -------------------------------------------------------- serving layer

/// The `serving_1e6` command line, as `serving_sim` reads it:
/// `--tenant alexnet:3 --tenant mobilenet:1 --tenant resnet50:1 --load 0.6
/// --batch 4 --window-us 20 --quantum 8` with the default 8x SLO.
fn serving_tenants() -> Vec<Tenant> {
    vec![
        Tenant::of(ModelId::AlexNet, 3.0),
        Tenant::of(ModelId::MobileNet, 1.0),
        Tenant::of(ModelId::ResNet50, 1.0),
    ]
}

fn serving_profiles(ctx: &ExperimentContext) -> Result<Vec<TenantProfile>, String> {
    let cfg = TimingConfig::nominal();
    serving_tenants()
        .iter()
        .map(|t| TenantProfile::build(&Scheme::smart(), t.model, &cfg, &ctx.timing))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())
}

/// The offered workload and dispatch policy `serving_sim` derives from
/// the profiles (same capacity and SLO formulas).
fn serving_workload(profs: &[TenantProfile], seed: u64) -> (Workload, ServingConfig) {
    let tenants = serving_tenants();
    let total_w: f64 = tenants.iter().map(|t| t.weight).sum();
    let capacity_rps = 1.0
        / profs
            .iter()
            .zip(&tenants)
            .map(|(p, t)| (t.weight / total_w) / p.standalone_rps())
            .sum::<f64>();
    let clock = profs[0].clock;
    let config = ServingConfig::fcfs()
        .with_batching(4, (20.0 * 1e-6 * clock.as_si()) as u64)
        .with_quantum(8)
        .with_slo(profs.iter().map(|p| p.standalone_cycles() * 8).collect());
    (Workload::poisson(tenants, 0.6 * capacity_rps, seed), config)
}

fn serving_setup(flags: &Flags) -> Result<String, String> {
    let seed = flags.num("--seed")?;
    let n = usize::try_from(flags.num("--requests")?).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let profs = serving_profiles(&ExperimentContext::new(1))?;
    let (workload, _) = serving_workload(&profs, seed);
    black_box(workload.trace(n, profs[0].clock));
    Ok(format!(
        "{{\"setup_s\":{}}}",
        started.elapsed().as_secs_f64()
    ))
}

// ---------------------------------------------------------- traced tour

#[derive(Clone, Copy, PartialEq)]
enum Part {
    Repro,
    Search,
    Serving,
}

/// Per-layer results of one tour, in insertion order of the JSON.
#[derive(Default)]
struct Tour {
    values: Vec<(String, f64)>,
    /// Sum of the timers around the workload's own work: the traced
    /// total `trace.overhead_frac` compares with the untraced run.
    own_s: f64,
    /// The `serving_1e6` simulation's counts, under the row labels of
    /// `serving_sim`'s table, for the check against its `--check` output.
    serving_rows: Vec<(&'static str, u64)>,
}

impl Tour {
    fn put(&mut self, name: &str, value: f64) {
        self.values.push((name.to_owned(), value));
    }

    /// Records a timer of `secs`, counted in `own_s` when `own`.
    fn record(&mut self, name: &str, own: bool, secs: f64) {
        if own {
            self.own_s += secs;
        }
        self.put(name, secs);
    }

    fn time<T>(&mut self, name: &str, own: bool, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.record(name, own, started.elapsed().as_secs_f64());
        out
    }
}

fn ratio(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        total += meta.len();
    }
    Ok(total)
}

/// Every registry experiment, one at a time in registry order (the order
/// `all_experiments --jobs 1` runs them), timed per group. Returns the
/// tables for rendering.
fn repro_part(tour: &mut Tour, ctx: &ExperimentContext, own: bool) -> Vec<ResultTable> {
    let groups = [
        (Group::Paper, "bench.paper_s"),
        (Group::Ablation, "bench.ablation_s"),
        (Group::Circuit, "bench.circuit_s"),
        (Group::Timing, "bench.timing_s"),
        (Group::Search, "bench.search_s"),
        (Group::Serving, "bench.serving_s"),
    ];
    let mut tables = Vec::new();
    for (group, name) in groups {
        let started = Instant::now();
        tables.extend(
            REGISTRY
                .iter()
                .filter(|d| d.group == group)
                .map(|d| (d.run)(ctx)),
        );
        tour.record(name, own, started.elapsed().as_secs_f64());
    }
    tables
}

fn search_part(tour: &mut Tour, ctx: &ExperimentContext, own: bool) -> Result<ResultTable, String> {
    let space = SearchSpace::default_grid();
    let out = tour
        .time("search.search_s", own, || {
            search(&space, &SearchConfig::new(1), &ctx.cache, &ctx.timing)
        })
        .map_err(|e| e.to_string())?;
    let s = out.stats;
    tour.put("search.pruned", s.pruned as f64);
    tour.put("search.survivors", s.survivors as f64);
    tour.put("search.frontier", s.frontier as f64);
    tour.put("search.ilp_compiles", s.ilp_compiles as f64);
    Ok(frontier_table(
        "pareto_search",
        &format!(
            "Design-space search: Pareto frontier of the {}-point heterogeneous grid (AlexNet, batch 1)",
            s.space
        ),
        &out,
    ))
}

fn serving_part(
    tour: &mut Tour,
    ctx: &ExperimentContext,
    own: bool,
    seed: u64,
    n: usize,
) -> Result<(), String> {
    let profs = tour.time("serving.prepass_s", own, || serving_profiles(ctx))?;
    let (workload, config) = serving_workload(&profs, seed);
    tour.time("serving.trace_s", false, || {
        black_box(workload.trace(n, profs[0].clock))
    });
    // `simulate` generates the trace itself, so this timer includes it.
    let started = Instant::now();
    let report = simulate(&profs, &workload, n, &config);
    let simulate_s = started.elapsed().as_secs_f64();
    if report.completed != n as u64 {
        return Err(format!(
            "serving drained {} of {n} requests",
            report.completed
        ));
    }
    tour.record("serving.simulate_s", own, simulate_s);
    tour.put("serving.ns_per_request", simulate_s * 1e9 / n as f64);
    tour.put("serving.switches", report.switches as f64);
    tour.serving_rows = vec![
        ("injected", report.injected),
        ("completed", report.completed),
        ("slo met", report.slo_met),
        ("context switches", report.switches),
    ];
    Ok(())
}

/// Store write and read of the repro caches: `save_caches` into a fresh
/// directory, then `load_caches` of it into an empty context.
fn store_roundtrip(
    tour: &mut Tour,
    ctx: &ExperimentContext,
    dir: &Path,
    own: bool,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    tour.time("units.store_save_s", own, || ctx.save_caches(dir))
        .map_err(|e| e.to_string())?;
    tour.put("units.store_bytes", dir_bytes(dir)? as f64);
    if !own {
        let fresh = ExperimentContext::new(1);
        tour.time("units.store_load_s", false, || fresh.load_caches(dir));
    }
    Ok(())
}

/// The fixed per-crate calls no workload's own part isolates.
fn layer_probes(tour: &mut Tour, tables: &[ResultTable]) -> Result<(), String> {
    let smart = Scheme::smart();
    let nominal = TimingConfig::nominal();
    let models: Vec<_> = ModelId::ALL.iter().map(|m| m.build()).collect();

    let prepasses = tour
        .time("timing.prepare_s", false, || {
            models
                .iter()
                .map(|m| prepare_model(&smart, m, nominal.max_iterations))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
    tour.time("timing.replay_s", false, || {
        for p in &prepasses {
            black_box(p.replay(&nominal));
        }
    });
    let cfgs: Vec<TimingConfig> = (1..=16)
        .map(|i| nominal.with_bandwidth_pct(i * 25))
        .collect();
    tour.time("timing.sweep_s", false, || {
        for p in &prepasses {
            black_box(p.sweep(&cfgs));
        }
    });

    let schemes = Scheme::figure18_set();
    let batches: Vec<u32> = (1..=20).collect();
    tour.time("core.evaluate_s", false, || {
        for s in &schemes {
            for m in &models {
                for &b in &batches {
                    black_box(evaluate(s, m, b));
                }
            }
        }
    });
    tour.put(
        "core.evaluate_calls",
        (schemes.len() * models.len() * batches.len()) as f64,
    );

    // The cell specs of the three josim_* experiments.
    let mut cells: Vec<CellSpec> = [4u32, 6, 8, 12]
        .iter()
        .map(|&s| CellSpec::Jtl(JtlChainSpec::standard(s)))
        .collect();
    cells.extend(
        [650u32, 700, 800, 850]
            .iter()
            .map(|&b| CellSpec::Jtl(JtlChainSpec::new(8, 100_000, b))),
    );
    cells.extend(
        [2u32, 4, 8]
            .iter()
            .map(|&l| CellSpec::Fanout(SplitterFanoutSpec::standard(l))),
    );
    cells.extend(
        [0.1f64, 0.2, 0.4, 0.6, 0.8]
            .iter()
            .map(|&mm| CellSpec::Ptl(PtlLinkSpec::from_mm(mm))),
    );
    tour.time("josim.characterize_s", false, || {
        cells
            .iter()
            .map(characterize)
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| e.to_string())?;
    tour.time("josim.fig13_s", false, || {
        validate_ptl_model(&[0.1, 0.2, 0.4, 0.6, 0.8])
    })
    .map_err(|e| e.to_string())?;

    tour.time("systolic.demand_s", false, || {
        for m in &models {
            for layer in &m.layers {
                let mapping = LayerMapping::map(layer, smart.config.shape, 1);
                black_box(LayerDemand::derive(layer, &mapping));
                black_box(LayerDag::build(&mapping, nominal.max_iterations));
            }
        }
    });
    tour.time("cryomem.explore_s", false, || {
        black_box(explore(
            28 << 20,
            256,
            &[1.0, 2.0, 4.0, 6.0, 8.0, 9.6, 12.0],
        ))
    });
    tour.time("report.render_s", false, || {
        for t in tables {
            black_box((t.to_string(), t.to_csv(), t.to_json()));
        }
    });
    Ok(())
}

/// Text of the tables as `all_experiments` prints them.
fn render_text(tables: &[ResultTable]) -> String {
    tables
        .iter()
        .map(|t| format!("==== {} ====\n{t}\n", t.name))
        .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn traced(flags: &Flags) -> Result<String, String> {
    let workload = flags.get("--workload")?;
    let seed = flags.num("--seed")?;
    let n = usize::try_from(flags.num("--requests")?).map_err(|e| e.to_string())?;
    let work = PathBuf::from(flags.get("--work")?);
    let own = match workload {
        "repro_cold" | "repro_warm" => Part::Repro,
        "pareto_1000" => Part::Search,
        "serving_1e6" => Part::Serving,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let mut tour = Tour::default();

    // The workload's own work, in the context whose counters the binary's
    // `--jobs 1 --metrics` must reproduce.
    let own_ctx = ExperimentContext::new(1);
    let mut tables = Vec::new();
    let mut own_output = String::new();
    match own {
        Part::Repro => {
            if workload == "repro_warm" {
                let store = PathBuf::from(flags.get("--store")?);
                let warm = tour.time("units.store_load_s", true, || own_ctx.load_caches(&store));
                if warm.total() == 0 {
                    return Err(format!("no warm entries in {}", store.display()));
                }
            }
            tables = repro_part(&mut tour, &own_ctx, true);
            own_output = render_text(&tables);
            if workload == "repro_warm" {
                store_roundtrip(&mut tour, &own_ctx, &work.join("store-own"), true)?;
            }
        }
        Part::Search => own_output = search_part(&mut tour, &own_ctx, true)?.to_string(),
        Part::Serving => serving_part(&mut tour, &own_ctx, true, seed, n)?,
    }
    let snap = own_ctx.metrics_snapshot();

    // Every other layer, each from an empty context.
    match workload {
        // The cold repro run saves nothing itself; round-trip its stores.
        "repro_cold" => store_roundtrip(&mut tour, &own_ctx, &work.join("store-tour"), false)?,
        // The warm run's load and save were part of its own work.
        "repro_warm" => {}
        _ => {
            let ctx = ExperimentContext::new(1);
            tables = repro_part(&mut tour, &ctx, false);
            store_roundtrip(&mut tour, &ctx, &work.join("store-tour"), false)?;
        }
    }
    if own != Part::Search {
        search_part(&mut tour, &ExperimentContext::new(1), false)?;
    }
    if own != Part::Serving {
        serving_part(&mut tour, &ExperimentContext::new(1), false, seed, n)?;
    }
    layer_probes(&mut tour, &tables)?;

    for name in [
        "ilp.pivots",
        "ilp.nodes",
        "ilp.refactorizations",
        "ilp.cold_solves",
        "ilp.solution_hits",
    ] {
        tour.put(name, snap.counter(name) as f64);
    }
    tour.put(
        "ilp.warm_hit_ratio",
        ratio(
            snap.counter("ilp.warm_hits"),
            snap.counter("ilp.warm_attempts"),
        ),
    );
    for cache in ["eval_cache", "timing_cache", "circuit_cache"] {
        let hits =
            snap.counter(&format!("{cache}.hits")) + snap.counter(&format!("{cache}.coalesced"));
        let misses = snap.counter(&format!("{cache}.misses"));
        tour.put(&format!("{cache}.hit_ratio"), ratio(hits, hits + misses));
    }

    let values: Vec<String> = tour
        .values
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let serving: Vec<String> = tour
        .serving_rows
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    Ok(format!(
        "{{\"values\":{{{}}},\"serving\":{{{}}},\"own_s\":{},\"counters\":{},\"output\":{}}}",
        values.join(","),
        serving.join(","),
        tour.own_s,
        json_str(&snap.to_text()),
        json_str(&own_output)
    ))
}
