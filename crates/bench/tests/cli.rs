//! Round-trip of the shared CLI across every binary in the crate: each
//! one must accept the standard flag set and print the canonical error
//! strings, so no binary can drift from `smart_bench::cli`.
//!
//! Only parse-path invocations are exercised (`--help`, `--list`, bad
//! flags) — nothing here runs an experiment, so the whole suite is a few
//! hundred process spawns.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"))
}

/// `--help` exits 0 and documents the standard flags.
fn check_help(bin: &str, exe: &str) {
    let out = run(exe, &["--help"]);
    assert!(out.status.success(), "{bin} --help failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--jobs N",
        "--json",
        "--csv",
        "--check",
        "--cache-dir DIR",
        "--list",
        "--filter TAG",
    ] {
        assert!(text.contains(flag), "{bin} --help is missing `{flag}`");
    }
}

/// A bad `--jobs` exits 2 with the one canonical message.
fn check_bad_jobs(bin: &str, exe: &str) {
    let out = run(exe, &["--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2), "{bin} --jobs 0: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("--jobs needs a positive integer"),
        "{bin}: {err}"
    );
}

/// An unknown flag exits 2 and lists the accepted flags.
fn check_unknown_flag(bin: &str, exe: &str) {
    let out = run(exe, &["--definitely-bogus"]);
    assert_eq!(out.status.code(), Some(2), "{bin} bogus flag: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("unknown flag `--definitely-bogus`; flags: "),
        "{bin}: {err}"
    );
    assert!(err.contains("--jobs N"), "{bin}: {err}");
}

/// `--list` exits 0 without running anything; a filter that matches
/// nothing lists (and would run) nothing.
fn check_list(bin: &str, exe: &str) {
    let out = run(exe, &["--list"]);
    assert!(out.status.success(), "{bin} --list failed: {out:?}");
    assert!(!out.stdout.is_empty(), "{bin} --list printed nothing");
    let none = run(exe, &["--list", "--filter", "zzz_no_such_tag"]);
    assert!(none.status.success(), "{bin} filtered --list: {none:?}");
    assert!(
        none.stdout.is_empty(),
        "{bin} --list matched a nonsense filter: {:?}",
        String::from_utf8_lossy(&none.stdout)
    );
}

macro_rules! cli_round_trip {
    ($($bin:ident),* $(,)?) => {
        $(
            mod $bin {
                const EXE: &str = env!(concat!("CARGO_BIN_EXE_", stringify!($bin)));

                #[test]
                fn help_documents_the_standard_flags() {
                    super::check_help(stringify!($bin), EXE);
                }

                #[test]
                fn bad_jobs_and_unknown_flags_exit_2() {
                    super::check_bad_jobs(stringify!($bin), EXE);
                    super::check_unknown_flag(stringify!($bin), EXE);
                }

                #[test]
                fn list_runs_nothing() {
                    super::check_list(stringify!($bin), EXE);
                }
            }
        )*
    };
}

cli_round_trip![
    ablation_ilp_vs_greedy,
    ablation_lane_length,
    all_experiments,
    fig02_wires,
    fig05_homogeneous,
    fig06_trace,
    fig07_hetero,
    fig09_htree_breakdown,
    fig12_subbank_validation,
    fig13_josim_validation,
    fig14_design_space,
    fig16_access_energy,
    fig17_area,
    fig18_single_speedup,
    fig19_batch_speedup,
    fig20_single_energy,
    fig21_batch_energy,
    fig22_shift_capacity,
    fig23_random_capacity,
    fig24_prefetch,
    fig25_write_latency,
    josim_fanout_characterization,
    josim_jtl_characterization,
    josim_ptl_characterization,
    pareto_search,
    search_frontier,
    search_frontier_gap,
    search_warm_vs_cold,
    serving_batch_tail,
    serving_saturation,
    serving_sim,
    serving_tenant_mix,
    table1_memories,
    table2_components,
    table4_configs,
    timing_buffer_depth,
    timing_random_bandwidth,
    timing_stall_breakdown,
];

// `bench_check` has no `--list` mode (it gates two files, it does not
// run experiments), so it is exercised on the parse paths only.
mod bench_check {
    const EXE: &str = env!("CARGO_BIN_EXE_bench_check");

    #[test]
    fn help_documents_the_standard_flags() {
        super::check_help("bench_check", EXE);
    }

    #[test]
    fn bad_jobs_and_unknown_flags_exit_2() {
        super::check_bad_jobs("bench_check", EXE);
        super::check_unknown_flag("bench_check", EXE);
    }

    #[test]
    fn missing_baseline_fails_with_usage() {
        let out = super::run(EXE, &[]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--baseline"), "{err}");
    }
}

// `serving_sim`'s own knobs: the integer ones must reject what they
// cannot represent instead of truncating it, and the producer thread
// behind `--jobs 2` must not change a byte of the report.
mod serving_sim_knobs {
    const EXE: &str = env!("CARGO_BIN_EXE_serving_sim");

    #[test]
    fn integer_flags_reject_fractions_exponents_and_negatives() {
        for (flag, value) in [
            ("--quantum", "2.7"),
            ("--quantum", "-1"),
            ("--quantum", "4294967296"),
            ("--seed", "1e30"),
            ("--seed", "-3"),
            ("--seed", "18446744073709551616"),
            ("--slo-factor", "0.5"),
            ("--slo-factor", "nan"),
        ] {
            let out = super::run(EXE, &[flag, value, "--requests", "10"]);
            assert_eq!(out.status.code(), Some(2), "{flag} {value}: {out:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.starts_with(&format!("{flag} needs a non-negative integer")),
                "{flag} {value}: {err}"
            );
            assert!(
                err.contains("usage"),
                "{flag} {value} prints no usage: {err}"
            );
            assert!(out.stdout.is_empty(), "{flag} {value} ran anyway");
        }
    }

    #[test]
    fn producer_thread_keeps_the_report_byte_identical() {
        let report = |jobs: &str| {
            let out = super::run(
                EXE,
                &[
                    "--jobs",
                    jobs,
                    "--requests",
                    "50000",
                    "--quantum",
                    "2",
                    "--batch",
                    "4",
                    "--window-us",
                    "20",
                ],
            );
            assert!(out.status.success(), "--jobs {jobs}: {out:?}");
            out.stdout
        };
        let one = report("1");
        assert!(String::from_utf8_lossy(&one).contains("injected"));
        assert_eq!(one, report("2"), "--jobs 2 changed the report");
    }
}
