//! Round-trip of the shared CLI across the four drivers in the crate,
//! and across every experiment selected by name on `all_experiments`:
//! each must accept the standard flag set and print the canonical error
//! strings, so nothing can drift from `smart_bench::cli`.
//!
//! The round-trips exercise only parse paths (`--help`, `--list`, bad
//! flags); `all_experiments_selection` runs one cheap experiment to pin
//! the positional selection that replaces per-experiment binaries.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"))
}

/// `exe` with the positional names `pre` ahead of `args`.
fn run_with(exe: &str, pre: &[&str], args: &[&str]) -> Output {
    let all: Vec<&str> = pre.iter().chain(args).copied().collect();
    run(exe, &all)
}

/// `--help` exits 0 and documents the standard flags.
fn check_help(bin: &str, exe: &str, pre: &[&str]) {
    let out = run_with(exe, pre, &["--help"]);
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
fn check_bad_jobs(bin: &str, exe: &str, pre: &[&str]) {
    let out = run_with(exe, pre, &["--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2), "{bin} --jobs 0: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("--jobs needs a positive integer"),
        "{bin}: {err}"
    );
}

/// An unknown flag exits 2 and lists the accepted flags.
fn check_unknown_flag(bin: &str, exe: &str, pre: &[&str]) {
    let out = run_with(exe, pre, &["--definitely-bogus"]);
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
fn check_list(bin: &str, exe: &str, pre: &[&str]) -> String {
    let out = run_with(exe, pre, &["--list"]);
    assert!(out.status.success(), "{bin} --list failed: {out:?}");
    assert!(!out.stdout.is_empty(), "{bin} --list printed nothing");
    let none = run_with(exe, pre, &["--list", "--filter", "zzz_no_such_tag"]);
    assert!(none.status.success(), "{bin} filtered --list: {none:?}");
    assert!(
        none.stdout.is_empty(),
        "{bin} --list matched a nonsense filter: {:?}",
        String::from_utf8_lossy(&none.stdout)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

macro_rules! cli_round_trip {
    ($($bin:ident),* $(,)?) => {
        $(
            mod $bin {
                const EXE: &str = env!(concat!("CARGO_BIN_EXE_", stringify!($bin)));

                #[test]
                fn help_documents_the_standard_flags() {
                    super::check_help(stringify!($bin), EXE, &[]);
                }

                #[test]
                fn bad_jobs_and_unknown_flags_exit_2() {
                    super::check_bad_jobs(stringify!($bin), EXE, &[]);
                    super::check_unknown_flag(stringify!($bin), EXE, &[]);
                }

                #[test]
                fn list_runs_nothing() {
                    super::check_list(stringify!($bin), EXE, &[]);
                }
            }
        )*
    };
}

cli_round_trip![all_experiments, pareto_search, serving_sim];

// Every experiment, selected by name on `all_experiments`, round-trips
// the same flag set. Each module keeps the name of the per-figure
// binary that once ran that experiment.
macro_rules! experiment_round_trip {
    ($($module:ident => $name:literal),* $(,)?) => {
        $(
            mod $module {
                const EXE: &str = env!("CARGO_BIN_EXE_all_experiments");
                const BIN: &str = concat!("all_experiments ", $name);

                #[test]
                fn help_documents_the_standard_flags() {
                    super::check_help(BIN, EXE, &[$name]);
                }

                #[test]
                fn bad_jobs_and_unknown_flags_exit_2() {
                    super::check_bad_jobs(BIN, EXE, &[$name]);
                    super::check_unknown_flag(BIN, EXE, &[$name]);
                }

                #[test]
                fn list_runs_nothing() {
                    let listed = super::check_list(BIN, EXE, &[$name]);
                    let names: Vec<&str> = listed
                        .lines()
                        .filter_map(|l| l.split_whitespace().next())
                        .collect();
                    assert_eq!(names, [$name], "{BIN} --list: {listed}");
                }
            }
        )*
    };
}

experiment_round_trip![
    ablation_ilp_vs_greedy => "ablation_ilp_vs_greedy",
    ablation_lane_length => "ablation_lane_length",
    fig02_wires => "fig02",
    fig05_homogeneous => "fig05",
    fig06_trace => "fig06",
    fig07_hetero => "fig07",
    fig09_htree_breakdown => "fig09",
    fig12_subbank_validation => "fig12",
    fig13_josim_validation => "fig13",
    fig14_design_space => "fig14",
    fig16_access_energy => "fig16",
    fig17_area => "fig17",
    fig18_single_speedup => "fig18",
    fig19_batch_speedup => "fig19",
    fig20_single_energy => "fig20",
    fig21_batch_energy => "fig21",
    fig22_shift_capacity => "fig22",
    fig23_random_capacity => "fig23",
    fig24_prefetch => "fig24",
    fig25_write_latency => "fig25",
    josim_fanout_characterization => "josim_fanout",
    josim_jtl_characterization => "josim_jtl",
    josim_ptl_characterization => "josim_ptl",
    search_frontier => "search_frontier",
    search_frontier_gap => "search_frontier_gap",
    search_warm_vs_cold => "search_warm_vs_cold",
    serving_batch_tail => "serving_batch_tail",
    serving_saturation => "serving_saturation",
    serving_tenant_mix => "serving_tenant_mix",
    table1_memories => "table1",
    table2_components => "table2",
    table4_configs => "table4",
    timing_buffer_depth => "timing_buffer_depth",
    timing_random_bandwidth => "timing_random_bandwidth",
    timing_stall_breakdown => "timing_stall_breakdown",
];

// `bench_check` has no `--list` mode (it gates two files, it does not
// run experiments), so it is exercised on the parse paths only.
mod bench_check {
    const EXE: &str = env!("CARGO_BIN_EXE_bench_check");

    #[test]
    fn help_documents_the_standard_flags() {
        super::check_help("bench_check", EXE, &[]);
    }

    #[test]
    fn bad_jobs_and_unknown_flags_exit_2() {
        super::check_bad_jobs("bench_check", EXE, &[]);
        super::check_unknown_flag("bench_check", EXE, &[]);
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

// Positional selection: `all_experiments NAME…` is how one experiment is
// run on its own.
mod all_experiments_selection {
    const EXE: &str = env!("CARGO_BIN_EXE_all_experiments");

    /// The `==== name ====` section of the committed golden snapshot,
    /// up to the next section header.
    fn snapshot_section(name: &str) -> String {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/snapshots/all_experiments.txt"
        );
        let snapshot = std::fs::read_to_string(path).expect("golden snapshot");
        let header = format!("==== {name} ====\n");
        let start = snapshot.find(&header).expect("section header");
        let rest = &snapshot[start + header.len()..];
        let end = rest.find("==== ").unwrap_or(rest.len());
        format!("{header}{}", &rest[..end])
    }

    fn stdout(args: &[&str]) -> String {
        let out = super::run(EXE, args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    }

    #[test]
    fn one_named_experiment_prints_its_snapshot_section() {
        assert_eq!(
            stdout(&["table4", "--jobs", "1"]),
            snapshot_section("table4")
        );
    }

    #[test]
    fn a_repeated_name_runs_once_at_its_first_position() {
        assert_eq!(
            stdout(&["table4", "table4", "--jobs", "1"]),
            snapshot_section("table4")
        );
        let listed = stdout(&["table4", "table2", "table4", "--list"]);
        let names: Vec<&str> = listed
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(names, ["table4", "table2"], "{listed}");
    }

    #[test]
    fn list_prints_one_line_per_name_and_filters_narrow_it() {
        let listed = stdout(&["fig18", "--list"]);
        assert_eq!(listed.lines().count(), 1, "{listed}");
        assert!(listed.starts_with("fig18 "), "{listed}");
        assert_eq!(stdout(&["fig18", "--filter", "timing", "--list"]), "");
    }

    #[test]
    fn an_unknown_name_exits_1_before_running_anything() {
        let out = super::run(EXE, &["no_such_experiment"]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "unknown experiment `no_such_experiment`; try --list\n"
        );
        assert!(out.stdout.is_empty(), "{out:?}");
    }
}
