//! The STARTS benchmark: one seeded workload per process, end-to-end
//! metrics from an untraced run, and with `--trace 1` a per-layer
//! self-time table from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload federated --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `federated`, `source-large`, `serve-mixed` (see
//! `workloads.rs` for why each exists). The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod checks;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;

use workloads::{Report, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload federated|source-large|serve-mixed \
                 --seed N --seconds S [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let report = workloads::run(args.workload, args.seed, args.seconds, args.trace);
    print_report(&args, &report);
    println!("{}", result_json(&report));
}

/// The bounded end-to-end metrics of a report, by name: (value, unit).
/// The latency tail is printed beside them but not bounded: on a shared
/// 2-vCPU machine it moves with the neighbours' load far more than any
/// bound a regression gate could use (the traced run records it).
fn end_to_end(report: &Report) -> Vec<(&'static str, f64, &'static str)> {
    let e = &report.end_to_end.kept;
    vec![
        ("setup_s", report.setup_s, "s"),
        ("qps", e.qps, "1/s"),
        ("latency_p50_us", e.latency.p50_us, "us"),
        ("cpu_us_per_query", e.cpu_us_per_query, "us"),
        ("rss_peak_mb", stats::peak_rss_mb(), "MiB"),
    ]
}

fn print_report(args: &Args, report: &Report) {
    let e = &report.end_to_end;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("-- end to end (untraced; the least-stolen quarter of the timed sub-windows)");
    for (name, value, unit) in end_to_end(report) {
        println!("{name:<20} {value:>14.3} {unit}");
    }
    let (kept, whole) = (&e.kept, &e.whole);
    println!(
        "latency_p{:<13} {:>14.3} us (over {} samples)",
        kept.latency.tail_pct, kept.latency.tail_us, kept.latency.samples
    );
    println!(
        "every sub-window: qps {:.3}, latency_p50_us {:.3}, cpu_us_per_query {:.3} \
         (kept / whole: {:.4}, {:.4}, {:.4})",
        whole.qps,
        whole.latency.p50_us,
        whole.cpu_us_per_query,
        kept.qps / whole.qps,
        kept.latency.p50_us / whole.latency.p50_us,
        kept.cpu_us_per_query / whole.cpu_us_per_query
    );
    println!(
        "failed_frac {} ({} of {} attempted, {} failed checks)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        report.check_failures
    );
    println!("results digest {:016x}", report.digest);
    println!(
        "hypervisor steal: {:.1}% of the machine's CPU over the timed window, \
         {:.1}% over the sub-windows the metrics come from",
        100.0 * whole.steal_frac,
        100.0 * kept.steal_frac
    );
    let Some(traced) = &report.traced else {
        return;
    };
    println!("-- layer self time along the blocking path (traced run, us per request)");
    let mut rows = traced.table.clone();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = rows.iter().map(|r| r.1).sum();
    for (row, us) in &rows {
        println!(
            "{row:<24} {us:>10.2} {:>6.1}%",
            100.0 * us / traced.mean_us.max(1e-9)
        );
    }
    println!(
        "{:<24} {total:>10.2}   (traced end to end {:.2} us per request)",
        "sum", traced.mean_us
    );
    let overhead = traced
        .layers
        .get("trace_overhead_frac")
        .map_or(0.0, |v| v.0);
    println!(
        "trace_overhead_frac {overhead:.4} (traced {:.2} us vs untraced {:.2} us mean per request)",
        traced.mean_us, e.mean_latency_us
    );
    println!(
        "index/source/obs.execute rows come from isolated replays, which took {:.0}% \
         of the in-line execute_traced time; the rest is in unattributed_us",
        100.0 * traced.replay_coverage
    );
    println!("-- other per-layer metrics");
    for (name, (value, unit)) in &traced.layers {
        if !rows.iter().any(|r| r.0 == *name) {
            println!("{name:<32} {value:>14.4} {unit}");
        }
    }
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<(&str, f64, &str)> = match &report.traced {
        Some(traced) => traced
            .layers
            .iter()
            .map(|(name, (value, unit))| (*name, *value, *unit))
            .collect(),
        None => end_to_end(report),
    };
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_the_driver_command_line() {
        let a = parse_args(&argv(
            "perfbench --workload source-large --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::SourceLarge);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("perfbench --workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("perfbench --workload federated --seconds 1")).is_err());
        assert!(parse_args(&argv("perfbench --workload federated --seed 1 --seconds 0")).is_err());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = workloads::inputs(20, 40, 11);
        let b = workloads::inputs(20, 40, 11);
        let c = workloads::inputs(20, 40, 12);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.corpus.all_docs(), b.corpus.all_docs());
        assert_ne!(a.queries, c.queries);
        assert_ne!(a.corpus.all_docs(), c.corpus.all_docs());
    }
}
