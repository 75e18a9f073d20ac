//! `rtft-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest-durable|bulk-voting|fault-campaign> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` before timing starts. With
//! `--trace 0` the run measures the end-to-end metrics; with `--trace 1`
//! it spends half its time untraced and half traced, and reports the
//! per-layer metrics, the tracing overhead between the halves, and the
//! layer probes, writing the spans to `perfbench/out/`. Every run checks
//! its outputs; the last line of standard output is the JSON result, and
//! the exit code is non-zero if any check failed.

mod campaign;
mod probes;
mod report;
mod serve_load;
mod stats;
mod trace;
mod util;

use crate::report::{Outcome, PER_LAYER};
use crate::serve_load::{ServeShape, BULK_VOTING, INGEST_DURABLE};
use crate::trace::Tracer;
use rtft_apps::networks::App;
use rtft_kpn::{set_default_queue, QueueKind};

const WORKLOADS: [&str; 3] = ["ingest-durable", "bulk-voting", "fault-campaign"];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            _ => return Err(format!("bad argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Writes the spans under `perfbench/out/`.
fn write_trace(workload: &str, seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let dir = util::bench_dir().join("out");
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    let spans = tracer.spans();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(workload, seed, &spans)));
    match written {
        Ok(()) => out.line(format!(
            "trace: {} spans -> {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.violation(format!("writing {}: {e}", path.display())),
    }
    let selfs = trace::self_times(&spans);
    let mut by_name: std::collections::BTreeMap<&str, (stats::Samples, stats::Samples)> =
        std::collections::BTreeMap::new();
    for s in &spans {
        let (dur, own) = by_name.entry(s.name).or_default();
        dur.push(s.duration_ns() as f64 / 1e6);
        own.push(selfs[&s.id] as f64 / 1e6);
    }
    for (name, (dur, own)) in &by_name {
        out.line(format!(
            "span {name:<16} n = {:>6}  duration p50 {:.4} ms  self p50 {:.4} ms",
            dur.len(),
            dur.median(),
            own.median()
        ));
    }
    let root_self: f64 = spans
        .iter()
        .find(|s| s.parent.is_none())
        .and_then(|root| by_name.get(root.name))
        .map_or(0.0, |(_, own)| own.median());
    out.layer("trace.root_self_ms.p50", root_self);
}

/// Tracing overhead: extra wall time per unit of work in the traced half.
fn overhead_pct(untraced_rate: f64, traced_rate: f64) -> f64 {
    (untraced_rate / traced_rate.max(1e-12) - 1.0) * 100.0
}

fn run_serve(name: &str, shape: &ServeShape, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let inputs = serve_load::inputs(shape, seed);
    let mut plain = serve_load::ServeData::default();
    if !traced {
        let samples = serve_load::SETUP_SAMPLES;
        serve_load::run(shape, seed, &inputs, seconds, samples, None, &mut plain);
        serve_load::report_e2e(shape, &plain, &mut out);
        out.e2e("peak_rss_mb", util::peak_rss_mb());
        return out;
    }
    // Untraced, traced, traced, untraced quarters: a steady drift in host
    // speed weighs on both halves alike, so the overhead compares like
    // with like.
    let tracer = Tracer::new();
    let mut d = serve_load::ServeData::default();
    for t in [None, Some(&tracer), Some(&tracer), None] {
        let data = if t.is_some() { &mut d } else { &mut plain };
        serve_load::run(shape, seed, &inputs, seconds / 4.0, 0, t, data);
    }
    out.attempted += plain.attempts + d.attempts;
    out.failed += plain.busy + plain.errors + d.busy + d.errors;
    out.violations.extend(plain.violations.iter().cloned());
    serve_load::report_layers(shape, &d, &mut out);
    out.layer(
        "obs.trace_overhead_pct",
        overhead_pct(
            plain.tokens as f64 / plain.loop_s.max(1e-9),
            d.tokens as f64 / d.loop_s.max(1e-9),
        ),
    );
    write_trace(name, seed, &tracer, &mut out);

    let batches: Vec<Vec<Vec<u8>>> = inputs.iter().flat_map(|c| c.batches.clone()).collect();
    let frame_bytes: usize = batches.iter().flatten().map(|p| p.len() + 4).sum();
    match probes::decode_mb_per_s(&batches, (50_000_000 / frame_bytes.max(1)).max(1)) {
        Ok(v) => out.layer("serve.wire.decode_mb_per_s", v),
        Err(e) => out.violation(format!("decode probe: {e}")),
    }
    if shape.durable {
        match probes::wal_append(&batches, 150) {
            Ok((samples, per_fsync)) => {
                out.layer("wal.append_ms.p50", samples.quantile(0.5));
                out.layer("wal.append_ms.p99", samples.quantile(0.99));
                out.layer("wal.appends_per_fsync", per_fsync);
            }
            Err(e) => out.violation(format!("WAL probe: {e}")),
        }
    }
    if shape.tenancy {
        match probes::tenant_admit_ns(shape.tokens_per_batch as u64, 20_000) {
            Ok(v) => out.layer("tenant.admit_ns.p50", v),
            Err(e) => out.violation(format!("tenant probe: {e}")),
        }
    }
    let payloads: Vec<Vec<u8>> = batches.into_iter().flatten().collect();
    common_probes(&[shape.app], &payloads, &mut out);
    out
}

/// Probes of the layers every workload runs: sizing, digests, engine.
fn common_probes(apps: &[App], payloads: &[Vec<u8>], out: &mut Outcome) {
    out.layer("core.sizing_us", probes::sizing_us(apps, 200));
    out.layer("kpn.digest_mb_per_s", probes::digest_mb_per_s(payloads, 9));
    out.layer("kpn.engine.events_per_s", probes::engine_events_per_s(7));
}

fn run_campaign(
    name: &str,
    shape: &campaign::CampaignShape,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, campaigns) = campaign::SetupSampler::start(shape, seed);
    let mut refs = campaign::Reference::default();
    let mut plain = campaign::CampaignData::default();
    if !traced {
        campaign::run_untraced(&campaigns, seconds, &mut setup, &mut refs, &mut plain);
        campaign::report_e2e(&setup.samples, &plain, &refs, &mut out);
        out.e2e("peak_rss_mb", util::peak_rss_mb());
        return out;
    }
    // Untraced and traced calls alternate on the same campaigns, each
    // going first every other time (the second run of a campaign finds
    // warm caches), so the overhead compares like with like.
    let tracer = Tracer::new();
    let mut d = campaign::CampaignData::default();
    let mut spans = campaign::ScenarioSpans::default();
    let mut i = 0;
    while i < campaign::DIGEST_CAMPAIGNS || plain.wall_s + d.wall_s < seconds {
        if i % 2 == 0 {
            campaign::untraced_call(&campaigns, i, &mut refs, &mut plain);
            campaign::traced_call(&campaigns, i, &tracer, &mut refs, &mut d, &mut spans);
        } else {
            campaign::traced_call(&campaigns, i, &tracer, &mut refs, &mut d, &mut spans);
            campaign::untraced_call(&campaigns, i, &mut refs, &mut plain);
        }
        i += 1;
    }
    out.attempted += plain.scenarios + d.scenarios;
    out.failed += plain.failed + d.failed;
    out.violations.extend(plain.violations.iter().cloned());
    campaign::report_layers(&d, &spans, &mut out);
    out.layer(
        "obs.trace_overhead_pct",
        overhead_pct(
            plain.scenarios as f64 / plain.cpu_s.max(1e-9),
            d.scenarios as f64 / d.cpu_s.max(1e-9),
        ),
    );
    write_trace(name, seed, &tracer, &mut out);
    let payloads: Vec<Vec<u8>> = App::ALL
        .iter()
        .flat_map(|&app| rtft_serve::workload(app, seed, 4))
        .collect();
    common_probes(&App::ALL, &payloads, &mut out);
    out
}

fn run_workload(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "ingest-durable" => run_serve(
            &args.workload,
            &INGEST_DURABLE,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "bulk-voting" => run_serve(
            &args.workload,
            &BULK_VOTING,
            args.seed,
            args.seconds,
            args.trace,
        ),
        _ => run_campaign(
            &args.workload,
            &campaign::FAULT_CAMPAIGN,
            args.seed,
            args.seconds,
            args.trace,
        ),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: rtft-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Pinned, so `RTFT_ENGINE_QUEUE` cannot change a run.
    set_default_queue(QueueKind::Calendar);
    let out = run_workload(&args);
    println!(
        "workload {} seed {} ({} s, trace {})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for l in &out.lines {
        println!("  {l}");
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            let v = out.per_layer.get(name).copied().unwrap_or(0.0);
            println!("  {name:<36} {v:>14.4} {unit}");
        }
    }
    for v in &out.violations {
        eprintln!("VIOLATION: {v}");
    }
    println!("{}", out.result_json(args.trace));
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload bulk-voting --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "bulk-voting");
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload bulk-voting --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload bulk-voting --seed 1 --trace 2").is_err());
        assert!(args("--seed 1 --seconds 1").is_err());
    }

    fn assert_complete(out: &Outcome, traced: bool) {
        assert!(out.correct(), "{:?}", out.violations);
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0);
        if !traced {
            for (name, _) in report::END_TO_END {
                let v = out.end_to_end.get(name).copied().unwrap_or(0.0);
                assert!(v > 0.0, "{name} = {v}");
            }
        }
    }

    fn tiny(shape: ServeShape) -> ServeShape {
        ServeShape {
            input_batches: 2,
            flushes_per_life: 3,
            ..shape
        }
    }

    #[test]
    fn tiny_ingest_durable_run_passes() {
        for traced in [false, true] {
            let out = run_serve("ingest-durable", &tiny(INGEST_DURABLE), 5, 0.2, traced);
            assert_complete(&out, traced);
            if traced {
                assert!(out.per_layer["wal.append_ms.p50"] > 0.0);
                assert!(out.per_layer["fleet.run_ms.mean"] > 0.0);
                assert!(out.per_layer["serve.unattributed_ms.p50"] > 0.0);
            }
        }
    }

    #[test]
    fn tiny_bulk_voting_run_passes() {
        for traced in [false, true] {
            let out = run_serve("bulk-voting", &tiny(BULK_VOTING), 6, 0.2, traced);
            assert_complete(&out, traced);
            if traced {
                assert!(out.per_layer["serve.wire.decode_mb_per_s"] > 0.0);
                assert_eq!(out.per_layer.get("wal.append_ms.p50"), None);
            }
        }
    }

    #[test]
    fn tiny_fault_campaign_run_passes() {
        let shape = campaign::CampaignShape {
            scenarios: 4,
            rounds: 2,
        };
        for traced in [false, true] {
            let out = run_campaign("fault-campaign", &shape, 7, 0.01, traced);
            assert_complete(&out, traced);
            if traced {
                assert!(out.per_layer["chaos.worker_busy_ratio"] > 0.0);
            }
        }
    }

    #[test]
    fn a_tampered_expected_digest_fails_the_run() {
        let shape = tiny(BULK_VOTING);
        let mut inputs = serve_load::inputs(&shape, 8);
        inputs[1].digests[0][3] ^= 1;
        let mut d = serve_load::ServeData::default();
        serve_load::run(&shape, 8, &inputs, 0.2, 1, None, &mut d);
        let mut out = Outcome::default();
        serve_load::report_e2e(&shape, &d, &mut out);
        assert!(!out.correct());
        assert!(
            out.violations.iter().any(|v| v.contains("output 3")),
            "{:?}",
            out.violations
        );
    }
}
