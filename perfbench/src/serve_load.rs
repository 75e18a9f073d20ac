//! The two serve workloads: closed-loop clients against a live server.
//!
//! Each of the two connections is one `Client` that owns one stream and
//! sends its next batch only after the previous flush's terminal
//! `Stats` came back. A server life starts a server (with a fresh WAL
//! directory when durable), connects, opens the streams, runs one
//! untimed warm-up flush per connection, then the timed loop until the
//! run's time budget or the life's flush cap is spent, then closes,
//! shuts down and, when durable, replays the life's log.
//!
//! Only the durable workload caps a life: `replay_verify` reads the whole
//! log into memory, so the cap bounds the log, and with it the disk and
//! peak memory, whatever the server's speed. Without the cap a server
//! 20 times faster would write and replay a 20 times larger log and show
//! as a memory regression. The warm-up flush keeps a fresh connection,
//! an empty payload pool and a new WAL file out of the latency samples.

use crate::report::Outcome;
use crate::stats::Samples;
use crate::trace::{Open, Tracer};
use crate::util::{mix, ms, WorkDir};
use rtft_apps::networks::App;
use rtft_fleet::FleetConfig;
use rtft_serve::{
    digest_of, replay_verify, workload, Client, FlushOutcome, ServeError, ServeReport, Server,
    ServerConfig, TenancyConfig, WalConfig,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fixed wait before a flush refused with `Busy` is retried. The wait
/// stays inside that flush's latency sample.
pub const BUSY_WAIT: Duration = Duration::from_millis(2);

/// How long a client waits for any reply before the run fails.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Client threads and connections: at most the 2 cores the benchmark is
/// sized for.
pub const CONNECTIONS: usize = 2;

/// One serve workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub app: App,
    pub tokens_per_batch: usize,
    pub redundancy: u8,
    /// WAL with fsync, `send_tokens_durable`, and a replay after each life.
    pub durable: bool,
    pub tenancy: bool,
    /// Distinct input batches per connection, generated before timing.
    pub input_batches: usize,
    /// Timed flushes per connection after which a life ends.
    pub flushes_per_life: usize,
}

/// Set-up samples per untraced run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 9;

/// Set-ups per set-up sample, each in a life that runs no loop. A
/// set-up waits for the server's 10 ms accept poll once or twice, each
/// about as often: single set-ups take about 12 or 22 ms, and their
/// median flips between the two. The mean of a block does not.
pub const SETUP_BLOCK: usize = 5;

/// Payload bytes one durable life logs at most: 8 MiB. Each ingest flush
/// logs 16 x 3,072 B of payload (49,395 B of log with record framing and
/// the outputs record), so a life is 85 timed flushes per connection,
/// about 4 s at the seed's 44 ms, and its replay about 50 ms. At 16 MiB
/// the peak RSS of a run fell on 30.5 or 36.4 MB, run by run; at 8 MiB
/// it stays within 22.3 to 22.6 MB.
pub const LIFE_LOG_BYTES: usize = 8 << 20;

/// `ingest-durable`: small ADPCM batches, duplicated, WAL + tenancy.
pub const INGEST_DURABLE: ServeShape = ServeShape {
    app: App::Adpcm,
    tokens_per_batch: 16,
    redundancy: 2,
    durable: true,
    tenancy: true,
    input_batches: 16,
    flushes_per_life: LIFE_LOG_BYTES / (CONNECTIONS * 16 * 3_072),
};

/// `bulk-voting`: ~0.92 MB batches of raw H.264 frames, triple voting,
/// no WAL and no tenancy.
pub const BULK_VOTING: ServeShape = ServeShape {
    app: App::H264,
    tokens_per_batch: 12,
    redundancy: 3,
    durable: false,
    tenancy: false,
    input_batches: 8,
    // No log to bound: one life per run.
    flushes_per_life: usize::MAX,
};

/// One connection's inputs: batches and the digest every output must carry.
pub struct ConnInputs {
    pub batches: Vec<Vec<Vec<u8>>>,
    pub digests: Vec<Vec<u64>>,
}

/// Generates every connection's inputs from `seed`.
pub fn inputs(shape: &ServeShape, seed: u64) -> Vec<ConnInputs> {
    (0..CONNECTIONS)
        .map(|c| {
            let batches: Vec<Vec<Vec<u8>>> = (0..shape.input_batches)
                .map(|b| {
                    workload(
                        shape.app,
                        mix(seed, c as u64, b as u64),
                        shape.tokens_per_batch,
                    )
                })
                .collect();
            let digests = batches
                .iter()
                .map(|batch| batch.iter().map(|p| digest_of(p)).collect())
                .collect();
            ConnInputs { batches, digests }
        })
        .collect()
}

/// Checks one admitted flush: every token came back, in order, with the
/// digest of the payload sent at its position, and the terminal stats
/// account for all of them. `delivered` is the stream's total before it.
pub fn verify_flush(expected: &[u64], out: &FlushOutcome, delivered: u64) -> Result<(), String> {
    if out.outputs.len() != expected.len() {
        return Err(format!(
            "{} outputs for {} tokens",
            out.outputs.len(),
            expected.len()
        ));
    }
    for (i, (o, want)) in out.outputs.iter().zip(expected).enumerate() {
        if o.seq != i as u64 || o.digest != *want {
            return Err(format!(
                "output {i}: seq {} digest {:#x}, expected seq {i} digest {want:#x}",
                o.seq, o.digest
            ));
        }
    }
    if !out.faults.is_empty() {
        return Err(format!(
            "{} fault latches on a healthy run",
            out.faults.len()
        ));
    }
    match &out.stats {
        Some(s) if s.delivered == delivered + expected.len() as u64 => Ok(()),
        Some(s) => Err(format!(
            "stats delivered {} after {} + {}",
            s.delivered,
            delivered,
            expected.len()
        )),
        None => Err("flush ended without stats".into()),
    }
}

/// What the serve loop measured, across lives.
#[derive(Debug, Default)]
pub struct ServeData {
    pub setup_s: Samples,
    pub flush_ms: Samples,
    /// The untimed warm-up flush of each connection in each life.
    pub warmup_ms: Samples,
    pub send_ms: Samples,
    pub flush_call_ms: Samples,
    pub unattributed_ms: Samples,
    pub completion_ms: Samples,
    pub loop_s: f64,
    pub tokens: u64,
    pub flushes: u64,
    pub attempts: u64,
    pub busy: u64,
    pub errors: u64,
    pub replay_s: f64,
    pub replayed_flushes: u64,
    pub read_log_s: f64,
    pub read_log_bytes: u64,
    pub frames_out: u64,
    pub bytes_in: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub jobs_failed: u64,
    pub tenant_rejected: u64,
    pub violations: Vec<String>,
}

/// One connection's loop results.
#[derive(Default)]
struct ConnData {
    flush_ms: Vec<f64>,
    send_ms: Vec<f64>,
    /// Duration of each admitted `Client::flush`, in flush order.
    flush_call_ns: Vec<u64>,
    tokens: u64,
    attempts: u64,
    busy: u64,
    errors: u64,
    violations: Vec<String>,
}

fn server_config(shape: &ServeShape, seed: u64, wal: Option<&WorkDir>) -> ServerConfig {
    ServerConfig {
        // Explicit sizes: no environment variable or core count moves
        // a run.
        fleet: FleetConfig {
            workers: 2,
            pending_capacity: 64,
            max_replacements: 0,
        },
        seed,
        wal: wal.map(|d| WalConfig::new(d.path()).with_fsync(true)),
        tenancy: shape.tenancy.then(TenancyConfig::default),
        ..ServerConfig::default()
    }
}

/// Starts a server, connects every client and opens one stream each.
fn set_up(
    shape: &ServeShape,
    cfg: &ServerConfig,
) -> Result<(Server, Vec<(Client, u32)>), ServeError> {
    let server = Server::start("127.0.0.1:0", cfg.clone())?;
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for c in 0..CONNECTIONS {
        let mut client = Client::connect(server.addr(), &format!("perfbench-{c}"))?;
        // A wedged server fails the run instead of hanging it.
        client.set_read_timeout(Some(READ_TIMEOUT))?;
        match client.open_stream(shape.app, shape.redundancy)? {
            rtft_serve::OpenOutcome::Stream(id) => conns.push((client, id)),
            rtft_serve::OpenOutcome::Busy(b) => {
                return Err(ServeError::Io(std::io::Error::other(format!(
                    "open refused: {b:?}"
                ))))
            }
        }
    }
    Ok((server, conns))
}

/// Runs `f`, inside a child span of `root` when tracing.
fn traced<R>(
    tracer: Option<&Tracer>,
    root: Option<&Open>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match (tracer, root) {
        (Some(t), Some(r)) => t.in_child(r, name, f),
        _ => f(),
    }
}

/// One admitted flush of a closed-loop step.
struct Step {
    /// From the start of the Tokens send to the terminal `Stats`, Busy
    /// retries and their waits included.
    flush_ms: f64,
    send_ms: f64,
    /// The admitted `Client::flush` call alone.
    flush_call_ns: u64,
    out: FlushOutcome,
}

/// Sends `batch` and flushes it, retrying a Busy refusal after
/// [`BUSY_WAIT`]. Errors end the connection's loop.
fn step(
    shape: &ServeShape,
    client: &mut Client,
    stream: u32,
    batch: &[Vec<u8>],
    tracer: Option<&Tracer>,
    d: &mut ConnData,
) -> Result<Step, String> {
    let root = tracer.map(|t| t.root("flush"));
    let t0 = Instant::now();
    let sent = traced(tracer, root.as_ref(), "serve.send", || {
        if shape.durable {
            client
                .send_tokens_durable(stream, batch)
                .map(|ack| ack.tokens as usize == batch.len())
        } else {
            client.send_tokens(stream, batch).map(|()| true)
        }
    });
    let send_ms = ms(t0.elapsed());
    match sent {
        Ok(true) => {}
        Ok(false) => return Err("durable ack for a partial batch".into()),
        Err(e) => {
            d.errors += 1;
            return Err(format!("send failed: {e}"));
        }
    }
    loop {
        d.attempts += 1;
        let tc = Instant::now();
        let res = traced(tracer, root.as_ref(), "serve.flush_call", || {
            client.flush(stream)
        });
        let flush_call_ns = tc.elapsed().as_nanos() as u64;
        match res {
            Ok(out) if out.busy.is_some() => {
                d.busy += 1;
                std::thread::sleep(BUSY_WAIT);
            }
            Ok(out) => {
                let flush_ms = ms(t0.elapsed());
                if let (Some(t), Some(r)) = (tracer, root) {
                    t.close(r);
                }
                return Ok(Step {
                    flush_ms,
                    send_ms,
                    flush_call_ns,
                    out,
                });
            }
            Err(e) => {
                d.errors += 1;
                return Err(format!("flush failed: {e}"));
            }
        }
    }
}

/// The untimed warm-up: one flush of batch 0 per connection, checked
/// like the timed ones. Its latency is kept apart, to show what a fresh
/// life's first flush costs. Returns how many connections warmed up.
fn warm_up(
    shape: &ServeShape,
    conns: &mut [(Client, u32)],
    inputs: &[ConnInputs],
    data: &mut ServeData,
) -> u64 {
    let mut warmed = 0;
    for ((client, stream), input) in conns.iter_mut().zip(inputs) {
        let mut d = ConnData::default();
        let checked = step(shape, client, *stream, &input.batches[0], None, &mut d)
            .and_then(|s| verify_flush(&input.digests[0], &s.out, 0).map(|()| s.flush_ms));
        data.attempts += d.attempts;
        data.busy += d.busy;
        data.errors += d.errors;
        match checked {
            Ok(v) => {
                data.warmup_ms.push(v);
                warmed += 1;
            }
            Err(e) => data
                .violations
                .push(format!("stream {stream} warm-up flush: {e}")),
        }
    }
    warmed
}

/// The timed closed loop of one connection, after its warm-up flush,
/// until `deadline` or the life's cap.
fn conn_loop(
    shape: &ServeShape,
    client: &mut Client,
    stream: u32,
    input: &ConnInputs,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> ConnData {
    let mut d = ConnData::default();
    let mut delivered = input.digests[0].len() as u64;
    let mut k = 1usize;
    while k <= shape.flushes_per_life && Instant::now() < deadline {
        let batch = &input.batches[k % input.batches.len()];
        let expected = &input.digests[k % input.digests.len()];
        let s = match step(shape, client, stream, batch, tracer, &mut d) {
            Ok(s) => s,
            Err(e) => {
                d.violations.push(format!("stream {stream} flush {k}: {e}"));
                break;
            }
        };
        d.flush_ms.push(s.flush_ms);
        d.send_ms.push(s.send_ms);
        d.flush_call_ns.push(s.flush_call_ns);
        match verify_flush(expected, &s.out, delivered) {
            Ok(()) => {
                delivered += expected.len() as u64;
                d.tokens += expected.len() as u64;
            }
            Err(v) => d.violations.push(format!("stream {stream} flush {k}: {v}")),
        }
        k += 1;
    }
    d
}

/// Checks the end-of-life report and folds its counts into `data`.
/// Returns each stream's job completion times in completion order.
fn fold_report(report: &ServeReport, data: &mut ServeData) -> BTreeMap<u32, Vec<u64>> {
    if !report.balanced() {
        data.violations
            .push("ServeReport is not balanced".to_string());
    }
    for s in &report.streams {
        if s.undelivered != 0 || s.rejected != 0 || s.faults != 0 {
            data.violations.push(format!(
                "stream {}: {} undelivered, {} rejected, {} faults",
                s.id, s.undelivered, s.rejected, s.faults
            ));
        }
    }
    data.frames_out += report.frames_out;
    data.bytes_in += report.bytes_in;
    if let Some(t) = &report.tenants {
        data.tenant_rejected += t
            .tenants
            .iter()
            .map(|t| t.rejected_quota + t.rejected_rate + t.rejected_draining)
            .sum::<u64>();
    }
    let mut by_stream: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for run in &report.fleet.runs {
        if run.failed || !run.deadline_met {
            data.jobs_failed += 1;
            data.violations.push(format!(
                "fleet job {} failed or missed its deadline",
                run.name
            ));
        }
        // Jobs are named `serve/{app}/{stream}`.
        match run.name.rsplit('/').next().and_then(|s| s.parse().ok()) {
            Some(stream) => by_stream.entry(stream).or_default().push(run.completion_ns),
            None => data
                .violations
                .push(format!("fleet job name {} names no stream", run.name)),
        }
    }
    by_stream
}

/// One server life: set-up, the warm-up and the timed loop when
/// `budget` is given, then close, shutdown and, when durable, the
/// replay. Returns the set-up time; failures are recorded as violations.
fn life(
    shape: &ServeShape,
    seed: u64,
    inputs: &[ConnInputs],
    budget: Option<Duration>,
    tracer: Option<&Tracer>,
    data: &mut ServeData,
) -> Option<f64> {
    let dir = if shape.durable {
        match WorkDir::new("wal") {
            Ok(d) => Some(d),
            Err(e) => {
                data.violations.push(format!("WAL directory: {e}"));
                return None;
            }
        }
    } else {
        None
    };
    let cfg = server_config(shape, seed, dir.as_ref());
    let t = Instant::now();
    let (server, mut conns) = match set_up(shape, &cfg) {
        Ok(v) => v,
        Err(e) => {
            data.violations.push(format!("set-up failed: {e}"));
            return None;
        }
    };
    let setup_s = t.elapsed().as_secs_f64();

    let mut life_flushes = 0u64;
    let mut warmed = 0u64;
    let mut streams = Vec::new();
    if let Some(budget) = budget {
        warmed = warm_up(shape, &mut conns, inputs, data);
        let start = Instant::now();
        let deadline = start + budget;
        let results: Vec<ConnData> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(inputs)
                .map(|((client, stream), input)| {
                    let stream = *stream;
                    s.spawn(move || conn_loop(shape, client, stream, input, deadline, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        data.loop_s += start.elapsed().as_secs_f64();
        for ((_, stream), r) in conns.iter().zip(results) {
            life_flushes += r.flush_call_ns.len() as u64;
            data.flushes += r.flush_call_ns.len() as u64;
            data.tokens += r.tokens;
            data.attempts += r.attempts;
            data.busy += r.busy;
            data.errors += r.errors;
            data.violations.extend(r.violations);
            for v in r.flush_ms {
                data.flush_ms.push(v);
            }
            for v in r.send_ms {
                data.send_ms.push(v);
            }
            streams.push((*stream, r.flush_call_ns));
        }
        let registry = server.registry();
        data.pool_hits += registry.counter("kpn.pool.hits").get();
        data.pool_misses += registry.counter("kpn.pool.misses").get();
    }
    for (client, stream) in conns.iter_mut() {
        if let Err(e) = client.close(*stream) {
            data.violations
                .push(format!("close of stream {stream}: {e}"));
        }
    }
    drop(conns);
    let report = server.shutdown();
    let completions = fold_report(&report, data);

    // Unattributed time: each timed flush call minus its job's
    // completion time, matched by stream and order after the warm-up's.
    for (stream, calls) in &streams {
        let jobs = completions.get(stream).map_or(&[][..], |v| &v[..]);
        let jobs = jobs.get(1..).unwrap_or_default();
        if jobs.len() != calls.len() {
            data.violations.push(format!(
                "stream {stream}: {} fleet jobs for {} flushes",
                jobs.len(),
                calls.len()
            ));
            continue;
        }
        for (&call, &job) in calls.iter().zip(jobs) {
            data.flush_call_ms.push(call as f64 / 1e6);
            data.completion_ms.push(job as f64 / 1e6);
            data.unattributed_ms
                .push(call.saturating_sub(job) as f64 / 1e6);
        }
    }

    if let Some(dir) = &dir {
        let t = Instant::now();
        let logged = life_flushes + warmed;
        match replay_verify(dir.path(), &cfg) {
            Ok(r) => {
                if logged > 0 {
                    data.replay_s += t.elapsed().as_secs_f64();
                    data.replayed_flushes += logged;
                }
                let replayed: u64 = r.streams.iter().map(|s| s.replayed).sum();
                if !r.clean() || replayed != logged * shape.tokens_per_batch as u64 {
                    data.violations.push(format!(
                        "replay_verify: {} divergent, {replayed} tokens replayed for {logged} flushes",
                        r.divergent()
                    ));
                }
            }
            Err(e) => data.violations.push(format!("replay_verify: {e}")),
        }
        if tracer.is_some() && logged > 0 {
            let t = Instant::now();
            match rtft_wal::read_log(dir.path()) {
                Ok((records, _)) => {
                    data.read_log_s += t.elapsed().as_secs_f64();
                    data.read_log_bytes += dir.bytes();
                    std::hint::black_box(records);
                }
                Err(e) => data.violations.push(format!("read_log: {e}")),
            }
        }
    }
    Some(setup_s)
}

/// Set-up samples of an untraced run, each the mean of a block of set-up
/// lives.
fn setup_block(shape: &ServeShape, seed: u64, inputs: &[ConnInputs], data: &mut ServeData) {
    let mut total = 0.0;
    for _ in 0..SETUP_BLOCK {
        match life(shape, seed, inputs, None, None, data) {
            Some(s) => total += s,
            None => return,
        }
    }
    data.setup_s.push(total / SETUP_BLOCK as f64);
}

/// Runs lives into `data` until `seconds` more of loop time are spent,
/// and takes `setup_samples` set-up samples. Before each timed life the
/// samples catch up with the share of the loop done, plus one; the rest
/// follow the loop. So the set-ups see the host over the whole run, as
/// the flushes do.
pub fn run(
    shape: &ServeShape,
    seed: u64,
    inputs: &[ConnInputs],
    seconds: f64,
    setup_samples: usize,
    tracer: Option<&Tracer>,
    data: &mut ServeData,
) {
    let (start, end) = (data.loop_s, data.loop_s + seconds);
    // A violation ends the run early: its result is a failure either way.
    while data.loop_s < end && data.violations.is_empty() {
        let done = (data.loop_s - start) / seconds;
        let due = setup_samples.min((setup_samples as f64 * done) as usize + 1);
        while data.setup_s.len() < due && data.violations.is_empty() {
            setup_block(shape, seed, inputs, data);
        }
        let budget = Duration::from_secs_f64(end - data.loop_s);
        life(shape, seed, inputs, Some(budget), tracer, data);
    }
    while data.setup_s.len() < setup_samples && data.violations.is_empty() {
        setup_block(shape, seed, inputs, data);
    }
}

/// End-to-end metrics and report lines from an untraced serve run.
pub fn report_e2e(shape: &ServeShape, d: &ServeData, out: &mut Outcome) {
    out.attempted += d.attempts;
    out.failed += d.busy + d.errors;
    out.violations.extend(d.violations.iter().cloned());
    let loop_s = d.loop_s.max(1e-9);
    out.e2e("setup_s", d.setup_s.median());
    out.e2e("flush_p50_ms", d.flush_ms.quantile(0.5));
    out.e2e("flush_p99_ms", d.flush_ms.quantile(0.99));
    out.e2e("tokens_per_s", d.tokens as f64 / loop_s);
    out.e2e("scenarios_per_s", d.flushes as f64 / loop_s);
    out.line(format!(
        "setup_s          {:.6} s  (median of {} means of {} set-ups; min {:.6}, max {:.6})",
        d.setup_s.median(),
        d.setup_s.len(),
        SETUP_BLOCK,
        d.setup_s.quantile(0.0),
        d.setup_s.quantile(1.0)
    ));
    out.line(format!(
        "flush_p50_ms     {:.3} ms  flush_p99_ms {:.3} ms  (n = {} flushes)",
        d.flush_ms.quantile(0.5),
        d.flush_ms.quantile(0.99),
        d.flush_ms.len()
    ));
    out.line(format!(
        "warm-up flush    p50 {:.3} ms  max {:.3} ms  (n = {}, untimed: first flush of each connection in each life)",
        d.warmup_ms.median(),
        d.warmup_ms.quantile(1.0),
        d.warmup_ms.len()
    ));
    out.line(format!(
        "tokens_per_s     {:.1} tokens/s  ({} verified tokens in {:.3} s)",
        d.tokens as f64 / loop_s,
        d.tokens,
        d.loop_s
    ));
    out.line(format!(
        "scenarios_per_s  {:.2} flushes/s (one fleet job per flush)",
        d.flushes as f64 / loop_s
    ));
    if shape.durable {
        out.line(format!(
            "ack_p50_ms       {:.3} ms  ack_p99_ms {:.3} ms  (n = {} durable acks)",
            d.send_ms.quantile(0.5),
            d.send_ms.quantile(0.99),
            d.send_ms.len()
        ));
        out.line(format!(
            "replay_flushes_per_s {:.1} flushes/s  ({} flushes in {:.3} s)",
            d.replayed_flushes as f64 / d.replay_s.max(1e-9),
            d.replayed_flushes,
            d.replay_s
        ));
    }
    out.line(format!(
        "failed_ratio     {:.6}  ({} busy + {} errored of {} flush attempts)",
        (d.busy + d.errors) as f64 / d.attempts.max(1) as f64,
        d.busy,
        d.errors,
        d.attempts
    ));
}

/// Per-layer metrics from a traced serve run.
pub fn report_layers(shape: &ServeShape, d: &ServeData, out: &mut Outcome) {
    out.violations.extend(d.violations.iter().cloned());
    let flushes = d.flushes.max(1) as f64;
    out.layer("serve.send_ms.p50", d.send_ms.quantile(0.5));
    out.layer("serve.send_ms.p99", d.send_ms.quantile(0.99));
    out.layer("serve.flush_call_ms.p50", d.flush_call_ms.quantile(0.5));
    out.layer("serve.flush_call_ms.p99", d.flush_call_ms.quantile(0.99));
    out.layer("serve.unattributed_ms.p50", d.unattributed_ms.quantile(0.5));
    out.layer("serve.frames_out_per_flush", d.frames_out as f64 / flushes);
    out.layer("serve.bytes_in_per_flush", d.bytes_in as f64 / flushes);
    out.layer("fleet.completion_ms.p50", d.completion_ms.quantile(0.5));
    out.layer("fleet.completion_ms.p99", d.completion_ms.quantile(0.99));
    out.layer("fleet.jobs_failed", d.jobs_failed as f64);
    out.layer(
        "kpn.pool.hit_rate",
        d.pool_hits as f64 / (d.pool_hits + d.pool_misses).max(1) as f64,
    );
    if shape.durable {
        out.line(format!(
            "wal log {:.0} B per flush  ({} B over {} replayed flushes)",
            d.read_log_bytes as f64 / d.replayed_flushes.max(1) as f64,
            d.read_log_bytes,
            d.replayed_flushes
        ));
        out.layer(
            "fleet.run_ms.mean",
            d.replay_s * 1e3 / d.replayed_flushes.max(1) as f64,
        );
        out.layer(
            "wal.read_mb_per_s",
            d.read_log_bytes as f64 / 1e6 / d.read_log_s.max(1e-9),
        );
    }
    if shape.tenancy {
        out.layer("tenant.rejected", d.tenant_rejected as f64);
    }
    out.line(format!(
        "traced: {} flushes, flush_call p50 {:.3} ms, fleet completion p50 {:.3} ms, unattributed p50 {:.3} ms (n = {})",
        d.flushes,
        d.flush_call_ms.quantile(0.5),
        d.completion_ms.quantile(0.5),
        d.unattributed_ms.quantile(0.5),
        d.unattributed_ms.len()
    ));
}
