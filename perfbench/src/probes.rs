//! Per-layer probes: timed calls into one layer's public functions, on
//! the inputs of the workload being traced.

use crate::stats::Samples;
use crate::util::WorkDir;
use rtft_apps::networks::App;
use rtft_core::DuplicationConfig;
use rtft_kpn::{
    Collector, Engine, Fifo, Network, Payload, PayloadPool, PjdSource, PortId, QueueKind,
};
use rtft_obs::MetricsRegistry;
use rtft_rtc::{PjdModel, TimeNs};
use rtft_serve::wire::{write_tokens, Frame};
use rtft_tenant::{TenantConfig, TenantManager};
use rtft_wal::{Wal, WalConfig, WalRecord};
use std::time::Instant;

/// `Frame::decode_pooled` throughput in MB/s over the batches' encoded
/// `Tokens` frames, with decoded payloads recycled into the pool as the
/// server does. Fails if a decoded frame differs from what was encoded.
pub fn decode_mb_per_s(batches: &[Vec<Vec<u8>>], reps: usize) -> Result<f64, String> {
    let frames: Vec<Vec<u8>> = batches
        .iter()
        .map(|b| {
            let mut wire = Vec::new();
            write_tokens(&mut wire, 7, b).expect("writing into a Vec cannot fail");
            wire
        })
        .collect();
    let pool = PayloadPool::new();
    let mut bytes = 0u64;
    let mut secs = 0.0;
    for _ in 0..reps {
        for (wire, batch) in frames.iter().zip(batches) {
            // The length prefix is stripped, as the server's reader does.
            let t = Instant::now();
            let frame = Frame::decode_pooled(&wire[4..], &pool).map_err(|e| e.to_string())?;
            secs += t.elapsed().as_secs_f64();
            bytes += wire.len() as u64;
            match frame {
                Frame::Tokens {
                    stream: 7,
                    payloads,
                } if payloads.len() == batch.len() => {
                    if payloads.iter().zip(batch).any(|(p, b)| p[..] != b[..]) {
                        return Err("decoded payload differs from the encoded one".into());
                    }
                    for p in payloads {
                        pool.recycle(p);
                    }
                }
                other => return Err(format!("decoded {} instead of Tokens", other.name())),
            }
        }
    }
    Ok(bytes as f64 / 1e6 / secs.max(1e-12))
}

/// `Wal::append` of one `Tokens` record per batch from two threads into a
/// fresh directory with fsync on: per-append latency in ms, and appends
/// per fsync from the WAL's own counters.
pub fn wal_append(batches: &[Vec<Vec<u8>>], per_thread: usize) -> Result<(Samples, f64), String> {
    let dir = WorkDir::new("wal-probe").map_err(|e| e.to_string())?;
    let (wal, _) =
        Wal::open(WalConfig::new(dir.path()).with_fsync(true)).map_err(|e| e.to_string())?;
    let records: Vec<WalRecord> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| WalRecord::Tokens {
            stream: i as u32,
            payloads: b.iter().map(|p| rtft_kpn::Bytes::from(&p[..])).collect(),
        })
        .collect();
    let per_thread_samples: Vec<Result<Samples, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (wal, records) = (&wal, &records);
                s.spawn(move || {
                    let mut samples = Samples::new();
                    for i in 0..per_thread {
                        let rec = &records[(2 * i + t) % records.len()];
                        let start = Instant::now();
                        wal.append(rec).map_err(|e| e.to_string())?;
                        samples.push(start.elapsed().as_secs_f64() * 1e3);
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("WAL probe thread panicked"))
            .collect()
    });
    let mut all = Samples::new();
    for s in per_thread_samples {
        all.extend(&s?);
    }
    let appends = wal.registry().counter("wal.appends").get();
    let fsyncs = wal.registry().counter("wal.fsyncs").get();
    Ok((all, appends as f64 / fsyncs.max(1) as f64))
}

/// Median ns of one `admit_tokens` + `admit_flush` pair for a batch of
/// `tokens`, on a default tenant of a 4-shard directory.
pub fn tenant_admit_ns(tokens: u64, n: usize) -> Result<f64, String> {
    let mgr = TenantManager::new(4);
    let id = mgr
        .attach("perfbench", TenantConfig::default())
        .map_err(|e| e.to_string())?;
    let epoch = Instant::now();
    let mut samples = Samples::new();
    for _ in 0..n {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let admitted = mgr
            .admit_tokens(id, tokens)
            .and_then(|()| mgr.admit_flush(id, tokens, now_ns));
        samples.push(t.elapsed().as_nanos() as f64);
        admitted.map_err(|e| format!("tenant admission refused: {e:?}"))?;
        // Undo the flush and drop the buffered tokens, so every pair
        // sees the same quota state.
        mgr.cancel_flush(id, tokens);
        mgr.release_buffered(id, tokens);
    }
    Ok(samples.median())
}

/// Median µs of `DuplicationConfig::from_model` over `apps`' models, the
/// sizing `build_spec` repeats for every duplicated flush.
pub fn sizing_us(apps: &[App], n: usize) -> f64 {
    let mut samples = Samples::new();
    for _ in 0..n {
        for app in apps {
            let model = app.profile().model;
            let t = Instant::now();
            let cfg = DuplicationConfig::from_model(model);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(cfg.is_ok());
        }
    }
    samples.median()
}

/// `Payload::digest` throughput in MB/s over `payloads`; the median of
/// `reps` passes.
pub fn digest_mb_per_s(payloads: &[Vec<u8>], reps: usize) -> f64 {
    let payloads: Vec<Payload> = payloads.iter().map(|p| Payload::from(p.clone())).collect();
    let bytes: usize = payloads
        .iter()
        .map(|p| p.as_bytes().map_or(0, |b| b.len()))
        .sum();
    let mut rates = Samples::new();
    for _ in 0..reps {
        let t = Instant::now();
        let mut acc = 0u64;
        for p in &payloads {
            acc ^= std::hint::black_box(p).digest();
        }
        std::hint::black_box(acc);
        rates.push(bytes as f64 / 1e6 / t.elapsed().as_secs_f64().max(1e-12));
    }
    rates.median()
}

/// Tokens the engine probe's source emits.
const ENGINE_TOKENS: u64 = 100_000;

/// The E12 pipeline: PjdSource -> Fifo(64) -> Collector.
fn engine_network() -> Network {
    let mut net = Network::new();
    let link = net.add_channel(Fifo::new("link", 64));
    net.add_process(PjdSource::new(
        "src",
        PortId::of(link),
        PjdModel::periodic(TimeNs::from_us(10)),
        1,
        Some(ENGINE_TOKENS),
        Payload::U64,
    ));
    net.add_process(Collector::new(
        "col",
        PortId::of(link),
        Some(ENGINE_TOKENS as usize),
    ));
    net
}

/// Engine events per second through `Engine::run_until` on the calendar
/// queue; the median of `reps` metric-free runs. The event count comes
/// from one counted run.
pub fn engine_events_per_s(reps: usize) -> f64 {
    let registry = MetricsRegistry::new();
    let mut counted = Engine::new(engine_network())
        .with_queue(QueueKind::Calendar)
        .with_metrics(&registry);
    counted.run_until(TimeNs::from_secs(30));
    let events = registry.counter("kpn.engine.events").get();
    let mut rates = Samples::new();
    for _ in 0..reps {
        let mut engine = Engine::new(engine_network()).with_queue(QueueKind::Calendar);
        let t = Instant::now();
        engine.run_until(TimeNs::from_secs(30));
        rates.push(events as f64 / t.elapsed().as_secs_f64().max(1e-12));
    }
    rates.median()
}
