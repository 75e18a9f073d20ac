//! The `fault-campaign` workload: seeded fault campaigns on the
//! deterministic DES, no sockets, WAL or tenants.
//!
//! Each round is one classic campaign (3 apps x duplicated/voting x
//! ideal/SCC/degraded NoC x every fault kind, fault-free included) and
//! two sampled-checker campaigns at strides 4 and 16. Every campaign runs
//! through `Campaign::run_with_workers` at a fixed worker count, so
//! neither the core count nor `RTFT_CAMPAIGN_WORKERS` moves a run. The
//! untraced loop times each of those calls in CPU and wall time; the
//! traced loop scatters the same scenarios through the same public
//! `parallel_map_ordered` with one root span around each `run_scenario`.

use crate::report::Outcome;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::util::{mix, process_cpu_s};
use rtft_apps::networks::App;
use rtft_chaos::{
    run_scenario, Campaign, CampaignReport, OutcomeClass, Redundancy, ScenarioOutcome,
};
use rtft_kpn::{digest_bytes, parallel_map_ordered};
use std::collections::BTreeMap;
use std::time::Instant;

pub const WORKERS: usize = 2;

/// Sampling strides of the two sampled-checker campaigns in a round.
pub const STRIDES: [u64; 2] = [4, 16];

#[derive(Debug, Clone, Copy)]
pub struct CampaignShape {
    /// Scenarios per campaign (classic and sampled-checker alike).
    pub scenarios: u64,
    /// Distinct rounds generated before timing; the loop cycles them.
    pub rounds: u64,
}

pub const FAULT_CAMPAIGN: CampaignShape = CampaignShape {
    scenarios: 8,
    rounds: 256,
};

/// Campaigns every run executes, whatever its time budget; the printed
/// report digest covers exactly these.
pub const DIGEST_CAMPAIGNS: usize = 24;

/// Set-up samples per untraced run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 11;

/// Generates every round's three campaigns from `seed`.
pub fn generate(shape: &CampaignShape, seed: u64) -> Vec<Campaign> {
    let mut campaigns = Vec::with_capacity(3 * shape.rounds as usize);
    for r in 0..shape.rounds {
        let round_seed = mix(seed, 0xCA, r);
        campaigns.push(Campaign::generate(round_seed, shape.scenarios));
        for k in STRIDES {
            campaigns.push(Campaign::generate_hetero(round_seed, shape.scenarios, k));
        }
    }
    campaigns
}

/// The set-up samples of one run. A sample is the CPU time of generating
/// every round, divided by the rounds: rounds differ in cost with their
/// seed, so one round's time is no steady sample, while their mean is.
/// The host's speed for this single-threaded work drifts by a fifth over
/// seconds, so the samples are spread over the whole run, as the
/// campaign calls are.
#[derive(Debug)]
pub struct SetupSampler {
    shape: CampaignShape,
    seed: u64,
    pub samples: Samples,
}

impl SetupSampler {
    /// Generates the run's campaigns, timed as the first sample.
    pub fn start(shape: &CampaignShape, seed: u64) -> (SetupSampler, Vec<Campaign>) {
        let mut sampler = SetupSampler {
            shape: *shape,
            seed,
            samples: Samples::new(),
        };
        let campaigns = sampler.sample();
        (sampler, campaigns)
    }

    fn sample(&mut self) -> Vec<Campaign> {
        let cpu = process_cpu_s();
        let campaigns = generate(&self.shape, self.seed);
        let per_round = (process_cpu_s() - cpu) / self.shape.rounds.max(1) as f64;
        self.samples.push(per_round);
        campaigns
    }

    /// Takes the samples due once `done` of the run is over, evenly
    /// spaced, and all that are left when `done` reaches 1.
    pub fn at(&mut self, done: f64) {
        while self.samples.len() < SETUP_SAMPLES
            && done >= self.samples.len() as f64 / SETUP_SAMPLES as f64
        {
            self.sample();
        }
    }
}

fn is_hetero(o: &ScenarioOutcome) -> bool {
    matches!(o.scenario.redundancy, Redundancy::Hetero { .. })
}

/// The campaign guarantees `tests/tests/chaos.rs` pins: permanent timing
/// faults are caught inside their bound, corruption under voting is never
/// silent and delivers no wrong value, fault-free runs are masked, and no
/// healthy replica is ever latched. Sampled-checker outcomes are held to
/// the last guarantee.
pub fn check_outcome(o: &ScenarioOutcome) -> Result<(), String> {
    let s = &o.scenario;
    let fail = |what: &str| {
        Err(format!(
            "scenario {} ({}): {what}: {o:?}",
            s.id,
            s.redundancy.label()
        ))
    };
    if o.class == OutcomeClass::FalsePositive {
        return fail("healthy replica latched");
    }
    if is_hetero(o) {
        return Ok(());
    }
    match s.fault {
        Some(f) if f.is_permanent_timing() => {
            let in_bound = o.class == OutcomeClass::DetectedInBound
                && o.bound.is_some()
                && o.detection_latency.is_some_and(|l| l.as_ns() > 0);
            if !in_bound {
                return fail("permanent timing fault not detected in bound");
            }
        }
        Some(f)
            if f.is_value()
                && s.redundancy == Redundancy::TriVoting
                && (o.class == OutcomeClass::SilentFailure || o.value_errors != 0) =>
        {
            return fail("corruption slipped through the voting selector");
        }
        None if o.class != OutcomeClass::Masked => return fail("fault-free run not masked"),
        _ => {}
    }
    Ok(())
}

/// Every invariant violation in `report`, one line each.
pub fn check_report(report: &CampaignReport, expected: usize) -> Vec<String> {
    let mut v: Vec<String> = report
        .outcomes
        .iter()
        .filter_map(|o| check_outcome(o).err())
        .collect();
    if report.outcomes.len() != expected {
        v.push(format!(
            "campaign {}: {} outcomes for {expected} scenarios",
            report.campaign_seed,
            report.outcomes.len()
        ));
    }
    v
}

/// What a scenario's outcome says, for comparing the traced path's
/// outcomes with the report's.
fn outcome_key(o: &ScenarioOutcome) -> OutcomeKey {
    (
        o.scenario.id,
        o.class,
        o.detected_at.map(|t| t.as_ns()),
        o.arrivals,
        o.value_errors,
    )
}

type OutcomeKey = (u64, OutcomeClass, Option<u64>, u64, u64);

/// What every campaign produced the first time it ran, for comparing
/// later runs of it, traced or not, byte for byte.
#[derive(Debug, Default)]
pub struct Reference {
    /// Report digest of each campaign's first `run_with_workers`.
    pub digests: BTreeMap<usize, u64>,
    outcomes: BTreeMap<usize, Vec<OutcomeKey>>,
}

impl Reference {
    fn outcomes(&mut self, i: usize, outcomes: &[ScenarioOutcome]) -> Result<(), String> {
        let keys: Vec<OutcomeKey> = outcomes.iter().map(outcome_key).collect();
        match self.outcomes.get(&i) {
            Some(first) if *first != keys => {
                Err(format!("campaign {i}: outcomes differ between runs"))
            }
            Some(_) => Ok(()),
            None => {
                self.outcomes.insert(i, keys);
                Ok(())
            }
        }
    }

    fn digest(&mut self, i: usize, digest: u64) -> Result<(), String> {
        match self.digests.get(&i) {
            Some(&first) if first != digest => Err(format!(
                "campaign {i}: report digest {digest:#x} differs from first run {first:#x}"
            )),
            Some(_) => Ok(()),
            None => {
                self.digests.insert(i, digest);
                Ok(())
            }
        }
    }

    /// The run's combined report digest: the first report of each of the
    /// first [`DIGEST_CAMPAIGNS`] campaigns, in order. Equal for equal
    /// seeds.
    pub fn combined_digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(8 * DIGEST_CAMPAIGNS);
        for d in self.digests.values().take(DIGEST_CAMPAIGNS) {
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        digest_bytes(&bytes)
    }
}

/// Measurements of one loop (untraced or traced).
#[derive(Debug, Default)]
pub struct CampaignData {
    /// Wall time of each campaign call, in ms.
    pub call_wall_ms: Samples,
    /// CPU time of each campaign call, both workers together, in ms.
    pub call_cpu_ms: Samples,
    pub cpu_s: f64,
    pub wall_s: f64,
    pub scenarios: u64,
    pub arrivals: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl CampaignData {
    /// Times one campaign call in wall and CPU time.
    fn timed<R>(&mut self, call: impl FnOnce() -> R) -> R {
        let (t, cpu) = (Instant::now(), process_cpu_s());
        let r = call();
        let wall = t.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - cpu;
        self.cpu_s += cpu;
        self.wall_s += wall;
        self.call_wall_ms.push(wall * 1e3);
        self.call_cpu_ms.push(cpu * 1e3);
        r
    }

    /// Share of the workers' wall time spent on CPU: about 1 when both
    /// workers run the whole call, 0.5 when the calls run serially.
    pub fn parallel_efficiency(&self) -> f64 {
        self.cpu_s / (WORKERS as f64 * self.wall_s.max(1e-9))
    }

    fn fold(&mut self, outcomes: &[ScenarioOutcome], violations: Vec<String>) {
        self.scenarios += outcomes.len() as u64;
        self.arrivals += outcomes.iter().map(|o| o.arrivals).sum::<u64>();
        self.failed += violations.len() as u64;
        self.violations.extend(violations);
    }
}

/// Runs campaign `i` through `run_with_workers`, timed.
pub fn untraced_call(
    campaigns: &[Campaign],
    i: usize,
    refs: &mut Reference,
    data: &mut CampaignData,
) {
    let i = i % campaigns.len();
    let c = &campaigns[i];
    let report = data.timed(|| c.run_with_workers(WORKERS));
    let mut violations = check_report(&report, c.scenarios.len());
    let digest = digest_bytes(report.to_json().as_bytes());
    violations.extend(refs.digest(i, digest).err());
    violations.extend(refs.outcomes(i, &report.outcomes).err());
    data.fold(&report.outcomes, violations);
}

/// The untraced loop: campaigns cycled until `seconds` of campaign time
/// are spent, and at least the first [`DIGEST_CAMPAIGNS`], with the
/// set-up samples spread over it.
pub fn run_untraced(
    campaigns: &[Campaign],
    seconds: f64,
    setup: &mut SetupSampler,
    refs: &mut Reference,
    data: &mut CampaignData,
) {
    let mut i = 0;
    while i < DIGEST_CAMPAIGNS.min(campaigns.len()) || data.wall_s < seconds {
        untraced_call(campaigns, i, refs, data);
        setup.at(data.wall_s / seconds.max(1e-9));
        i += 1;
    }
    setup.at(1.0);
}

/// Per-scenario spans from the traced loop.
#[derive(Debug, Default)]
pub struct ScenarioSpans {
    pub by_app: BTreeMap<&'static str, Samples>,
    pub by_structure: BTreeMap<&'static str, Samples>,
    pub all: Samples,
    pub busy_s: f64,
}

fn structure(r: Redundancy) -> &'static str {
    match r {
        Redundancy::Duplicated => "duplicated",
        Redundancy::TriVoting => "voting",
        Redundancy::Hetero { .. } => "hetero",
    }
}

/// Campaign `i` scattered through `parallel_map_ordered`, as
/// `run_with_workers` does, with one root span per `run_scenario`.
pub fn traced_call(
    campaigns: &[Campaign],
    i: usize,
    tracer: &Tracer,
    refs: &mut Reference,
    data: &mut CampaignData,
    spans: &mut ScenarioSpans,
) {
    let i = i % campaigns.len();
    let results = data.timed(|| {
        parallel_map_ordered(campaigns[i].scenarios.clone(), WORKERS, |_, s| {
            let root = tracer.root("chaos.scenario");
            let outcome = run_scenario(&s);
            (outcome, tracer.close(root))
        })
    });
    let mut outcomes = Vec::with_capacity(results.len());
    let mut violations = Vec::new();
    for (o, span) in results {
        let d = span.duration_ns() as f64 / 1e6;
        spans.all.push(d);
        spans.busy_s += d / 1e3;
        spans
            .by_app
            .entry(o.scenario.app.label())
            .or_default()
            .push(d);
        spans
            .by_structure
            .entry(structure(o.scenario.redundancy))
            .or_default()
            .push(d);
        violations.extend(check_outcome(&o).err());
        outcomes.push(o);
    }
    violations.extend(refs.outcomes(i, &outcomes).err());
    data.fold(&outcomes, violations);
}

/// End-to-end metrics of the untraced loop. The median call ("flush")
/// time is wall time, so a lost worker or a lock between the workers
/// shows there. The tail and the rates are CPU time: the campaign is pure
/// CPU work, and CPU time does not count what a host steals from this
/// virtual machine in bursts, which a wall-time tail catches (p99 38.7
/// against 24 ms in one run of five). Wall-clock rates, the wall-time
/// tail and the workers' parallel efficiency are printed beside them.
pub fn report_e2e(setup: &Samples, d: &CampaignData, refs: &Reference, out: &mut Outcome) {
    out.attempted += d.scenarios;
    out.failed += d.failed;
    out.violations.extend(d.violations.iter().cloned());
    let worker_s = (d.cpu_s / WORKERS as f64).max(1e-9);
    let wall = d.wall_s.max(1e-9);
    out.e2e("setup_s", setup.median());
    out.e2e("flush_p50_ms", d.call_wall_ms.quantile(0.5));
    out.e2e("flush_p99_ms", d.call_cpu_ms.quantile(0.99));
    out.e2e("tokens_per_s", d.arrivals as f64 / worker_s);
    out.e2e("scenarios_per_s", d.scenarios as f64 / worker_s);
    out.line(format!(
        "setup_s          {:.6} s  (CPU per round, median of {} generations of every round, spread over the run; min {:.6}, max {:.6})",
        setup.median(),
        setup.len(),
        setup.quantile(0.0),
        setup.quantile(1.0)
    ));
    out.line(format!(
        "flush_p50_ms     {:.3} ms wall  flush_p99_ms {:.3} ms CPU  (per campaign of {} scenarios on {} workers; n = {}; wall p99 {:.3} ms, CPU p50 {:.3} ms)",
        d.call_wall_ms.quantile(0.5),
        d.call_cpu_ms.quantile(0.99),
        d.scenarios / d.call_wall_ms.len().max(1) as u64,
        WORKERS,
        d.call_wall_ms.len(),
        d.call_wall_ms.quantile(0.99),
        d.call_cpu_ms.quantile(0.5)
    ));
    out.line(format!(
        "scenarios_per_s  {:.1} scenarios/s of worker CPU ({:.1} per wall second; {} scenarios, {:.3} CPU s, {:.3} wall s)",
        d.scenarios as f64 / worker_s,
        d.scenarios as f64 / wall,
        d.scenarios,
        d.cpu_s,
        d.wall_s
    ));
    out.line(format!(
        "tokens_per_s     {:.1} tokens/s of worker CPU ({:.1} per wall second; {} arrivals)",
        d.arrivals as f64 / worker_s,
        d.arrivals as f64 / wall,
        d.arrivals
    ));
    out.line(format!(
        "parallel_efficiency {:.3}  (CPU s / ({} workers x wall s))",
        d.parallel_efficiency(),
        WORKERS
    ));
    out.line(format!(
        "campaign_report_digest {:#018x}  (first {} campaigns)",
        refs.combined_digest(),
        DIGEST_CAMPAIGNS.min(refs.digests.len())
    ));
}

pub fn report_layers(d: &CampaignData, spans: &ScenarioSpans, out: &mut Outcome) {
    out.violations.extend(d.violations.iter().cloned());
    for app in App::ALL {
        let name = match app {
            App::Adpcm => "chaos.scenario_ms.adpcm.p50",
            App::Mjpeg => "chaos.scenario_ms.mjpeg.p50",
            App::H264 => "chaos.scenario_ms.h264.p50",
        };
        let s = spans.by_app.get(app.label()).cloned().unwrap_or_default();
        out.layer(name, s.median());
        out.line(format!("{name} {:.3} ms (n = {})", s.median(), s.len()));
    }
    for (label, name) in [
        ("duplicated", "chaos.scenario_ms.duplicated.p50"),
        ("voting", "chaos.scenario_ms.voting.p50"),
        ("hetero", "chaos.scenario_ms.hetero.p50"),
    ] {
        let s = spans.by_structure.get(label).cloned().unwrap_or_default();
        out.layer(name, s.median());
        out.line(format!("{name} {:.3} ms (n = {})", s.median(), s.len()));
    }
    out.layer("chaos.scenario_ms.p99", spans.all.quantile(0.99));
    out.layer(
        "chaos.worker_busy_ratio",
        spans.busy_s / (WORKERS as f64 * d.wall_s.max(1e-9)),
    );
    out.layer(
        "chaos.tokens_per_s",
        d.arrivals as f64 / spans.busy_s.max(1e-9),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_chaos::FaultSpec;

    fn find(report: &CampaignReport, pred: impl Fn(&ScenarioOutcome) -> bool) -> usize {
        report
            .outcomes
            .iter()
            .position(pred)
            .expect("the campaign palette covers this case")
    }

    #[test]
    fn a_violated_invariant_fails_the_check() {
        let report = Campaign::generate(7, 60).run_with_workers(WORKERS);
        assert_eq!(check_report(&report, 60), Vec::<String>::new());
        let permanent = |f: Option<FaultSpec>| f.is_some_and(|f| f.is_permanent_timing());
        type Tamper = fn(&mut ScenarioOutcome);
        let cases: [(usize, Tamper); 4] = [
            (find(&report, |o| o.scenario.fault.is_none()), |o| {
                o.class = OutcomeClass::SilentFailure
            }),
            (find(&report, |o| permanent(o.scenario.fault)), |o| {
                o.class = OutcomeClass::DetectedLate
            }),
            (
                find(&report, |o| {
                    o.scenario.redundancy == Redundancy::TriVoting
                        && o.scenario.fault.is_some_and(|f| f.is_value())
                }),
                |o| o.value_errors = 1,
            ),
            (find(&report, |o| o.scenario.fault.is_some()), |o| {
                o.class = OutcomeClass::FalsePositive
            }),
        ];
        for (i, tamper) in cases {
            let mut bad = report.clone();
            tamper(&mut bad.outcomes[i]);
            assert_eq!(check_report(&bad, 60).len(), 1, "tampered outcome {i}");
        }
        assert_eq!(check_report(&report, 61).len(), 1);
    }

    #[test]
    fn a_false_positive_fails_the_check_on_the_sampled_checker_too() {
        let mut report = Campaign::generate_hetero(7, 8, 4).run_with_workers(WORKERS);
        assert!(check_report(&report, 8).is_empty());
        report.outcomes[0].class = OutcomeClass::FalsePositive;
        assert_eq!(check_report(&report, 8).len(), 1);
    }

    #[test]
    fn equal_seeds_give_equal_digests() {
        let run = |seed| {
            let shape = CampaignShape {
                scenarios: 3,
                rounds: 1,
            };
            let (mut setup, campaigns) = SetupSampler::start(&shape, seed);
            let mut refs = Reference::default();
            let mut data = CampaignData::default();
            run_untraced(&campaigns, 0.0, &mut setup, &mut refs, &mut data);
            assert_eq!(setup.samples.len(), SETUP_SAMPLES);
            refs.combined_digest()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
