//! The three workloads. Each operation has two code paths: the untraced one
//! calls the program's one-shot entry point (`run_sweep`,
//! `ZCover::run_campaign`, `record_campaign` + `replay`), and the traced
//! one re-drives the same pipeline through the public calls underneath it,
//! with a span around each phase. The two must produce identical
//! deterministic outputs (the [`OpResult::digest`]).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use zcover::{
    record_campaign, replay, run_sweep, ActiveScanner, CampaignCounters, CampaignExecutor,
    CampaignResult, FuzzConfig, FuzzTarget, Fuzzer, NullSink, ShardSummary, SweepConfig, Trace,
    TraceMeta, TraceRecorder, TraceSink, UnknownDiscovery, ZCover, ZCoverError,
};
use zwave_controller::testbed::{DeviceModel, Testbed};
use zwave_controller::{CoverageMap, HomeNetwork, SimController, Topology};
use zwave_radio::{Medium, MediumStats, SimScheduler};

use crate::spans::{Spans, CAMPAIGN};
use crate::stats::Tally;

/// Virtual budget of one `campaign_star` campaign.
const STAR_BUDGET: Duration = Duration::from_secs(2 * 3600);
/// Virtual budget of one `replay_coverage` recording.
const REPLAY_BUDGET: Duration = Duration::from_secs(2 * 3600);
/// Virtual budget of each `sweep_mesh` home.
const HOME_BUDGET: Duration = Duration::from_secs(180);
/// Homes per `run_sweep` call: the 512-home mesh configuration of
/// `bench_sweep`.
pub const SWEEP_BATCH: u64 = 512;
/// Homes in the `sweep_mesh` canary (one shard).
const CANARY_HOMES: u64 = 16;
/// Table III's bugs, the known answer for a D1 campaign of two virtual
/// hours on a clean channel.
const TABLE3_BUGS: std::ops::RangeInclusive<u8> = 1..=15;
/// The multi-hop bug that every mesh home must surface.
const ROUTED_BUG: u8 = 19;
/// Where the attacker's transceiver sits, as in every campaign entry point.
const ATTACKER_M: f64 = 70.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepMesh,
    CampaignStar,
    ReplayCoverage,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::SweepMesh, Workload::CampaignStar, Workload::ReplayCoverage];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepMesh => "sweep_mesh",
            Workload::CampaignStar => "campaign_star",
            Workload::ReplayCoverage => "replay_coverage",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nominal operations per second and client on a 2-CPU x86-64 host. A
    /// traced run of `--seconds S` runs a fixed `S / 2` seconds' worth per
    /// client and pass, so its counters repeat exactly for a seed on any
    /// machine with the same CPU count.
    pub fn nominal_ops_per_s(self) -> f64 {
        match self {
            Workload::SweepMesh => 0.5,
            Workload::CampaignStar => 14.0,
            Workload::ReplayCoverage => 5.0,
        }
    }

    /// Operations per timed block; the rates are medians over blocks. A
    /// block of campaigns is one rotation through D1..D7, so every block
    /// has the same model mix.
    pub fn block_ops(self) -> u64 {
        match self {
            Workload::SweepMesh => 1,
            Workload::CampaignStar | Workload::ReplayCoverage => 7,
        }
    }

    /// Deterministic outputs of the canary operation, pinned from the
    /// program as it was when the benchmark was written.
    fn pinned_canary(self) -> &'static str {
        match self {
            Workload::SweepMesh => PIN_SWEEP,
            Workload::CampaignStar => PIN_STAR,
            Workload::ReplayCoverage => PIN_REPLAY,
        }
    }
}

const PIN_SWEEP: &str = concat!(
    "sweep 0 shard 0 homes 16 from 0: hits {5: 16, 14: 16, 19: 16} edges 194 ",
    "packets 970 plans 829 outages 34 findings 48; frames 40431 deliveries 310420 losses 0 ",
    "corruptions 0 duplicates 0 reorders 0 truncations 0 blackout_drops 0 rx_overflows 49454\n",
);
const PIN_STAR: &str = concat!(
    "star 0 D1 seed 16294208416658607535: bugs [5, 14, 12, 1, 3, 4, 2, 6, 9, 15, 10, 8, 11, 13, 7] ",
    "packets 11433 plans 6660 outages 44 findings 15 sched.events 68460; frames 68416 ",
    "deliveries 273664 losses 0 corruptions 0 duplicates 0 reorders 0 truncations 0 ",
    "blackout_drops 0 rx_overflows 67880\n",
);
const PIN_REPLAY: &str = concat!(
    "replay 0 D1 seed 16294208416658607535: bugs [5, 14, 12, 1, 3, 4, 2, 6, 9, 15, 10, 8, 11, ",
    "13, 7] packets 9134 plans 5312 outages 70 findings 15 sched.events 54842; frames 54772 ",
    "deliveries 219088 losses 0 corruptions 0 duplicates 0 reorders 0 truncations 0 ",
    "blackout_drops 0 rx_overflows 54236\n",
    "trace events 70136 zct bytes 836076\n",
);

/// splitmix64: the per-operation seed stream derived from `--seed`.
pub fn op_seed(run_seed: u64, index: u64) -> u64 {
    let mut z = run_seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Operation `k` of client `client`: each client has its own index
/// stream, so the inputs of a run depend on `--seed` and the client count
/// alone, never on how the clients interleave.
pub fn op_index(client: u64, k: u64) -> u64 {
    client << 32 | k
}

/// Controller models rotate through Table II's D1..D7.
fn model(index: u64) -> DeviceModel {
    DeviceModel::all()[(index % 7) as usize]
}

/// Deterministic per-layer counts, summed over operations (except
/// `sched.peak_pending`, a high-water mark, which keeps the maximum).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(pub BTreeMap<&'static str, u64>);

impl Counts {
    fn add(&mut self, name: &'static str, value: u64) {
        let slot = self.0.entry(name).or_default();
        *slot = if name == "sched.peak_pending" { (*slot).max(value) } else { *slot + value };
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    pub fn absorb(&mut self, other: &Counts) {
        for (name, value) in &other.0 {
            self.add(name, *value);
        }
    }

    fn campaign(&mut self, c: &CampaignCounters) {
        self.add("fuzzer.packets", c.packets_sent);
        self.add("fuzzer.plans", c.plans_executed);
        self.add("fuzzer.outages", c.outages_observed);
        self.add("fuzzer.findings", c.findings);
        self.add("corpus.retained", c.retained_inputs);
        self.add("corpus.edges_seen", c.edges_seen);
    }

    fn medium(&mut self, medium: &Medium) {
        let s = medium.stats();
        self.add("medium.frames", s.frames_sent);
        self.add("medium.deliveries", s.deliveries);
        self.add("medium.losses", s.losses);
        self.add("medium.corruptions", s.corruptions);
        self.add("medium.rx_overflows", s.rx_overflows);
        let k = medium.scheduler().stats();
        self.add("sched.events", medium.scheduler().events_processed());
        self.add("sched.peak_pending", k.peak_pending);
        self.add("sched.cancelled", k.cancelled);
    }

    fn controller(&mut self, controller: &SimController) {
        let s = controller.stats();
        self.add("controller.frames_seen", s.frames_seen);
        self.add("controller.apl_processed", s.apl_processed);
        self.add("controller.apl_ignored", s.apl_ignored);
        self.add("controller.mac_rejected", s.mac_rejected);
        let l = controller.link_stats();
        self.add("link.retransmissions", l.retransmissions);
        self.add("link.ack_timeouts", l.ack_timeouts);
        self.add("link.duplicates_suppressed", l.duplicates_suppressed);
    }
}

/// What one or more operations produced.
#[derive(Debug, Default)]
pub struct OpResult {
    pub tally: Tally,
    /// Fuzz packets injected by finished operations.
    pub packets: u64,
    /// Wall milliseconds per finished campaign. On `sweep_mesh`, where
    /// `run_sweep` times shards rather than homes, one sample per shard:
    /// the shard's wall time over its homes.
    pub latencies_ms: Vec<f64>,
    /// Deterministic outputs, one line per operation.
    pub digest: String,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Seeded D1 campaigns that missed a Table III bug (reported, not
    /// gated: see `star`).
    pub table3_misses: Vec<String>,
    /// Seeded D1 campaigns finished, the base of `table3_misses`.
    pub d1_campaigns: u64,
    /// Correctness-gate violations.
    pub violations: Vec<String>,
    pub counts: Counts,
    /// `sweep_mesh`: real seconds per shard, and per `run_sweep` call.
    pub shard_s: Vec<f64>,
    pub sweep_s: f64,
}

impl OpResult {
    pub fn absorb(&mut self, other: OpResult) {
        self.tally.attempted += other.tally.attempted;
        self.tally.failed += other.tally.failed;
        self.packets += other.packets;
        self.latencies_ms.extend(other.latencies_ms);
        self.digest.push_str(&other.digest);
        self.failures.extend(other.failures);
        self.table3_misses.extend(other.table3_misses);
        self.d1_campaigns += other.d1_campaigns;
        self.violations.extend(other.violations);
        self.counts.absorb(&other.counts);
        self.shard_s.extend(other.shard_s);
        self.sweep_s += other.sweep_s;
    }
}

/// Runs workload operations; holds the worker pool `sweep_mesh` uses.
pub struct Runner {
    pub workload: Workload,
    pub executor: CampaignExecutor,
}

impl Runner {
    pub fn new(workload: Workload, workers: usize) -> Self {
        Runner { workload, executor: CampaignExecutor::new(workers) }
    }

    /// Worker threads the workload keeps busy.
    pub fn workers(&self) -> usize {
        match self.workload {
            Workload::SweepMesh => self.executor.workers(),
            _ => self.clients() as usize,
        }
    }

    /// Closed-loop clients, each running its operations one after another
    /// on its own thread: one per worker on `campaign_star`, one elsewhere.
    /// `sweep_mesh` spreads each `run_sweep` call over the executor's
    /// workers itself; a `replay_coverage` round trip holds its trace
    /// recorded, encoded and decoded at once, so concurrent ones would make
    /// the peak RSS depend on which campaigns overlap.
    pub fn clients(&self) -> u64 {
        match self.workload {
            Workload::CampaignStar => self.executor.workers() as u64,
            Workload::SweepMesh | Workload::ReplayCoverage => 1,
        }
    }

    /// Operation `index` of the run seeded `run_seed`, untraced, or traced
    /// into `spans`.
    pub fn op(&self, run_seed: u64, index: u64, spans: Option<&mut Spans>) -> OpResult {
        match self.workload {
            Workload::SweepMesh => self.sweep(run_seed, index, SWEEP_BATCH, spans),
            Workload::CampaignStar => star(run_seed, index, spans),
            Workload::ReplayCoverage => replay_round_trip(run_seed, index, spans),
        }
    }

    /// Runs the canary operation (fixed inputs, independent of `--seed`)
    /// and compares its deterministic outputs with the pinned ones.
    pub fn canary(&self) -> Result<(), String> {
        let run = match self.workload {
            Workload::SweepMesh => self.sweep(0, 0, CANARY_HOMES, None),
            _ => self.op(0, 0, None),
        };
        if let Some(v) = run.violations.first().or(run.failures.first()) {
            return Err(format!("canary: {v}"));
        }
        let pinned = self.workload.pinned_canary();
        if run.digest != pinned {
            return Err(format!(
                "canary outputs differ from the pinned ones:\n got:    {}\n pinned: {pinned}",
                run.digest
            ));
        }
        Ok(())
    }

    fn sweep(&self, run_seed: u64, batch: u64, homes: u64, spans: Option<&mut Spans>) -> OpResult {
        let base = FuzzConfig::full(HOME_BUDGET, op_seed(run_seed, batch));
        let config = SweepConfig::new(homes, Topology::Mesh, base);
        let mut out = OpResult::default();
        let started = Instant::now();
        let shards = match spans {
            None => run_sweep(&self.executor, &config).map(|(summary, timing)| {
                out.shard_s = timing.per_shard_s;
                summary.shards
            }),
            Some(spans) => {
                let (first_id, epoch) = (batch * SWEEP_BATCH, spans.epoch());
                let results = self.executor.map_indexed(config.shard_count(), |shard| {
                    traced_shard(&config, shard, first_id, epoch)
                });
                let mut shards = Vec::new();
                let mut failure: Option<(u64, ZCoverError)> = None;
                for (result, shard_spans, counts, elapsed) in results {
                    spans.absorb(shard_spans);
                    out.counts.absorb(&counts);
                    match result {
                        Ok(summary) => {
                            shards.push(summary);
                            out.shard_s.push(elapsed);
                        }
                        Err((home, e)) if failure.as_ref().is_none_or(|(h, _)| home < *h) => {
                            failure = Some((home, e))
                        }
                        Err(_) => {}
                    }
                }
                match failure {
                    Some((_, e)) => Err(e),
                    None => Ok(shards),
                }
            }
        };
        out.sweep_s = started.elapsed().as_secs_f64();
        match shards {
            Err(e) => {
                // `run_sweep` aborts on the first failing home, so the
                // whole batch is lost.
                out.tally.record(homes, true);
                out.shard_s.clear();
                out.failures.push(format!("sweep {batch}: {e}"));
                out.digest = format!("sweep {batch}: error {e}\n");
            }
            Ok(shards) => {
                out.tally.record(homes, false);
                let mut hits19 = 0;
                for (shard, secs) in shards.iter().zip(&out.shard_s) {
                    out.latencies_ms.push(secs * 1e3 / shard.homes.max(1) as f64);
                    out.packets += shard.counters.packets_sent;
                    hits19 += shard.hit_counts.get(&ROUTED_BUG).copied().unwrap_or(0);
                    out.digest.push_str(&format!(
                        "sweep {batch} shard {} homes {} from {}: hits {:?} edges {} {}; {}\n",
                        shard.shard,
                        shard.homes,
                        shard.first_home,
                        shard.hit_counts,
                        shard.coverage.edges(),
                        fuzzer_fields(&shard.counters),
                        medium_fields(&shard.channel),
                    ));
                }
                let swept: u64 = shards.iter().map(|s| s.homes).sum();
                if swept != homes {
                    out.violations.push(format!("sweep {batch}: {swept} of {homes} homes swept"));
                }
                if hits19 != homes {
                    out.violations
                        .push(format!("sweep {batch}: bug #19 in {hits19} of {homes} mesh homes"));
                }
            }
        }
        out
    }
}

/// One traced shard: `run_shard`/`run_home` of the sweep re-driven from
/// public calls, recycling one scheduler kernel across the shard's homes.
#[allow(clippy::type_complexity)]
fn traced_shard(
    config: &SweepConfig,
    shard: u64,
    first_id: u64,
    epoch: Instant,
) -> (Result<ShardSummary, (u64, ZCoverError)>, Spans, Counts, f64) {
    let started = Instant::now();
    let mut spans = Spans::new(epoch);
    let mut counts = Counts::default();
    let first_home = shard * config.shard_size;
    let end = (first_home + config.shard_size).min(config.homes);
    let mut summary = ShardSummary {
        shard,
        first_home,
        homes: 0,
        counters: CampaignCounters::default(),
        channel: Default::default(),
        hit_counts: BTreeMap::new(),
        coverage: CoverageMap::new(),
    };
    let mut kernel: Option<SimScheduler> = None;
    for home in first_home..end {
        let id = first_id + home;
        let opened = spans.open();
        let seed = config.home_seed(home);
        let model = config.home_model(home);
        let mut net = spans.time("network.construct", id, || match &kernel {
            Some(k) => HomeNetwork::new_recycled(model, config.topology, seed, k),
            None => HomeNetwork::new(model, config.topology, seed),
        });
        let mut zcover = ZCover::attach(&net, ATTACKER_M);
        let fuzz = FuzzConfig { seed, ..config.base.clone() };
        let campaign = traced_pipeline(&mut net, &mut zcover, fuzz, &mut NullSink, &mut spans, id);
        spans.close(CAMPAIGN, opened, id);
        let campaign = match campaign {
            Ok(c) => c,
            Err(e) => return (Err((home, e)), spans, counts, started.elapsed().as_secs_f64()),
        };
        counts.campaign(&campaign.counters);
        counts.medium(net.medium());
        counts.controller(net.controller());
        let mut seen: Vec<u8> = campaign.findings.iter().map(|f| f.bug_id).collect();
        seen.sort_unstable();
        seen.dedup();
        for bug in seen {
            *summary.hit_counts.entry(bug).or_default() += 1;
        }
        summary.counters.merge(&campaign.counters);
        summary.channel.merge(&net.medium().stats());
        summary.coverage.merge(&net.coverage());
        summary.homes += 1;
        kernel = Some(net.medium().scheduler().clone());
    }
    (Ok(summary), spans, counts, started.elapsed().as_secs_f64())
}

/// The three-phase pipeline of `ZCover::run_campaign_with_sink`, re-driven
/// from public calls with a span around each phase.
fn traced_pipeline<T: FuzzTarget>(
    target: &mut T,
    zcover: &mut ZCover,
    config: FuzzConfig,
    sink: &mut dyn TraceSink,
    spans: &mut Spans,
    id: u64,
) -> Result<CampaignResult, ZCoverError> {
    target.medium().set_impairment(config.impairment.schedule());
    target.prepare_scenario(config.scenario);
    let scan = spans.time("passive.fingerprint", id, || zcover.fingerprint(target))?;
    let active = spans
        .time("active.scan", id, || ActiveScanner::scan(target, zcover.dongle_mut(), &scan))
        .ok_or(ZCoverError::NoNifResponse)?;
    let discovery = spans.time("discovery.run", id, || {
        UnknownDiscovery::run(target, zcover.dongle_mut(), &scan, active.listed.clone())
    });
    zcover.dongle_mut().set_route(target.injection_route());
    let fuzzer = Fuzzer::new(config);
    Ok(spans.time("fuzzer.run", id, || {
        fuzzer.run_with_sink(target, zcover.dongle_mut(), &scan, &discovery, sink)
    }))
}

/// The fuzzer's deterministic counters, by name.
fn fuzzer_fields(c: &CampaignCounters) -> String {
    format!(
        "packets {} plans {} outages {} findings {}",
        c.packets_sent, c.plans_executed, c.outages_observed, c.findings
    )
}

/// The medium's deterministic counters, by name.
fn medium_fields(s: &MediumStats) -> String {
    format!(
        "frames {} deliveries {} losses {} corruptions {} duplicates {} reorders {} \
         truncations {} blackout_drops {} rx_overflows {}",
        s.frames_sent,
        s.deliveries,
        s.losses,
        s.corruptions,
        s.duplicates,
        s.reorders,
        s.truncations,
        s.blackout_drops,
        s.rx_overflows
    )
}

/// Deterministic outputs of one finished campaign: findings in discovery
/// order, fuzzer counters, kernel events and medium counters.
fn campaign_digest(label: &str, campaign: &CampaignResult, medium: &Medium) -> String {
    let bugs: Vec<u8> = campaign.findings.iter().map(|f| f.bug_id).collect();
    format!(
        "{label}: bugs {bugs:?} {} sched.events {}; {}\n",
        fuzzer_fields(&campaign.counters),
        medium.scheduler().events_processed(),
        medium_fields(&medium.stats()),
    )
}

/// Gate check for every finished campaign: its counters agree with its
/// result.
fn check_counters(label: &str, campaign: &CampaignResult, out: &mut OpResult) {
    if campaign.counters.packets_sent != campaign.packets_sent
        || campaign.counters.findings != campaign.findings.len() as u64
    {
        out.violations.push(format!("{label}: counters disagree with the campaign result"));
    }
}

/// One `campaign_star` operation: a full two-hour campaign on a star
/// testbed, the model rotating through D1..D7.
fn star(run_seed: u64, index: u64, spans: Option<&mut Spans>) -> OpResult {
    let (model, seed) = (model(index), op_seed(run_seed, index));
    let config = FuzzConfig::full(STAR_BUDGET, seed);
    let label = format!("star {index} {} seed {seed}", model.idx());
    let started = Instant::now();
    let (testbed, result) = match spans {
        None => {
            let mut testbed = Testbed::new(model, seed);
            let mut zcover = ZCover::attach(&testbed, ATTACKER_M);
            let result = zcover.run_campaign(&mut testbed, config).map(|r| r.campaign);
            (testbed, result)
        }
        Some(spans) => {
            let opened = spans.open();
            let mut testbed = spans.time("network.construct", index, || Testbed::new(model, seed));
            let mut zcover = ZCover::attach(&testbed, ATTACKER_M);
            let result =
                traced_pipeline(&mut testbed, &mut zcover, config, &mut NullSink, spans, index);
            spans.close(CAMPAIGN, opened, index);
            (testbed, result)
        }
    };
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut out = OpResult::default();
    match result {
        Err(e) => {
            out.tally.record(1, true);
            out.failures.push(format!("{label}: {e}"));
            out.digest = format!("{label}: error {e}\n");
        }
        Ok(campaign) => {
            // The known answer, a D1 campaign finding every Table III bug,
            // is gated on the pinned canary. For about 1 D1 seed in 200 it
            // does not hold even with four times the budget; such a campaign
            // still finished, so it is reported but neither failed nor gated.
            let found: Vec<u8> = campaign.findings.iter().map(|f| f.bug_id).collect();
            if model == DeviceModel::D1 {
                out.d1_campaigns = 1;
                let missing: Vec<u8> = TABLE3_BUGS.filter(|b| !found.contains(b)).collect();
                if !missing.is_empty() {
                    out.table3_misses
                        .push(format!("{label}: Table III bugs {missing:?} not found"));
                }
            }
            out.tally.record(1, false);
            out.packets = campaign.packets_sent;
            out.latencies_ms.push(elapsed_ms);
            check_counters(&label, &campaign, &mut out);
            out.digest = campaign_digest(&label, &campaign, testbed.medium());
            out.counts.campaign(&campaign.counters);
            out.counts.medium(testbed.medium());
            out.counts.controller(testbed.controller());
        }
    }
    out
}

/// One `replay_coverage` operation: record a two-hour coverage-mode
/// campaign on a clean channel, encode the trace as `.zct`, decode it, and
/// replay it. Any divergence fails the operation and the gate.
fn replay_round_trip(run_seed: u64, index: u64, mut spans: Option<&mut Spans>) -> OpResult {
    let (model, seed) = (model(index), op_seed(run_seed, index));
    let config = FuzzConfig::coverage(REPLAY_BUDGET, seed);
    let label = format!("replay {index} {} seed {seed}", model.idx());
    let mut out = OpResult::default();
    let started = Instant::now();
    let opened = spans.as_deref_mut().map(Spans::open);

    // Record: `record_campaign` untraced, its public calls when traced.
    let recorded = match spans.as_deref_mut() {
        None => record_campaign(model, "coverage", config)
            .map(|r| (r.trace, r.report.campaign, r.testbed)),
        Some(spans) => {
            let meta = TraceMeta {
                device: model.idx().to_string(),
                seed,
                config: "coverage".to_string(),
                impairment: config.impairment,
                budget: config.testing_duration,
                scenario: config.scenario,
            };
            let mut testbed = spans.time("network.construct", index, || Testbed::new(model, seed));
            let mut recorder = TraceRecorder::attach(testbed.medium(), meta);
            let mut zcover = ZCover::attach(&testbed, ATTACKER_M);
            traced_pipeline(&mut testbed, &mut zcover, config, &mut recorder, spans, index).map(
                |campaign| {
                    let trace = spans.time("trace.finish", index, || recorder.finish(&campaign));
                    (trace, campaign, testbed)
                },
            )
        }
    };
    let mut step = |name: &'static str, f: &mut dyn FnMut()| match spans.as_deref_mut() {
        Some(s) => s.time(name, index, f),
        None => f(),
    };
    let mut bytes = Vec::new();
    let mut decoded = None;
    let mut verdict = None;
    if let Ok((trace, _, _)) = &recorded {
        step("trace_format.encode", &mut || bytes = trace.to_zct_bytes());
        step("trace_format.decode", &mut || decoded = Some(Trace::from_bytes(&bytes)));
        if let Some(Ok(back)) = &decoded {
            step("trace.replay", &mut || verdict = Some(replay(back)));
        }
    }
    if let (Some(s), Some(opened)) = (spans, opened) {
        s.close(CAMPAIGN, opened, index);
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    let (trace, campaign, testbed) = match recorded {
        Ok(r) => r,
        Err(e) => {
            out.tally.record(1, true);
            out.failures.push(format!("{label}: {e}"));
            out.digest = format!("{label}: error {e}\n");
            return out;
        }
    };
    let problem = match (&decoded, &verdict) {
        (Some(Err(e)), _) => Some(format!("decode failed: {e}")),
        (Some(Ok(back)), _) if *back != trace => Some("decoded trace differs".to_string()),
        (_, Some(Err(e))) => Some(format!("replay failed: {e}")),
        (_, Some(Ok(report))) if !report.is_clean() => Some(report.render()),
        _ => None,
    };
    out.tally.record(1, problem.is_some());
    match problem {
        Some(problem) => {
            out.failures.push(format!("{label}: {problem}"));
            out.violations.push(format!("{label}: {problem}"));
        }
        None => {
            out.packets = campaign.packets_sent;
            out.latencies_ms.push(elapsed_ms);
        }
    }
    check_counters(&label, &campaign, &mut out);
    out.digest = format!(
        "{}trace events {} zct bytes {}\n",
        campaign_digest(&label, &campaign, testbed.medium()),
        trace.events.len(),
        bytes.len()
    );
    out.counts.campaign(&campaign.counters);
    out.counts.medium(testbed.medium());
    out.counts.controller(testbed.controller());
    out.counts.add("trace.events", trace.events.len() as u64);
    out.counts.add("trace_format.bytes", bytes.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canaries_hold_and_traced_operations_match_untraced_ones() {
        for workload in Workload::ALL {
            let runner = Runner::new(workload, 2);
            assert_eq!(runner.canary(), Ok(()), "{}", workload.name());
            let mut spans = Spans::new(Instant::now());
            let (plain, traced) = match workload {
                Workload::SweepMesh => {
                    (runner.sweep(3, 1, 6, None), runner.sweep(3, 1, 6, Some(&mut spans)))
                }
                _ => (runner.op(3, 1, None), runner.op(3, 1, Some(&mut spans))),
            };
            assert!(plain.violations.is_empty(), "{:?}", plain.violations);
            assert_eq!(plain.digest, traced.digest, "{}", workload.name());
            assert!(spans.spans.iter().any(|s| s.name == CAMPAIGN));
        }
    }

    #[test]
    fn clients_and_workers_per_workload() {
        let count = |w| {
            let r = Runner::new(w, 3);
            (r.clients(), r.workers())
        };
        assert_eq!(count(Workload::SweepMesh), (1, 3));
        assert_eq!(count(Workload::CampaignStar), (3, 3));
        assert_eq!(count(Workload::ReplayCoverage), (1, 1));
    }

    #[test]
    fn a_table3_miss_is_reported_but_not_failed() {
        // Operation 133 of `--seed 101` is a D1 campaign that never finds
        // bug #12: a finished campaign, so it counts as attempted only.
        let out = star(101, 133, None);
        assert_eq!(out.tally, Tally { attempted: 1, failed: 0 });
        assert_eq!(out.table3_misses.len(), 1, "{:?}", out.table3_misses);
        assert!(out.table3_misses[0].contains("[12]"), "{:?}", out.table3_misses);
        assert_eq!(out.latencies_ms.len(), 1);
        assert!(out.violations.is_empty() && out.failures.is_empty());
    }
}
