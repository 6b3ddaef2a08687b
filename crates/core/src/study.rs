//! The ask–tell study state machine: the one place a run commits samples.
//!
//! [`Study`] is the paper's optimization loop — propose, screen against the
//! power and memory models, train, measure, commit — as an explicit state
//! machine with no embedded objective call: [`Study::ask`] plans proposals
//! and hands out **leased** candidate batches, the caller evaluates them
//! however it likes (inline, on worker threads, on another machine), and
//! [`Study::tell`] ingests the observations and commits samples to the
//! trace. `crate::executor` drives a `Study` for every run, and a serving
//! layer (`hyperpower-server`) can host many concurrent studies, lose
//! workers, receive duplicated or reordered tells, and crash-restart
//! without ever perturbing a single trace byte.
//!
//! # Why leases keep the trace exact
//!
//! Evaluation is a pure function of `(decoded, eval_seed)`, and the eval
//! seed is derived from the proposal index alone (`seed × SEED_MIX +
//! query`). So *who* evaluates a candidate, *when* the result arrives, and
//! *how many times* the work is re-issued after a lost worker are all
//! unobservable in the trace. A lease records one issuance of a candidate
//! to a worker, with a deadline on the **caller's scheduler clock** (never
//! the study's virtual trace clock):
//!
//! * expiry ([`Study::reclaim_expired`]) returns the candidate to the pool;
//!   the next [`Study::ask`] re-issues it under a fresh lease with the
//!   attempt count bumped and the deadline grown by the retry/backoff
//!   machinery ([`RetryPolicy::backoff_secs`] with a seeded jitter draw in
//!   the `FaultPlan` style);
//! * a tell against an expired lease is rejected with the typed
//!   [`Error::LeaseExpired`] and leaves every byte of state untouched;
//! * a duplicate tell (same lease, already ingested) is absorbed as
//!   [`TellOutcome::Duplicate`];
//! * out-of-order tells are buffered on their candidate and commit only
//!   when the schedule below reaches them.
//!
//! # The virtual schedule
//!
//! The study simulates G training GPUs ([`Study::with_simulated_gpus`];
//! one by default), each with its own virtual timeline:
//!
//! * **Start.** The free GPU with the earliest timeline (lowest index on
//!   ties) starts the next proposal. On several GPUs the searcher proposes
//!   with the started, uncommitted candidates as constant-liar pending
//!   points. A screening rejection, or a re-proposal of a configuration
//!   whose terminal failure has already committed (the quarantine circuit
//!   breaker), costs one model evaluation on that timeline and leaves the
//!   GPU free. Nothing starts past a time budget's deadline on its own
//!   timeline, past the evaluation budget, or after the rejection valve
//!   trips.
//! * **Finish.** A told result replays the candidate's fault schedule
//!   (retries, backoff, measurement passes) on its GPU's timeline.
//! * **Commit.** Finished work commits in `(completion time, proposal
//!   index)` order, once nothing can still finish earlier: sensors are read
//!   on the shared stream, drift healing runs, and the searcher sees the
//!   observation.
//!
//! With one GPU every start follows the previous commit, so commits happen
//! in proposal order and quarantine sees every earlier failure — the
//! paper's sequential experiment. The trace is a pure function of the
//! committed prefix (DESIGN.md §5a). When the run ends, proposals planned
//! ahead are discarded unseen (their RNG consumption is unobservable) and
//! their leases are voided as [`TellOutcome::Discarded`].

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use hyperpower_gpu_sim::{
    CommitQueue, FaultPlan, FaultProfile, Gpu, TrainingCostModel, WorkerClock,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::CheckpointSink;
use crate::constraints::ConstraintOracle;
use crate::drift::{DriftConfig, DriftMonitor};
use crate::driver::{Budget, Sample, SampleKind, Trace, MAX_CONSECUTIVE_REJECTIONS};
use crate::methods::{make_searcher, Conditioning, History, Searcher};
use crate::objective::EvaluationResult;
use crate::recovery::{plan_trial, RetryPolicy, TrialFailure, TrialOutcome, TrialPlan, LIAR_ERROR};
use crate::space::Decoded;
use crate::{Budgets, Config, EarlyTermination, Error, Method, Mode, Result, SearchSpace, Watts};

/// The multiplier in the per-candidate seed derivation
/// `eval_seed = seed × SEED_MIX + query_index` (golden-ratio mixing
/// constant; the same derivation the sequential driver has always used).
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Salt for the lease-deadline jitter stream (disjoint from the fault
/// salts `0xFA17_000x` so lease lifecycle can never collide with fault
/// draws — not that either is ever visible in the trace).
const SALT_LEASE: u64 = 0x1EA5_E001;

/// Salt for the hedge-deadline jitter stream: disjoint from
/// [`SALT_LEASE`] so the speculative re-dispatch schedule can never
/// collide with the lease-TTL draws (both are keyed by `(seed, query,
/// attempt)`).
const SALT_HEDGE: u64 = 0x1EA5_E002;

/// Everything that defines a study's run identity and schedule: the exact
/// information [`crate::driver::RunSetup`] carries minus the borrowed
/// evaluation context (space, objective, GPU), which the caller supplies
/// per call so a server can own many studies side by side.
#[derive(Debug, Clone)]
pub struct StudySpec {
    /// Search method.
    pub method: Method,
    /// Enhancement mode.
    pub mode: Mode,
    /// Stop criterion.
    pub budget: Budget,
    /// Run seed (searcher proposals, objective noise, sensor noise order).
    pub seed: u64,
    /// Hardware budgets used to judge feasibility.
    pub budgets: Budgets,
    /// Virtual-time cost model.
    pub cost: TrainingCostModel,
    /// Early-termination policy handed to evaluators; `Some` in
    /// HyperPower mode. The study itself never calls the objective — this
    /// is carried so [`Study::early_termination`] can tell workers what to
    /// run.
    pub early_termination: Option<EarlyTermination>,
    /// Fault-injection profile (semantic knob, part of run identity).
    pub fault_profile: FaultProfile,
    /// Retry/backoff policy applied when faults abort an attempt.
    pub retry: RetryPolicy,
    /// Self-healing configuration.
    pub drift: DriftConfig,
}

/// One candidate issued to a worker under a lease.
#[derive(Debug, Clone)]
pub struct LeasedCandidate {
    /// Unique (per study, monotonically increasing) lease identifier.
    pub lease_id: u64,
    /// Trace slot of the proposal the lease covers.
    pub query: u64,
    /// 1-based issuance count for this candidate (bumped on re-issue
    /// after expiry).
    pub attempt: u32,
    /// The proposed configuration.
    pub config: Config,
    /// Its decoded architecture (what the objective evaluates).
    pub decoded: Decoded,
    /// The evaluation seed — a pure function of `(run seed, query)`, so a
    /// re-issued lease computes the identical result.
    pub eval_seed: u64,
    /// Scheduler-clock deadline: past this instant the lease is eligible
    /// for [`Study::reclaim_expired`]. Never compared against the study's
    /// virtual trace clock.
    pub deadline_s: f64,
}

/// What happened to an observation handed to [`Study::tell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TellOutcome {
    /// The observation was ingested; `committed` samples (this one plus
    /// any unblocked successors, or zero if it is buffered behind an
    /// earlier pending proposal) reached the trace.
    Accepted {
        /// Samples committed by this tell's drain.
        committed: usize,
    },
    /// The lease was already fulfilled — a duplicate delivery, absorbed
    /// without touching any state.
    Duplicate,
    /// The observation is no longer wanted: the run ended (budget hit)
    /// before this proposal could start, or the proposal was planned ahead
    /// and quarantined when it started. The observation is absorbed and
    /// discarded.
    Discarded,
}

/// Where a study streams its durable observations: the write-ahead
/// journal hook. [`CheckpointSink`] implements it (the executor's
/// periodic checkpoints), and `hyperpower-server` implements it with an
/// append-only journal. Calls arrive in commit order — `record_eval`
/// immediately before the commit that consumed the evaluation — so every
/// sink sees the same byte stream for the same run, however its
/// evaluations were scheduled.
pub trait ObservationSink {
    /// Records one raw objective evaluation, keyed by its eval seed.
    fn record_eval(&mut self, eval_seed: u64, result: &EvaluationResult);

    /// Records one committed sample.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures; the study aborts the commit loop and
    /// surfaces the error to the caller.
    fn record_commit(&mut self, sample: &Sample) -> Result<()>;
}

impl ObservationSink for CheckpointSink {
    fn record_eval(&mut self, eval_seed: u64, result: &EvaluationResult) {
        CheckpointSink::record_eval(self, eval_seed, result);
    }

    fn record_commit(&mut self, sample: &Sample) -> Result<()> {
        CheckpointSink::record_commit(self, sample)
    }
}

/// A sink that records nothing (for callers without durability).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ObservationSink for NullSink {
    fn record_eval(&mut self, _eval_seed: u64, _result: &EvaluationResult) {}

    fn record_commit(&mut self, _sample: &Sample) -> Result<()> {
        Ok(())
    }
}

/// Lifecycle state of one issued lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeaseState {
    /// Issued, awaiting its tell.
    Outstanding,
    /// Its tell was ingested (further tells are duplicates).
    Fulfilled,
    /// Reclaimed after its deadline passed; tells are rejected.
    Expired,
    /// Voided because the run ended before the proposal committed; tells
    /// are absorbed.
    Discarded,
}

/// Bookkeeping for one issued lease.
#[derive(Debug, Clone, Copy)]
struct LeaseRecord {
    query: u64,
    state: LeaseState,
    /// Scheduler-clock instant the lease was issued (hedge deadlines are
    /// measured from issuance, not from the run start).
    issued_s: f64,
    deadline_s: f64,
}

/// One proposal, from planning until it finishes.
#[derive(Debug)]
struct Planned {
    config: Config,
    decoded: Decoded,
    /// The predicted power of a proposal the screening oracle rejected;
    /// `None` for a proposal that passed screening.
    screened_power_w: Option<f64>,
    query: u64,
    eval_seed: u64,
    degradations: Vec<crate::drift::DegradationEvent>,
    /// The observation, once told (kept until the candidate starts on a
    /// GPU when it was planned ahead).
    result: Option<EvaluationResult>,
    /// Every currently outstanding lease on this item. More than one only
    /// while a hedged duplicate is in flight; the first fulfilment wins
    /// and supersedes the rest.
    leases: Vec<u64>,
    /// Leases issued for this item so far.
    attempt: u32,
    /// Speculative (hedged) duplicate leases issued for this item.
    hedged: u32,
    /// Leases on this item reclaimed (deadline expiry or shedding) before
    /// a worker delivered.
    reclaimed: u32,
}

impl Planned {
    fn rejected(&self) -> bool {
        self.screened_power_w.is_some()
    }
}

/// The quarantine key of a configuration: its unit-cube coordinates by
/// exact bit pattern (the study re-proposes bit-identical configs, so no
/// tolerance is wanted).
fn config_key(config: &Config) -> Vec<u64> {
    config.unit().iter().map(|u| u.to_bits()).collect()
}

/// Predicted memory pressure of a candidate: the noise-free memory
/// analysis as a fraction of device capacity. Consumes no RNG — fault
/// decisions must never perturb the sensor stream.
fn memory_pressure_frac(gpu: &Gpu, decoded: &Decoded) -> f64 {
    let predicted_mib = gpu.analyze(&decoded.arch).memory.get();
    let capacity_mib = gpu.device().memory_capacity_gib * 1024.0;
    predicted_mib / capacity_mib
}

/// Selects the rejection-screening oracle exactly as the sequential loop
/// does: model-free methods in HyperPower mode screen; BO methods carry the
/// constraints inside their acquisition instead (paper §3.4–3.5).
fn screening_oracle(
    mode: Mode,
    method: Method,
    oracle: Option<&ConstraintOracle>,
) -> Option<&ConstraintOracle> {
    match (mode, oracle) {
        (Mode::HyperPower, Some(oracle)) if method.is_model_free() => Some(oracle),
        _ => None,
    }
}

/// The self-healing outcome of one measured commit, ready to attach to
/// its [`Sample`].
struct CommitHealing {
    drift_events: Vec<crate::drift::DriftEvent>,
    drift_rmspe: Option<f64>,
    /// Penalize this observation as a liar (a measured violation of a
    /// predicted-feasible candidate while safety margins are on).
    liar: bool,
}

impl CommitHealing {
    fn inert() -> Self {
        CommitHealing {
            drift_events: Vec::new(),
            drift_rmspe: None,
            liar: false,
        }
    }
}

/// A candidate started on a simulated GPU, held from its start until its
/// commit frees the GPU.
#[derive(Debug)]
struct Busy {
    query: u64,
    /// A constant-liar pending point for proposals made meanwhile.
    config: Config,
    /// The candidate while it awaits its result; `None` once it has
    /// finished and waits in the commit queue.
    training: Option<Planned>,
}

/// Finished work awaiting its commit.
#[derive(Debug)]
enum Finished {
    /// A screening or quarantine rejection, formed in full when it started
    /// (the index is assigned at commit).
    Rejected(Sample),
    /// A trained candidate: the fault schedule has replayed on its GPU's
    /// timeline; the sensors are read at commit.
    Trained {
        gpu: usize,
        item: Planned,
        result: EvaluationResult,
        trial: TrialPlan,
        glitched: bool,
    },
}

/// One hyper-parameter study as an explicit ask–tell state machine. See
/// the module docs for the protocol and its exactness argument.
pub struct Study {
    spec: StudySpec,
    plan: FaultPlan,
    searcher: Box<dyn Searcher>,
    rng: StdRng,
    /// One virtual timeline per simulated GPU.
    clock: WorkerClock,
    /// What each simulated GPU is working on.
    gpus: Vec<Option<Busy>>,
    /// Finished work, committed in `(completion time, proposal index)`
    /// order.
    commits: CommitQueue<Finished>,
    history: History,
    samples: Vec<Sample>,
    evaluations: usize,
    /// Candidates started for training (the evaluation budget's gate).
    started: usize,
    /// Proposals drawn so far (the next proposal's index).
    proposed: u64,
    consecutive_rejections: usize,
    quarantine: BTreeSet<Vec<u64>>,
    screen_active: bool,
    live_oracle: Option<ConstraintOracle>,
    monitor: Option<DriftMonitor>,
    /// Proposals planned ahead of their start, in proposal order.
    queue: VecDeque<Planned>,
    leases: BTreeMap<u64, LeaseRecord>,
    next_lease: u64,
    lease_policy: RetryPolicy,
    finished: bool,
    hedges_issued: u64,
    hedges_superseded: u64,
}

// Manual impl: `searcher` is a trait object, so only its presence is
// reported.
impl std::fmt::Debug for Study {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Study")
            .field("spec", &self.spec)
            .field("gpus", &self.gpus.len())
            .field("committed", &self.samples.len())
            .field("evaluations", &self.evaluations)
            .field("pending", &self.queue.len())
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl Study {
    /// Creates a single-GPU study from its spec, the profiling-time
    /// constraint oracle (cloned; `Some` in HyperPower mode) and an
    /// optional custom searcher.
    pub fn new(
        spec: StudySpec,
        oracle: Option<&ConstraintOracle>,
        searcher_override: Option<Box<dyn Searcher>>,
    ) -> Self {
        let searcher = searcher_override
            .unwrap_or_else(|| make_searcher(spec.method, spec.mode, oracle.cloned()));
        let screen_active = screening_oracle(spec.mode, spec.method, oracle).is_some();
        let live_oracle = oracle.cloned();
        let monitor = if spec.drift.is_inert() {
            None
        } else {
            oracle.map(|o| DriftMonitor::new(o.models().clone(), o.budgets(), spec.drift))
        };
        let plan = FaultPlan::new(spec.fault_profile.clone(), spec.seed);
        let rng = StdRng::seed_from_u64(spec.seed);
        Study {
            spec,
            plan,
            searcher,
            rng,
            clock: WorkerClock::new(1),
            gpus: vec![None],
            commits: CommitQueue::new(),
            history: History::new(),
            samples: Vec::new(),
            evaluations: 0,
            started: 0,
            proposed: 0,
            consecutive_rejections: 0,
            quarantine: BTreeSet::new(),
            screen_active,
            live_oracle,
            monitor,
            queue: VecDeque::new(),
            leases: BTreeMap::new(),
            next_lease: 0,
            // Lease deadlines reuse the retry/backoff machinery: deadline
            // growth per re-issue is exponential with seeded jitter. The
            // defaults give generous first deadlines; servers override via
            // `with_lease_policy`. Execution-only: never part of the trace.
            lease_policy: RetryPolicy {
                max_retries: 0,
                backoff_base_s: 600.0,
                backoff_factor: 2.0,
                backoff_jitter_frac: 0.5,
            },
            finished: false,
            hedges_issued: 0,
            hedges_superseded: 0,
        }
    }

    /// Replaces the lease-deadline policy (builder style). The policy's
    /// `backoff_secs(attempt, jitter)` gives the lease TTL for issuance
    /// `attempt`; `max_retries` is unused (re-issue is unbounded — the
    /// evaluation is pure, so it eventually lands). Trace-neutral.
    pub fn with_lease_policy(mut self, policy: RetryPolicy) -> Self {
        self.lease_policy = policy;
        self
    }

    /// Replaces the number of simulated training GPUs (builder style; 0 is
    /// treated as 1). A semantic knob: one GPU is the paper's sequential
    /// experiment, more run the batch-parallel schedule. Takes effect only
    /// before the first proposal: once [`Study::ask`] has planned a
    /// candidate the GPU count is fixed and a later call is ignored, so
    /// candidates already training (and their leases) are never dropped.
    pub fn with_simulated_gpus(mut self, gpus: usize) -> Self {
        if self.proposed > 0 {
            return self;
        }
        let gpus = gpus.max(1);
        self.clock = WorkerClock::new(gpus);
        self.gpus = std::iter::repeat_with(|| None).take(gpus).collect();
        self
    }

    /// The study's defining spec.
    pub fn spec(&self) -> &StudySpec {
        &self.spec
    }

    /// The early-termination policy evaluators should run under.
    pub fn early_termination(&self) -> Option<EarlyTermination> {
        self.spec.early_termination
    }

    /// Whether the run is over (budget hit or rejection valve tripped).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Committed samples so far.
    pub fn committed(&self) -> usize {
        self.samples.len()
    }

    /// Function evaluations consumed so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Outstanding (issued, unfulfilled, unexpired) leases.
    pub fn outstanding_leases(&self) -> usize {
        self.leases
            .values()
            .filter(|r| r.state == LeaseState::Outstanding)
            .count()
    }

    /// The trace committed so far, as a snapshot (the run may continue).
    pub fn trace(&self) -> Trace {
        Trace {
            method: self.spec.method,
            mode: self.spec.mode,
            budgets: self.spec.budgets,
            samples: self.samples.clone(),
            total_time_s: self.elapsed_secs(),
        }
    }

    /// Consumes the study and returns its final trace.
    pub fn into_trace(self) -> Trace {
        let total_time_s = self.elapsed_secs();
        Trace {
            method: self.spec.method,
            mode: self.spec.mode,
            budgets: self.spec.budgets,
            samples: self.samples,
            total_time_s,
        }
    }

    /// Virtual time at the latest commit. Commits happen in time order and
    /// every timeline advance belongs to a sample that commits, so once
    /// the run ends this is also the latest GPU timeline.
    fn elapsed_secs(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.timestamp_s)
    }

    /// Plans and starts proposals as needed and returns up to `max` leased
    /// candidates awaiting evaluation, stamping deadlines relative to the
    /// caller's scheduler clock `now_s`. Returns an empty batch when the
    /// run is finished, or when every pending candidate is already out on
    /// an unexpired lease.
    ///
    /// On one GPU, only history-independent searchers without an active
    /// drift monitor plan more than one proposal ahead, so the trace stays
    /// byte-identical for every `max` (the executor's worker-count
    /// invariance, restated). On several GPUs each free GPU gets one
    /// proposal, made with the uncommitted started candidates as
    /// constant-liar pending points.
    ///
    /// # Errors
    ///
    /// Propagates proposal/decoding errors and sink I/O failures from
    /// commits of screening rejections.
    pub fn ask<S: ObservationSink>(
        &mut self,
        space: &SearchSpace,
        gpu: &mut Gpu,
        max: usize,
        now_s: f64,
        mut sink: Option<&mut S>,
    ) -> Result<Vec<LeasedCandidate>> {
        // Start and commit work until the run ends or a candidate awaits
        // evaluation. (Everything started can be a screening or quarantine
        // rejection, which commits right here.)
        while !self.finished && !self.has_pending_eval() {
            self.fill(space, max, gpu)?;
            self.drain(gpu, sink.as_deref_mut())?;
        }
        if self.finished {
            return Ok(Vec::new());
        }

        let mut out = Vec::new();
        let policy = self.lease_policy;
        let seed = self.spec.seed;
        let mut next = self.next_lease;
        let mut issued: Vec<LeaseRecord> = Vec::new();
        let cap = max.max(1);
        for item in open_items(&mut self.gpus, &mut self.queue) {
            if item.rejected() || item.result.is_some() || !item.leases.is_empty() {
                continue;
            }
            if out.len() >= cap {
                break;
            }
            item.attempt += 1;
            let lease_id = next;
            next += 1;
            let ttl = policy.backoff_secs(
                item.attempt,
                lease_jitter_unit(seed, item.query, item.attempt),
            );
            let deadline_s = now_s + ttl;
            item.leases.push(lease_id);
            issued.push(LeaseRecord {
                query: item.query,
                state: LeaseState::Outstanding,
                issued_s: now_s,
                deadline_s,
            });
            out.push(LeasedCandidate {
                lease_id,
                query: item.query,
                attempt: item.attempt,
                config: item.config.clone(),
                decoded: item.decoded.clone(),
                eval_seed: item.eval_seed,
                deadline_s,
            });
        }
        for (offset, record) in issued.into_iter().enumerate() {
            self.leases.insert(self.next_lease + offset as u64, record);
        }
        self.next_lease = next;
        Ok(out)
    }

    /// Ingests one observation for `lease_id` and commits every proposal
    /// the arrival unblocks, in commit order.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownLease`] for a lease this study never issued;
    /// [`Error::LeaseExpired`] for a reclaimed lease (state untouched);
    /// sink I/O failures from the commits.
    pub fn tell<S: ObservationSink>(
        &mut self,
        gpu: &mut Gpu,
        lease_id: u64,
        result: &EvaluationResult,
        sink: Option<&mut S>,
    ) -> Result<TellOutcome> {
        let Some(record) = self.leases.get_mut(&lease_id) else {
            return Err(Error::UnknownLease { lease_id });
        };
        match record.state {
            LeaseState::Expired => {
                return Err(Error::LeaseExpired {
                    lease_id,
                    query: record.query,
                })
            }
            LeaseState::Fulfilled => return Ok(TellOutcome::Duplicate),
            LeaseState::Discarded => return Ok(TellOutcome::Discarded),
            LeaseState::Outstanding => {}
        }
        record.state = LeaseState::Fulfilled;
        let query = record.query;
        let Some(item) = open_items(&mut self.gpus, &mut self.queue).find(|i| i.query == query)
        else {
            // An outstanding lease always has its item open: `finish`
            // voids leases when it clears the queue. analyze::allow(R15)
            unreachable!("outstanding lease without an open item");
        };
        item.result = Some(*result);
        // First fulfilment wins: every sibling lease still in flight for
        // this item (hedged duplicates) is superseded — marked fulfilled
        // so its eventual tell is absorbed as `TellOutcome::Duplicate`.
        let siblings: Vec<u64> = item.leases.drain(..).filter(|id| *id != lease_id).collect();
        for sibling in siblings {
            if let Some(other) = self.leases.get_mut(&sibling) {
                if other.state == LeaseState::Outstanding {
                    other.state = LeaseState::Fulfilled;
                    self.hedges_superseded += 1;
                }
            }
        }
        // A candidate already training on a GPU finishes now; one planned
        // ahead keeps its result until it starts.
        if let Some(w) = self
            .gpus
            .iter()
            .position(|b| b.as_ref().is_some_and(|b| b.query == query))
        {
            self.complete(w, gpu);
        }
        let before = self.samples.len();
        self.drain(gpu, sink)?;
        Ok(TellOutcome::Accepted {
            committed: self.samples.len() - before,
        })
    }

    /// Reclaims every outstanding lease whose deadline has passed on the
    /// caller's scheduler clock, returning how many were reclaimed. The
    /// candidates return to the pool and the next [`Study::ask`] re-issues
    /// them (attempt bumped, deadline grown). Trace-neutral by
    /// construction: reclamation touches lease bookkeeping only.
    pub fn reclaim_expired(&mut self, now_s: f64) -> usize {
        let mut reclaimed = 0;
        for (lease_id, record) in self.leases.iter_mut() {
            if record.state == LeaseState::Outstanding && now_s > record.deadline_s {
                record.state = LeaseState::Expired;
                let query = record.query;
                let mut items = open_items(&mut self.gpus, &mut self.queue);
                if let Some(item) = items.find(|i| i.query == query) {
                    item.leases.retain(|id| id != lease_id);
                    item.reclaimed = item.reclaimed.saturating_add(1);
                }
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Issues a speculative duplicate lease for every proposal whose single
    /// outstanding lease has outlived its seeded *hedge deadline* — the
    /// lease-policy backoff curve evaluated on a hedge-salted jitter
    /// stream, measured from issuance — and returns the duplicates for
    /// dispatch to another worker. The first fulfilment commits at the
    /// single commit point; the loser resolves as
    /// [`TellOutcome::Duplicate`]. Hedging never stacks: an item with a
    /// hedge already in flight is left alone until a tell or an expiry
    /// thins its leases.
    ///
    /// Trace-neutral by construction: the duplicate carries the same
    /// `eval_seed` (fixed at planning time), so whichever lease wins
    /// delivers bit-identical bytes.
    pub fn hedge_overdue(&mut self, now_s: f64, hedge: &RetryPolicy) -> Vec<LeasedCandidate> {
        if self.finished {
            return Vec::new();
        }
        let seed = self.spec.seed;
        let policy = self.lease_policy;
        let mut out = Vec::new();
        for item in open_items(&mut self.gpus, &mut self.queue) {
            if item.rejected() || item.result.is_some() || item.leases.len() != 1 {
                continue;
            }
            let original = item.leases[0];
            let Some(record) = self.leases.get(&original) else {
                continue;
            };
            if record.state != LeaseState::Outstanding {
                continue;
            }
            let hedge_after = hedge.backoff_secs(
                item.attempt,
                hedge_jitter_unit(seed, item.query, item.attempt),
            );
            if now_s - record.issued_s <= hedge_after {
                continue;
            }
            item.attempt += 1;
            let lease_id = self.next_lease;
            self.next_lease += 1;
            let ttl = policy.backoff_secs(
                item.attempt,
                lease_jitter_unit(seed, item.query, item.attempt),
            );
            let deadline_s = now_s + ttl;
            item.leases.push(lease_id);
            item.hedged = item.hedged.saturating_add(1);
            self.hedges_issued += 1;
            self.leases.insert(
                lease_id,
                LeaseRecord {
                    query: item.query,
                    state: LeaseState::Outstanding,
                    issued_s: now_s,
                    deadline_s,
                },
            );
            out.push(LeasedCandidate {
                lease_id,
                query: item.query,
                attempt: item.attempt,
                config: item.config.clone(),
                decoded: item.decoded.clone(),
                eval_seed: item.eval_seed,
                deadline_s,
            });
        }
        out
    }

    /// Speculative (hedged) duplicate leases issued over the study's
    /// lifetime.
    pub fn hedges_issued(&self) -> u64 {
        self.hedges_issued
    }

    /// Hedged leases superseded by a sibling's earlier fulfilment (the
    /// race's losers, eventually absorbed as duplicates).
    pub fn hedges_superseded(&self) -> u64 {
        self.hedges_superseded
    }

    /// Reclaims every outstanding lease regardless of deadline (the
    /// server's shed-lowest-priority backpressure valve). Trace-neutral,
    /// like deadline expiry.
    pub fn reclaim_all(&mut self) -> usize {
        self.reclaim_expired(f64::INFINITY)
    }

    /// Feeds one measured commit through the drift monitor (when active)
    /// and applies the outcome: on any model/margin change the live oracle
    /// is rebuilt and the searcher notified. Runs at commit points only, so
    /// the whole self-healing state is a pure function of the committed
    /// prefix.
    fn heal_on_commit(
        &mut self,
        structural: &[f64],
        power: Watts,
        memory: Option<crate::Mebibytes>,
        latency: crate::Seconds,
        feasible: bool,
    ) -> CommitHealing {
        let Some(monitor) = self.monitor.as_mut() else {
            return CommitHealing::inert();
        };
        let predicted_ok = self
            .live_oracle
            .as_ref()
            .is_some_and(|o| o.predicted_feasible(structural));
        let violation = predicted_ok && !feasible;
        let obs = monitor.observe_commit(structural, power, memory, Some(latency), violation);
        if obs.oracle_changed {
            let oracle = monitor.oracle();
            self.searcher.update_oracle(&oracle);
            self.live_oracle = Some(oracle);
        }
        CommitHealing {
            drift_events: obs.events,
            drift_rmspe: obs.drift_rmspe,
            liar: violation && self.spec.drift.safety_margin > 0.0,
        }
    }

    /// Feeds one screening rejection through the drift monitor's
    /// starvation valve (when active): a long unbroken run of rejections
    /// under an active margin relaxes it one step, and the live oracle is
    /// swapped so the very next screening decision sees the widened
    /// region.
    fn heal_on_rejection(&mut self) -> Vec<crate::drift::DriftEvent> {
        let Some(monitor) = self.monitor.as_mut() else {
            return Vec::new();
        };
        let obs = monitor.observe_rejection();
        if obs.oracle_changed {
            let oracle = monitor.oracle();
            self.searcher.update_oracle(&oracle);
            self.live_oracle = Some(oracle);
        }
        obs.events
    }

    fn has_pending_eval(&self) -> bool {
        self.gpus.iter().flatten().any(|b| b.training.is_some())
            || self
                .queue
                .iter()
                .any(|i| !i.rejected() && i.result.is_none())
    }

    /// The free GPU that starts next: the earliest timeline, lowest index
    /// on ties. `None` once the run may start nothing more — every GPU is
    /// busy or past the time budget, the evaluation budget is spent, or
    /// the rejection valve has tripped.
    fn next_free(&self) -> Option<usize> {
        if self.consecutive_rejections >= MAX_CONSECUTIVE_REJECTIONS {
            return None;
        }
        let deadline_h = match self.spec.budget {
            Budget::Evaluations(n) if self.started >= n => return None,
            Budget::Evaluations(_) => f64::INFINITY,
            // Paper rule: the last candidate started before the deadline
            // completes; nothing further starts on that GPU.
            Budget::VirtualHours(h) => h,
        };
        let mut best: Option<(usize, f64)> = None;
        for (w, busy) in self.gpus.iter().enumerate() {
            let t = self.clock.seconds(w);
            if busy.is_some() || t / 3600.0 >= deadline_h {
                continue;
            }
            if best.is_none_or(|(_, b)| t.total_cmp(&b) == Ordering::Less) {
                best = Some((w, t));
            }
        }
        best.map(|(w, _)| w)
    }

    /// Ends the run: proposals planned ahead are discarded unseen and
    /// their leases are voided, so late tells are absorbed, not rejected.
    fn finish(&mut self) {
        self.finished = true;
        for item in open_items(&mut self.gpus, &mut self.queue) {
            discard_leases(&mut self.leases, &item.leases);
        }
        self.queue.clear();
    }

    /// Plans one block of proposals: the searcher proposes (with every
    /// started, uncommitted candidate as a pending point), degradations
    /// are drained, the space decodes, and the screening oracle (when
    /// active) marks predicted-infeasible candidates rejected.
    fn plan_block(&mut self, space: &SearchSpace, max: usize) -> Result<()> {
        debug_assert!(self.queue.is_empty(), "blocks plan only on a drained queue");
        // Only a single GPU plans ahead, and only for a searcher that
        // ignores the history: a dependent searcher must see each result
        // before the next proposal. An active drift monitor also forces
        // lookahead 1: a commit may swap the screening oracle, so planning
        // a wider block would make screening decisions depend on the
        // batch width.
        let lookahead = if max > 1
            && self.gpus.len() == 1
            && self.searcher.conditioning() == Conditioning::Independent
            && self.monitor.is_none()
        {
            max
        } else {
            1
        };
        // Rejected proposals occupy no evaluation slot, so the block can
        // only undershoot the evaluation budget, never overshoot it.
        let room = match self.spec.budget {
            Budget::Evaluations(n) => n.saturating_sub(self.started),
            Budget::VirtualHours(_) => lookahead,
        };
        let mut pending: Vec<(u64, Config)> = self
            .gpus
            .iter()
            .flatten()
            .map(|b| (b.query, b.config.clone()))
            .collect();
        pending.sort_by_key(|(query, _)| *query);
        let pending: Vec<Config> = pending.into_iter().map(|(_, c)| c).collect();
        for _ in 0..lookahead.min(room).max(1) {
            let config = self.searcher.propose_with_pending(
                space,
                &self.history,
                &pending,
                &mut self.rng,
            )?;
            let degradations = self.searcher.drain_degradations();
            let decoded = space.decode(&config)?;
            let screened_power_w = match (self.screen_active, self.live_oracle.as_ref()) {
                (true, Some(oracle)) if !oracle.predicted_feasible(&decoded.structural) => {
                    Some(oracle.models().predict_power(&decoded.structural).get())
                }
                _ => None,
            };
            // The evaluation seed is derived from the proposal index
            // exactly as in the sequential loop.
            let query = self.proposed;
            self.proposed += 1;
            let eval_seed = self.spec.seed.wrapping_mul(SEED_MIX).wrapping_add(query);
            self.queue.push_back(Planned {
                config,
                decoded,
                screened_power_w,
                query,
                eval_seed,
                degradations,
                result: None,
                leases: Vec::new(),
                attempt: 0,
                hedged: 0,
                reclaimed: 0,
            });
        }
        Ok(())
    }

    /// Starts work on every free GPU, planning proposals as needed.
    fn fill(&mut self, space: &SearchSpace, max: usize, gpu: &Gpu) -> Result<()> {
        loop {
            self.start_planned(gpu);
            if self.next_free().is_none() {
                return Ok(());
            }
            self.plan_block(space, max)?;
        }
    }

    /// Starts proposals planned ahead on free GPUs, earliest timeline
    /// first.
    fn start_planned(&mut self, gpu: &Gpu) {
        while !self.queue.is_empty() {
            let Some(w) = self.next_free() else {
                return;
            };
            if let Some(item) = self.queue.pop_front() {
                self.start(w, item, gpu);
            }
        }
    }

    /// Starts one proposal on free GPU `w`. A screening rejection, or a
    /// re-proposal of a configuration whose failure has already committed
    /// (the quarantine circuit breaker), costs one model evaluation on the
    /// timeline, trains nothing and leaves the GPU free. Anything else
    /// starts training.
    fn start(&mut self, w: usize, item: Planned, gpu: &Gpu) {
        let model_eval_s = self.spec.cost.model_eval_s;
        let quarantined = self.quarantine.contains(&config_key(&item.config));
        if item.rejected() || quarantined {
            // A candidate planned ahead may already be out on a lease;
            // its result is no longer wanted.
            discard_leases(&mut self.leases, &item.leases);
            self.clock.advance_secs(w, model_eval_s);
            let (power_w, failure, drift_events) = match item.screened_power_w {
                Some(power_w) => (power_w, None, self.heal_on_rejection()),
                // Noise-free analysis: a quarantine consumes no sensor RNG.
                None => (
                    gpu.analyze(&item.decoded.arch).power.get(),
                    Some(TrialFailure::Quarantined),
                    Vec::new(),
                ),
            };
            let time_s = self.clock.seconds(w);
            let sample = Sample {
                index: 0,
                timestamp_s: time_s,
                kind: SampleKind::Rejected,
                error: None,
                power_w,
                memory_bytes: None,
                latency_s: None,
                feasible: false,
                retries: 0,
                faults: Vec::new(),
                failure,
                drift_events,
                degradations: item.degradations,
                drift_rmspe: None,
                hedged: item.hedged,
                reclaimed: item.reclaimed,
                config: item.config,
            };
            self.commits
                .push(time_s, item.query, Finished::Rejected(sample));
            self.consecutive_rejections += 1;
            return;
        }
        if self.screen_active {
            // Feasibility checks on surviving candidates are billed too.
            self.clock.advance_secs(w, model_eval_s);
        }
        self.consecutive_rejections = 0;
        self.started += 1;
        if let Some(slot) = self.gpus.get_mut(w) {
            *slot = Some(Busy {
                query: item.query,
                config: item.config.clone(),
                training: Some(item),
            });
        }
        self.complete(w, gpu);
    }

    /// Finishes the training on GPU `w` if its result has arrived: the
    /// fault schedule replays on the GPU's timeline (retries, backoff,
    /// measurement passes) and the outcome joins the commit queue.
    fn complete(&mut self, w: usize, gpu: &Gpu) {
        let Some(busy) = self.gpus.get_mut(w).and_then(Option::as_mut) else {
            return;
        };
        let Some(item) = busy.training.take_if(|i| i.result.is_some()) else {
            return;
        };
        let Some(result) = item.result else {
            return;
        };
        let pressure_frac = memory_pressure_frac(gpu, &item.decoded);
        let trial = plan_trial(
            &self.plan,
            &self.spec.retry,
            item.query,
            &result,
            pressure_frac,
        );
        self.clock.advance_secs(w, trial.charged_secs);
        let mut glitched = false;
        if matches!(trial.outcome, TrialOutcome::Completed { .. }) {
            // A sensor glitch repeats the measurement pass on this
            // timeline; the discarded draw happens at commit.
            glitched = self.plan.sensor_glitch(item.query);
            self.clock.advance_secs(w, self.spec.cost.measurement_s);
            if glitched {
                self.clock.advance_secs(w, self.spec.cost.measurement_s);
            }
        }
        let time_s = self.clock.seconds(w);
        let query = item.query;
        self.commits.push(
            time_s,
            query,
            Finished::Trained {
                gpu: w,
                item,
                result,
                trial,
                glitched,
            },
        );
    }

    /// Commits finished work in `(completion time, proposal index)` order
    /// for as long as nothing can still finish earlier, starting planned
    /// proposals on GPUs the commits free. Ends the run once nothing is
    /// left to start, train or commit.
    fn drain<S: ObservationSink>(&mut self, gpu: &mut Gpu, mut sink: Option<&mut S>) -> Result<()> {
        loop {
            self.start_planned(gpu);
            let Some((time_s, query)) = self.commits.peek_min_key() else {
                break;
            };
            if !self.can_commit(time_s, query) {
                break;
            }
            if let Some((time_s, _, finished)) = self.commits.pop_min() {
                self.commit(time_s, finished, gpu, sink.as_deref_mut())?;
            }
        }
        if self.commits.is_empty()
            && self.gpus.iter().all(Option::is_none)
            && self.next_free().is_none()
        {
            self.finish();
        }
        Ok(())
    }

    /// Whether the entry keyed `(time_s, query)` commits next for certain:
    /// no free GPU can still start work (its commit could land earlier,
    /// and a commit would change what it proposes), and no training
    /// without a result can finish earlier — a training finishes no
    /// earlier than its GPU's timeline stands now.
    fn can_commit(&self, time_s: f64, query: u64) -> bool {
        if self.next_free().is_some() {
            return false;
        }
        self.gpus.iter().enumerate().all(|(w, busy)| match busy {
            Some(Busy {
                training: Some(item),
                ..
            }) => {
                time_s
                    .total_cmp(&self.clock.seconds(w))
                    .then(query.cmp(&item.query))
                    == Ordering::Less
            }
            _ => true,
        })
    }

    /// Commits one finished entry to the trace.
    fn commit<S: ObservationSink>(
        &mut self,
        time_s: f64,
        finished: Finished,
        gpu: &mut Gpu,
        mut sink: Option<&mut S>,
    ) -> Result<()> {
        let mut sample = match finished {
            Finished::Rejected(sample) => sample,
            Finished::Trained {
                gpu: w,
                item,
                result,
                trial,
                glitched,
            } => {
                if let Some(busy) = self.gpus.get_mut(w) {
                    *busy = None;
                }
                if let Some(s) = sink.as_deref_mut() {
                    s.record_eval(item.eval_seed, &result);
                }
                self.commit_trained(time_s, item, result, trial, glitched, gpu)
            }
        };
        sample.index = self.samples.len();
        if let Some(s) = sink {
            s.record_commit(&sample)?;
        }
        self.samples.push(sample);
        Ok(())
    }

    /// The sample of a finished training: on success the sensors are read
    /// on the shared stream in commit order and the self-healing layer
    /// sees the measurement; on terminal failure the configuration is
    /// quarantined. Either way the searcher sees the observation.
    fn commit_trained(
        &mut self,
        time_s: f64,
        item: Planned,
        result: EvaluationResult,
        trial: TrialPlan,
        glitched: bool,
        gpu: &mut Gpu,
    ) -> Sample {
        let Planned {
            config,
            decoded,
            degradations,
            hedged,
            reclaimed,
            ..
        } = item;
        self.evaluations += 1;
        match trial.outcome {
            TrialOutcome::Completed { secondary } => {
                let mut faults = trial.faults;
                if glitched {
                    // Transient sensor glitch: the first power reading is
                    // garbage — discard it, consuming the draw.
                    let _ = gpu.measure_power(&decoded.arch);
                    faults.push(TrialFailure::SensorGlitch);
                }
                let raw_power = gpu.measure_power(&decoded.arch);
                let memory = gpu.measure_memory(&decoded.arch).ok();
                let latency = gpu.measure_latency(&decoded.arch);
                // Systematic sensor miscalibration (the `drifting-hw`
                // profile): the recorded reading is biased by the
                // profile's drift rate × the commit timestamp. A pure
                // function of virtual time — no RNG, no thread state.
                let power = Watts(raw_power.get() + self.plan.profile().power_bias_w(time_s));
                let feasible =
                    self.spec
                        .budgets
                        .satisfied_by_measurements(power, memory, Some(latency));
                let healing =
                    self.heal_on_commit(&decoded.structural, power, memory, latency, feasible);
                self.history.push(
                    config.clone(),
                    if healing.liar {
                        LIAR_ERROR
                    } else {
                        result.error
                    },
                );
                Sample {
                    index: 0,
                    timestamp_s: time_s,
                    kind: if result.terminated_early {
                        SampleKind::EarlyTerminated
                    } else {
                        SampleKind::Trained
                    },
                    error: Some(result.error),
                    power_w: power.get(),
                    memory_bytes: memory.map(|m| m.as_bytes() as u64),
                    latency_s: Some(latency.get()),
                    feasible,
                    retries: trial.attempts - 1,
                    faults,
                    failure: secondary,
                    drift_events: healing.drift_events,
                    degradations,
                    drift_rmspe: healing.drift_rmspe,
                    hedged,
                    reclaimed,
                    config,
                }
            }
            TrialOutcome::Failed(cause) => {
                // Graceful degradation: the searcher sees a worst-case
                // "liar" observation instead of a silent hole, and the
                // config is circuit-broken. No measurements exist — the
                // job never completed.
                self.history.push(config.clone(), LIAR_ERROR);
                self.quarantine.insert(config_key(&config));
                Sample {
                    index: 0,
                    timestamp_s: time_s,
                    kind: SampleKind::Failed,
                    error: None,
                    power_w: gpu.analyze(&decoded.arch).power.get(),
                    memory_bytes: None,
                    latency_s: None,
                    feasible: false,
                    retries: trial.attempts - 1,
                    faults: trial.faults,
                    failure: Some(cause),
                    drift_events: Vec::new(),
                    degradations,
                    drift_rmspe: None,
                    hedged,
                    reclaimed,
                    config,
                }
            }
        }
    }
}

/// Voids the still-outstanding leases among `ids`: their tells are
/// absorbed as [`TellOutcome::Discarded`].
fn discard_leases(leases: &mut BTreeMap<u64, LeaseRecord>, ids: &[u64]) {
    for id in ids {
        if let Some(record) = leases.get_mut(id) {
            if record.state == LeaseState::Outstanding {
                record.state = LeaseState::Discarded;
            }
        }
    }
}

/// Every open candidate: those training on a GPU (in GPU order), then
/// those planned ahead of their start (in proposal order).
fn open_items<'a>(
    gpus: &'a mut [Option<Busy>],
    queue: &'a mut VecDeque<Planned>,
) -> impl Iterator<Item = &'a mut Planned> {
    gpus.iter_mut()
        .flatten()
        .filter_map(|b| b.training.as_mut())
        .chain(queue.iter_mut())
}

/// The `[0, 1)` jitter draw for lease deadline `attempt` of `query` —
/// golden-ratio mixing on a salted stream, a pure function of its inputs
/// in the `FaultPlan` style.
fn lease_jitter_unit(seed: u64, query: u64, attempt: u32) -> f64 {
    use rand::RngExt;
    let mut h = seed ^ SALT_LEASE;
    h = h.wrapping_mul(SEED_MIX).wrapping_add(query);
    h = h.wrapping_mul(SEED_MIX).wrapping_add(u64::from(attempt));
    StdRng::seed_from_u64(h).random_range(0.0..1.0)
}

/// The `[0, 1)` jitter draw for the hedge deadline of issuance `attempt`
/// of `query` — same construction as [`lease_jitter_unit`] on the
/// disjoint [`SALT_HEDGE`] stream, so hedge timing and lease TTLs are
/// independent pure functions of `(seed, query, attempt)`.
fn hedge_jitter_unit(seed: u64, query: u64, attempt: u32) -> f64 {
    use rand::RngExt;
    let mut h = seed ^ SALT_HEDGE;
    h = h.wrapping_mul(SEED_MIX).wrapping_add(query);
    h = h.wrapping_mul(SEED_MIX).wrapping_add(u64::from(attempt));
    StdRng::seed_from_u64(h).random_range(0.0..1.0)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used)]

    use super::*;
    use crate::golden::encode_trace;
    use hyperpower_gpu_sim::DeviceProfile;

    const SEED: u64 = 0x57D1;

    fn spec() -> StudySpec {
        StudySpec {
            method: Method::Rand,
            mode: Mode::Default,
            budget: Budget::Evaluations(4),
            seed: SEED,
            budgets: Budgets::default(),
            cost: TrainingCostModel::default(),
            early_termination: None,
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::default(),
            drift: DriftConfig::default(),
        }
    }

    fn result(seed: u64) -> EvaluationResult {
        EvaluationResult {
            error: 0.05 + (seed % 97) as f64 / 100.0,
            diverged: false,
            terminated_early: false,
            train_secs: 400.0 + (seed % 13) as f64 * 25.0,
        }
    }

    /// Asks one candidate at a time and tells each back until the study
    /// finishes; `between` runs on the study after the first ask.
    fn run(mut study: Study, between: impl FnOnce(Study) -> Study) -> Trace {
        let space = SearchSpace::mnist();
        let mut gpu = Gpu::new(DeviceProfile::gtx_1070(), SEED);
        let mut batch = study
            .ask(&space, &mut gpu, 1, 0.0, None::<&mut NullSink>)
            .expect("ask");
        study = between(study);
        while !batch.is_empty() {
            for c in &batch {
                let outcome = study
                    .tell(
                        &mut gpu,
                        c.lease_id,
                        &result(c.eval_seed),
                        None::<&mut NullSink>,
                    )
                    .expect("tell");
                assert!(matches!(outcome, TellOutcome::Accepted { .. }));
            }
            batch = study
                .ask(&space, &mut gpu, 1, 0.0, None::<&mut NullSink>)
                .expect("ask");
        }
        study.into_trace()
    }

    #[test]
    fn simulated_gpus_after_the_first_ask_is_ignored() {
        let reference = run(Study::new(spec(), None, None), |s| s);
        let late = run(Study::new(spec(), None, None), |s| s.with_simulated_gpus(4));
        assert_eq!(reference.samples.len(), 4);
        assert_eq!(encode_trace(&reference), encode_trace(&late));
    }
}
