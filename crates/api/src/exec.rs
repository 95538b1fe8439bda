//! Execution policies: *how much machine* a tenant gets.
//!
//! The registry layer ([`crate::config`]) lets a tenant pin *which
//! solvers* it sees; this module adds the other half of multi-tenancy —
//! thread budgets, admission control, per-request deadline budgets and
//! cooperative cancellation — as a first-class API:
//!
//! * [`ExecPolicy`] — one tenant's policy: its name and token, a
//!   registry, an optional dedicated worker-thread budget, an admission
//!   quota, a per-request instance cap, a wall-clock deadline budget, a
//!   cache size and a rate limit. [`crate::RegistrySet::parse`] reads
//!   each config tenant spec straight into one; embedders build their
//!   own with [`ExecPolicy::new`] and its builder methods;
//! * [`TenantExec`] — a policy made executable: it owns the tenant's
//!   [`Batch`] engine (over a **dedicated** [`WorkerPool`] when the
//!   policy budgets threads, the shared fallback pool otherwise), an
//!   admission counter and live per-tenant statistics;
//! * [`AdmitGuard`] — an RAII admission slot: [`TenantExec::admit`]
//!   takes one, dropping it releases it, so a slot can never leak on a
//!   panicking or early-returning request path;
//! * [`AdmissionError`] — the typed refusals (`quota exhausted`, `too
//!   many instances`, `rate limited`) that `mst-serve` maps to 429/400
//!   responses; rate refusals carry an accurate `Retry-After` computed
//!   from the token bucket's refill rate.
//!
//! Isolation is structural: a tenant with `threads: 1` solves on its
//! own single-executor pool, so however long its sweeps run they never
//! occupy another tenant's workers — a heavy tenant cannot starve a
//! light one. Cancellation is cooperative: [`TenantExec::cancel_token`]
//! arms the policy's deadline budget, [`Batch::solve_all_cancellable`]
//! polls it per instance, and whoever owns the request (e.g. a
//! connection handler noticing its client disconnected) can fire the
//! same token explicitly.
//!
//! ```
//! use mst_api::exec::{ExecPolicy, TenantExec};
//! use mst_api::{Instance, SolverRegistry, TopologyKind};
//!
//! let policy = ExecPolicy::new("acme", SolverRegistry::global().clone())
//!     .threads(1)
//!     .quota(2);
//! let exec = TenantExec::new(policy, mst_sim::shared_pool());
//!
//! let _slot = exec.admit().unwrap();
//! let instances: Vec<Instance> = (0..16)
//!     .map(|seed| Instance::generate(
//!         TopologyKind::Chain, mst_platform::HeterogeneityProfile::ALL[0], seed, 3, 5,
//!     ))
//!     .collect();
//! let results = exec.batch().solve_all_cancellable(&instances, &exec.cancel_token());
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```

use crate::batch::Batch;
use crate::cache::{SolutionCache, DEFAULT_CACHE_ENTRIES};
use crate::registry::SolverRegistry;
use mst_sim::{CancelToken, WorkerPool};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The resolved execution policy of one tenant: registry plus machine
/// budgets and admission limits.
#[derive(Debug, Clone)]
pub struct ExecPolicy {
    /// Tenant name (also the default API token).
    pub name: String,
    /// Explicit API token; `None` falls back to the name.
    pub token: Option<String>,
    /// The solver registry requests resolve against.
    pub registry: SolverRegistry,
    /// Dedicated solve parallelism ([`WorkerPool::with_parallelism`]);
    /// `None` shares the fallback pool.
    pub threads: Option<usize>,
    /// Max concurrently admitted requests; `None` is unlimited.
    pub quota: Option<usize>,
    /// Per-request instance cap; `None` defers to the service-wide cap.
    pub max_instances: Option<usize>,
    /// Per-request wall-clock budget; past it, sweeps cancel at the
    /// next checkpoint.
    pub deadline: Option<Duration>,
    /// Capacity of the tenant's canonical solution cache; `Some(0)`
    /// disables caching, `None` uses
    /// [`crate::cache::DEFAULT_CACHE_ENTRIES`].
    pub cache_entries: Option<usize>,
    /// Time-windowed request-rate limit; `None` is unlimited.
    pub rate: Option<RateLimit>,
}

/// A time-windowed request-rate limit: at most `requests` admissions
/// per `window`, enforced as a token bucket (continuous refill at
/// `requests / window`, burst capacity of one full window's allowance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Requests allowed per window.
    pub requests: u64,
    /// The averaging window.
    pub window: Duration,
}

impl RateLimit {
    /// The continuous refill rate, in tokens per second.
    pub fn per_second(&self) -> f64 {
        self.requests as f64 / self.window.as_secs_f64().max(1e-9)
    }
}

impl ExecPolicy {
    /// An unrestricted policy over `registry`: shared pool, no quota,
    /// no caps, no deadline budget.
    pub fn new(name: impl Into<String>, registry: SolverRegistry) -> ExecPolicy {
        ExecPolicy {
            name: name.into(),
            token: None,
            registry,
            threads: None,
            quota: None,
            max_instances: None,
            deadline: None,
            cache_entries: None,
            rate: None,
        }
    }

    /// Budgets `threads` total solve parallelism on a dedicated pool.
    pub fn threads(mut self, threads: usize) -> ExecPolicy {
        self.threads = Some(threads);
        self
    }

    /// Admits at most `quota` concurrent requests.
    pub fn quota(mut self, quota: usize) -> ExecPolicy {
        self.quota = Some(quota);
        self
    }

    /// Caps a single request at `max_instances` instances.
    pub fn max_instances(mut self, max_instances: usize) -> ExecPolicy {
        self.max_instances = Some(max_instances);
        self
    }

    /// Arms a per-request wall-clock deadline budget.
    pub fn deadline(mut self, budget: Duration) -> ExecPolicy {
        self.deadline = Some(budget);
        self
    }

    /// Budgets the canonical solution cache at `entries` entries (`0`
    /// disables caching for this tenant).
    pub fn cache_entries(mut self, entries: usize) -> ExecPolicy {
        self.cache_entries = Some(entries);
        self
    }

    /// Caps the tenant at `requests` admissions per `window` (token
    /// bucket; see [`RateLimit`]).
    pub fn rate_limit(mut self, requests: u64, window: Duration) -> ExecPolicy {
        self.rate = Some(RateLimit { requests, window });
        self
    }

    /// The API token requests present to route here: the explicit token
    /// when configured, the tenant name otherwise.
    pub fn effective_token(&self) -> &str {
        self.token.as_deref().unwrap_or(&self.name)
    }
}

/// Why a request was refused at the door (before any solving).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// Every admission slot of the tenant's quota is taken.
    QuotaExhausted {
        /// The refusing tenant.
        tenant: String,
        /// Its configured quota.
        quota: usize,
    },
    /// The request asks for more instances than the tenant's cap.
    TooManyInstances {
        /// The refusing tenant.
        tenant: String,
        /// Instances the request carried.
        requested: usize,
        /// The tenant's per-request cap.
        cap: usize,
    },
    /// The tenant's time-windowed rate limit is spent.
    RateLimited {
        /// The refusing tenant.
        tenant: String,
        /// The configured limit.
        limit: RateLimit,
        /// Whole seconds until a token is available again — the
        /// accurate `Retry-After` value.
        retry_after: u64,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QuotaExhausted { tenant, quota } => write!(
                f,
                "tenant {tenant:?} has all {quota} admission slot(s) in use; retry shortly"
            ),
            AdmissionError::TooManyInstances { tenant, requested, cap } => write!(
                f,
                "{requested} instances exceed tenant {tenant:?}'s per-request cap of {cap}"
            ),
            AdmissionError::RateLimited { tenant, limit, retry_after } => write!(
                f,
                "tenant {tenant:?} exceeded its rate limit of {} request(s) per {}ms; retry in \
                 {retry_after}s",
                limit.requests,
                limit.window.as_millis()
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Live per-tenant counters, all monotone atomics. The service's
/// `/metrics` reports them per tenant, next to the tenant cache's own
/// hit and miss counts ([`SolutionCache::hits`]) and the live queue
/// depth ([`TenantExec::queue_depth`]), and sums the solve counters
/// over tenants.
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Requests routed to this tenant (admitted or not).
    pub requests_total: AtomicU64,
    /// Requests refused with a quota/cap admission error.
    pub rejected_total: AtomicU64,
    /// Requests refused because the tenant's time-windowed rate limit
    /// was spent.
    pub rate_limited_total: AtomicU64,
    /// Instances solved successfully on this tenant's engine.
    pub solved_total: AtomicU64,
    /// Instances whose solve returned a genuine error.
    pub failed_total: AtomicU64,
    /// Instances skipped by cancellation (deadline budget or client
    /// disconnect).
    pub cancelled_total: AtomicU64,
    /// Nanoseconds of solve wall time spent for this tenant.
    pub solve_ns_total: AtomicU64,
    /// Records appended to (or preloaded from) the persistent result
    /// store on behalf of this tenant.
    pub store_records: AtomicU64,
}

impl TenantStats {
    /// Folds one solving run into the counters: its `solved` /
    /// `failed` / `cancelled` instance outcomes and the wall time it
    /// took.
    pub fn record(&self, solved: u64, failed: u64, cancelled: u64, elapsed: Duration) {
        self.solved_total.fetch_add(solved, Ordering::Relaxed);
        self.failed_total.fetch_add(failed, Ordering::Relaxed);
        self.cancelled_total.fetch_add(cancelled, Ordering::Relaxed);
        self.solve_ns_total.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// One tenant's executable policy: its [`Batch`] engine over its own
/// (or the shared) worker pool, admission slots, and live statistics.
///
/// `TenantExec` is `Send + Sync`; one instance serves every connection
/// handler concurrently.
pub struct TenantExec {
    policy: ExecPolicy,
    batch: Batch,
    in_flight: AtomicUsize,
    stats: TenantStats,
    cache: SolutionCache,
    rejection_streak: AtomicU64,
    bucket: Option<Mutex<TokenBucket>>,
}

/// Live state of one tenant's rate-limit token bucket: fractional
/// tokens plus the instant of the last refill. Refill is continuous at
/// [`RateLimit::per_second`], capped at one full window's allowance.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    last: Instant,
}

/// Cap on the escalating `Retry-After` hint, in seconds: a persistently
/// saturated tenant is told to back off for at most a minute.
pub const MAX_RETRY_AFTER_SECS: u64 = 60;

impl TenantExec {
    /// Builds the tenant's engine: a **dedicated**
    /// [`WorkerPool::with_parallelism`] pool when the policy budgets
    /// threads (structural isolation — its sweeps can never occupy
    /// another tenant's workers), otherwise the supplied shared
    /// fallback pool.
    pub fn new(policy: ExecPolicy, fallback: Arc<WorkerPool>) -> TenantExec {
        let pool = match policy.threads {
            Some(threads) => Arc::new(WorkerPool::with_parallelism(threads)),
            None => fallback,
        };
        let batch = Batch::new(policy.registry.clone()).with_pool(pool);
        let cache = SolutionCache::new(policy.cache_entries.unwrap_or(DEFAULT_CACHE_ENTRIES));
        // The bucket starts full: a fresh tenant may burst one whole
        // window's allowance immediately.
        let bucket = policy.rate.map(|limit| {
            Mutex::new(TokenBucket { tokens: limit.requests as f64, last: Instant::now() })
        });
        TenantExec {
            policy,
            batch,
            in_flight: AtomicUsize::new(0),
            stats: TenantStats::default(),
            cache,
            rejection_streak: AtomicU64::new(0),
            bucket,
        }
    }

    /// The policy this tenant executes under.
    pub fn policy(&self) -> &ExecPolicy {
        &self.policy
    }

    /// The tenant's batch engine (registry + pool per the policy).
    pub fn batch(&self) -> &Batch {
        &self.batch
    }

    /// Live per-tenant counters.
    pub fn stats(&self) -> &TenantStats {
        &self.stats
    }

    /// The tenant's canonical solution cache (sized by the policy's
    /// `cache_entries`; disabled when it is `0`).
    pub fn cache(&self) -> &SolutionCache {
        &self.cache
    }

    /// Currently admitted (in-flight) requests — the live queue-depth
    /// gauge behind `/metrics`.
    pub fn queue_depth(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Takes one admission slot, or refuses with
    /// [`AdmissionError::QuotaExhausted`] when the quota is spent. The
    /// returned guard releases the slot on drop — including on panic —
    /// so refusal is always transient.
    pub fn admit(&self) -> Result<AdmitGuard<'_>, AdmissionError> {
        let quota = self.policy.quota.unwrap_or(usize::MAX);
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= quota {
                self.stats.rejected_total.fetch_add(1, Ordering::Relaxed);
                self.rejection_streak.fetch_add(1, Ordering::Relaxed);
                return Err(AdmissionError::QuotaExhausted {
                    tenant: self.policy.name.clone(),
                    quota,
                });
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.rejection_streak.store(0, Ordering::Relaxed);
                    return Ok(AdmitGuard { exec: self });
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// The `Retry-After` hint (seconds) to attach to the tenant's next
    /// 429: bounded exponential backoff over the **consecutive**
    /// rejection streak — `1, 2, 4, 8, ...` capped at
    /// [`MAX_RETRY_AFTER_SECS`] — reset to `1` as soon as an admission
    /// succeeds. A client hammering a saturated tenant is told to back
    /// off progressively harder; a recovered tenant immediately hints
    /// short retries again.
    pub fn retry_after_hint(&self) -> u64 {
        let streak = self.rejection_streak.load(Ordering::Relaxed);
        if streak <= 1 {
            1
        } else {
            (1u64 << (streak - 1).min(6)).min(MAX_RETRY_AFTER_SECS)
        }
    }

    /// Checks a request's instance count against the tenant's cap (the
    /// service-wide cap still applies on top).
    pub fn check_instances(&self, requested: usize) -> Result<(), AdmissionError> {
        match self.policy.max_instances {
            Some(cap) if requested > cap => {
                self.stats.rejected_total.fetch_add(1, Ordering::Relaxed);
                Err(AdmissionError::TooManyInstances {
                    tenant: self.policy.name.clone(),
                    requested,
                    cap,
                })
            }
            _ => Ok(()),
        }
    }

    /// Spends one rate-limit token, or refuses with
    /// [`AdmissionError::RateLimited`] when the bucket is empty. The
    /// bucket refills continuously at the policy's `requests / window`
    /// rate (burst capacity: one full window's allowance), so the
    /// refusal carries an **accurate** `Retry-After`: the whole seconds
    /// until the next token exists, not a guess. Tenants without a
    /// configured [`ExecPolicy::rate`] always pass.
    pub fn check_rate(&self) -> Result<(), AdmissionError> {
        let (bucket, limit) = match (&self.bucket, self.policy.rate) {
            (Some(bucket), Some(limit)) => (bucket, limit),
            _ => return Ok(()),
        };
        let mut state = bucket.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        let refill = now.duration_since(state.last).as_secs_f64() * limit.per_second();
        state.tokens = (state.tokens + refill).min(limit.requests as f64);
        state.last = now;
        if state.tokens >= 1.0 {
            state.tokens -= 1.0;
            return Ok(());
        }
        self.stats.rate_limited_total.fetch_add(1, Ordering::Relaxed);
        let deficit = 1.0 - state.tokens;
        let retry_after = (deficit / limit.per_second()).ceil().max(1.0) as u64;
        Err(AdmissionError::RateLimited { tenant: self.policy.name.clone(), limit, retry_after })
    }

    /// A fresh cancellation token for one request, with the policy's
    /// deadline budget armed (if any). Hand it to
    /// [`Batch::solve_all_cancellable`] and to whatever watches the
    /// client connection.
    pub fn cancel_token(&self) -> CancelToken {
        match self.policy.deadline {
            Some(budget) => CancelToken::with_budget(budget),
            None => CancelToken::new(),
        }
    }
}

impl fmt::Debug for TenantExec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantExec")
            .field("name", &self.policy.name)
            .field("threads", &self.policy.threads)
            .field("quota", &self.policy.quota)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

/// An RAII admission slot from [`TenantExec::admit`].
#[must_use = "dropping the guard releases the admission slot immediately"]
#[derive(Debug)]
pub struct AdmitGuard<'a> {
    exec: &'a TenantExec,
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        self.exec.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet;
    use mst_sim::shared_pool;

    fn policy() -> ExecPolicy {
        ExecPolicy::new("t", SolverRegistry::global().clone())
    }

    #[test]
    fn policies_resolve_from_config_limits() {
        let set = crate::config::RegistrySet::parse(
            r#"{"registries": {
                "acme": {
                    "token": "key",
                    "threads": 2,
                    "quota": 3,
                    "max_instances": 1000,
                    "deadline_ms": 250,
                    "cache_entries": 128,
                    "requests_per_window": 40,
                    "window_ms": 500
                },
                "x": {"requests_per_window": 7}
            }}"#,
        )
        .unwrap();
        let p = set.get("acme").unwrap().clone();
        assert_eq!(p.effective_token(), "key");
        assert_eq!(p.threads, Some(2));
        assert_eq!(p.quota, Some(3));
        assert_eq!(p.max_instances, Some(1000));
        assert_eq!(p.deadline, Some(Duration::from_millis(250)));
        assert_eq!(p.cache_entries, Some(128));
        assert_eq!(
            p.rate,
            Some(RateLimit { requests: 40, window: Duration::from_millis(500) }),
            "rate limits resolve from the config keys"
        );
        // The window defaults to one second when only the rate is set.
        let q = set.get("x").unwrap();
        assert_eq!(q.rate, Some(RateLimit { requests: 7, window: Duration::from_secs(1) }));
        assert_eq!(TenantExec::new(p, shared_pool()).cache().capacity(), 128);
        // The name is the fallback token.
        let bare = ExecPolicy::new("acme", SolverRegistry::global().clone());
        assert_eq!(bare.effective_token(), "acme");
        let token = TenantExec::new(bare, shared_pool()).cancel_token();
        assert!(token.deadline().is_none(), "no budget, no deadline");
    }

    #[test]
    fn quota_slots_are_taken_released_and_reusable() {
        let exec = TenantExec::new(policy().quota(2), shared_pool());
        let a = exec.admit().unwrap();
        let b = exec.admit().unwrap();
        assert_eq!(exec.queue_depth(), 2);
        let refused = exec.admit().unwrap_err();
        assert!(matches!(refused, AdmissionError::QuotaExhausted { quota: 2, .. }), "{refused}");
        assert_eq!(exec.stats().rejected_total.load(Ordering::Relaxed), 1);
        drop(a);
        // Releasing one slot re-admits immediately: refusal is transient.
        let c = exec.admit().unwrap();
        assert_eq!(exec.queue_depth(), 2);
        drop(b);
        drop(c);
        assert_eq!(exec.queue_depth(), 0);
        // No quota admits without bound.
        let open = TenantExec::new(policy(), shared_pool());
        let guards: Vec<_> = (0..64).map(|_| open.admit().unwrap()).collect();
        assert_eq!(open.queue_depth(), 64);
        drop(guards);
    }

    #[test]
    fn retry_after_escalates_exponentially_and_resets_on_admit() {
        let exec = TenantExec::new(policy().quota(1), shared_pool());
        assert_eq!(exec.retry_after_hint(), 1, "no rejections yet hints the minimum");
        let held = exec.admit().unwrap();
        let mut hints = Vec::new();
        for _ in 0..9 {
            exec.admit().unwrap_err();
            hints.push(exec.retry_after_hint());
        }
        assert_eq!(hints, vec![1, 2, 4, 8, 16, 32, 60, 60, 60], "bounded exponential backoff");
        drop(held);
        // A successful admission resets the streak to the minimum hint.
        let held = exec.admit().unwrap();
        assert_eq!(exec.retry_after_hint(), 1);
        drop(held);
    }

    #[test]
    fn rate_limits_spend_a_token_bucket_and_hint_accurate_retries() {
        // 2 requests per 10-second window: the bucket starts full, so
        // exactly two requests pass before the first refusal.
        let exec = TenantExec::new(policy().rate_limit(2, Duration::from_secs(10)), shared_pool());
        assert!(exec.check_rate().is_ok());
        assert!(exec.check_rate().is_ok());
        let refused = exec.check_rate().unwrap_err();
        match refused {
            AdmissionError::RateLimited { ref tenant, limit, retry_after } => {
                assert_eq!(tenant, "t");
                assert_eq!(limit.requests, 2);
                // One token regrows in 5s; the hint must say so (give
                // or take the ceil and the time spent in the test).
                assert!((4..=5).contains(&retry_after), "retry_after = {retry_after}");
            }
            other => panic!("expected RateLimited, got {other:?}"),
        }
        assert!(refused.to_string().contains("rate limit"), "{refused}");
        assert_eq!(exec.stats().rate_limited_total.load(Ordering::Relaxed), 1);
        // Rate refusals are not quota refusals.
        assert_eq!(exec.stats().rejected_total.load(Ordering::Relaxed), 0);

        // A fast window refills: 1000 requests/s regrows a token within
        // a few milliseconds.
        let fast = TenantExec::new(policy().rate_limit(1, Duration::from_millis(1)), shared_pool());
        assert!(fast.check_rate().is_ok());
        std::thread::sleep(Duration::from_millis(5));
        assert!(fast.check_rate().is_ok(), "the bucket must refill with time");

        // No configured rate never refuses.
        let open = TenantExec::new(policy(), shared_pool());
        for _ in 0..1000 {
            assert!(open.check_rate().is_ok());
        }
    }

    #[test]
    fn instance_caps_refuse_oversized_requests() {
        let exec = TenantExec::new(policy().max_instances(10), shared_pool());
        assert!(exec.check_instances(10).is_ok());
        let refused = exec.check_instances(11).unwrap_err();
        assert!(
            matches!(refused, AdmissionError::TooManyInstances { requested: 11, cap: 10, .. }),
            "{refused}"
        );
        // Uncapped tenants defer to the service-wide cap.
        let open = TenantExec::new(policy(), shared_pool());
        assert!(open.check_instances(usize::MAX).is_ok());
    }

    #[test]
    fn thread_budgets_build_dedicated_pools() {
        let dedicated = TenantExec::new(policy().threads(3), shared_pool());
        assert_eq!(dedicated.batch().pool().workers(), 2, "threads counts the caller");
        assert!(!Arc::ptr_eq(dedicated.batch().pool(), &shared_pool()));
        // threads: 1 is the fully inline pool — structural single-core.
        let inline = TenantExec::new(policy().threads(1), shared_pool());
        assert_eq!(inline.batch().pool().workers(), 0);
        // No budget shares the fallback.
        let fallback = TenantExec::new(policy(), shared_pool());
        assert!(Arc::ptr_eq(fallback.batch().pool(), &shared_pool()));
    }

    #[test]
    fn deadline_budgets_cancel_sweeps_midway() {
        let exec =
            TenantExec::new(policy().threads(1).deadline(Duration::from_millis(30)), shared_pool());
        let instances = fleet::mixed_fleet(200_000);
        let started = std::time::Instant::now();
        let results = exec.batch().solve_all_cancellable(&instances, &exec.cancel_token());
        let summary = crate::BatchSummary::of(&results);
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "a budgeted sweep must return promptly, took {:?}",
            started.elapsed()
        );
        assert!(summary.cancelled > 0, "the 30ms budget cannot cover 200k instances");
        assert!(summary.solved > 0, "instances before the deadline did solve");
        assert_eq!(summary.failed, 0);
        // The engine is fully reusable after a cancelled sweep.
        let again = exec.batch().solve_all(&instances[..64]);
        assert!(again.iter().all(|r| r.is_ok()));
    }
}
