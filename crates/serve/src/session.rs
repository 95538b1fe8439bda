//! Live solve sessions: a tenant's **evolving instance** held by the
//! server across requests.
//!
//! `POST /session` (see [`crate::routes`]) creates a session from an
//! instance, then mutates it in place: task *arrivals* grow the budget
//! and re-solve incrementally (through the tenant's solution cache, so
//! a re-visited task count is a cache hit), and posted *processor
//! failures* are repaired as [`mst_api::repair()`] repairs — the
//! committed prefix of the current witness is kept
//! ([`mst_api::repair::degraded_suffix`]) and only the surviving suffix
//! is re-solved on the degraded platform, through the same cache-fronted
//! solve as `/solve`. The session then *is* the degraded platform:
//! subsequent arrivals and failures compound.
//!
//! The table is a plain mutex over a vector: sessions are few (bounded
//! by [`MAX_OPEN_SESSIONS`], answered `429` beyond it) and operations
//! on them are dominated by solving, not lookup.

use mst_api::{Instance, Solution};
use std::sync::Mutex;

/// Most sessions the server will hold open at once, across all
/// tenants. Beyond it, `create` is refused with a `429` — a leaked
/// client loop must not grow server memory without bound.
pub const MAX_OPEN_SESSIONS: usize = 1024;

/// One held session: an instance, its current verified witness, and
/// the running degraded-mode tallies.
#[derive(Debug, Clone)]
pub struct Session {
    /// The table-unique id (`"session"` field of every response).
    pub id: u64,
    /// The owning tenant's policy name; ops on the session from a
    /// different tenant are answered `404` (not `403` — a foreign
    /// session id should not be distinguishable from a dead one).
    pub tenant: String,
    /// The solver name the session re-solves with.
    pub solver: String,
    /// The current instance: platform (possibly degraded) + task budget.
    pub instance: Instance,
    /// The current witness, verified against `instance`.
    pub solution: Solution,
    /// Task arrivals absorbed so far.
    pub arrivals: u64,
    /// Processor failures repaired so far.
    pub failures: u64,
    /// Tasks that were already complete at failure time and survived
    /// repairs (cumulative over all failures).
    pub committed: u64,
}

/// The server-wide session table.
#[derive(Debug, Default)]
pub struct SessionTable {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    next_id: u64,
    open: Vec<Session>,
}

impl SessionTable {
    /// Opens a session, assigning its id. `Err(())` when the table is
    /// full ([`MAX_OPEN_SESSIONS`]).
    #[allow(clippy::result_unit_err)]
    pub fn create(
        &self,
        tenant: &str,
        solver: &str,
        instance: Instance,
        solution: Solution,
    ) -> Result<u64, ()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.open.len() >= MAX_OPEN_SESSIONS {
            return Err(());
        }
        inner.next_id += 1;
        let id = inner.next_id;
        inner.open.push(Session {
            id,
            tenant: tenant.to_string(),
            solver: solver.to_string(),
            instance,
            solution,
            arrivals: 0,
            failures: 0,
            committed: 0,
        });
        Ok(id)
    }

    /// Runs `f` on the session owned by `tenant` with this id; `None`
    /// when no such session exists (wrong id *or* wrong tenant).
    pub fn with<R>(&self, tenant: &str, id: u64, f: impl FnOnce(&mut Session) -> R) -> Option<R> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.open.iter_mut().find(|s| s.id == id && s.tenant == tenant).map(f)
    }

    /// Closes (removes) the session; returns it when it existed.
    pub fn close(&self, tenant: &str, id: u64) -> Option<Session> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let at = inner.open.iter().position(|s| s.id == id && s.tenant == tenant)?;
        Some(inner.open.remove(at))
    }

    /// Open sessions right now, across all tenants (the `/metrics`
    /// gauge).
    pub fn open_count(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_api::{Platform, Solution, SolverRegistry};

    fn sample() -> (Instance, Solution) {
        let platform = Platform::chain(&[(2, 3), (3, 5)]).unwrap();
        let instance = Instance::new(platform, 5);
        let solution = SolverRegistry::global().solve("optimal", &instance).unwrap();
        (instance, solution)
    }

    #[test]
    fn create_with_close_round_trips_and_scopes_by_tenant() {
        let table = SessionTable::default();
        let (instance, solution) = sample();
        let id = table.create("alpha", "optimal", instance.clone(), solution.clone()).unwrap();
        assert_eq!(table.open_count(), 1);
        assert_eq!(table.with("alpha", id, |s| s.solver.clone()), Some("optimal".to_string()));
        // Another tenant cannot see, mutate or close it.
        assert_eq!(table.with("beta", id, |_| ()), None);
        assert!(table.close("beta", id).is_none());
        let closed = table.close("alpha", id).expect("owner closes");
        assert_eq!(closed.id, id);
        assert_eq!(table.open_count(), 0);
        assert_eq!(table.with("alpha", id, |_| ()), None, "closed sessions are gone");
    }

    #[test]
    fn ids_are_unique_and_the_table_is_bounded() {
        let table = SessionTable::default();
        let (instance, solution) = sample();
        let a = table.create("t", "optimal", instance.clone(), solution.clone()).unwrap();
        let b = table.create("t", "optimal", instance.clone(), solution.clone()).unwrap();
        assert_ne!(a, b);
        for _ in 0..(MAX_OPEN_SESSIONS - 2) {
            table.create("t", "optimal", instance.clone(), solution.clone()).unwrap();
        }
        assert!(table.create("t", "optimal", instance, solution).is_err(), "table is full");
    }
}
