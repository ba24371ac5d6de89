//! The pluggable routing-system abstraction.
//!
//! A [`RoutingSystem`] is anything that can populate a [`Simulator`] with
//! switch logic: the synthesized Contra dataplane, Hula, ECMP, SPAIN,
//! static shortest paths, or any custom scheme. The trait is the seam the
//! experiment layer (`contra-experiments`) sweeps over — evaluating a new
//! system against the paper's scenarios means implementing two methods,
//! not writing a new binary.
//!
//! Installation happens through an [`InstallCtx`], which carries the
//! topology, the cables down at install time (`Scenario` passes none:
//! its faults are events that fire later), and a shared [`CompileCache`]
//! so that matrix sweeps compile each distinct policy text exactly once
//! instead of once per run.

use crate::engine::Simulator;
use contra_core::{CompileError, CompiledPolicy, Compiler};
use contra_topology::{NodeId, Topology};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A routing scheme that can be installed on every switch of a simulator.
///
/// Systems are `Send + Sync`: the parallel sweep engine
/// (`contra_experiments::sweep`) shares one set of system values across
/// its worker threads. Implementations are plain configuration data
/// (policy texts, tunables), so this costs nothing — any mutable state
/// lives in the per-simulator [`SwitchLogic`](crate::SwitchLogic) boxes
/// created during [`RoutingSystem::install`], which never cross threads.
pub trait RoutingSystem: Send + Sync {
    /// Stable display name used for CSV series and test labels.
    ///
    /// This is an explicit property of the system, never derived from
    /// policy source text — reformatting a policy must not relabel a
    /// series (the bug the old `SystemKind::label()` string-matching
    /// had).
    fn name(&self) -> String;

    /// Installs this system's switch logic on every switch of `sim`.
    fn install(&self, sim: &mut Simulator, ctx: &InstallCtx<'_>) -> Result<(), InstallError>;
}

/// Everything a [`RoutingSystem`] may consult while installing itself.
pub struct InstallCtx<'a> {
    /// The topology the simulator runs on.
    pub topology: &'a Topology,
    /// Cables down at install time. `Scenario` passes none: its faults
    /// are events scheduled after installation. No shipped
    /// [`RoutingSystem`] reads it.
    pub failed: &'a [(NodeId, NodeId)],
    /// Shared policy-compilation cache for the surrounding sweep.
    pub cache: &'a CompileCache,
}

impl<'a> InstallCtx<'a> {
    /// Bundles an installation context.
    pub fn new(
        topology: &'a Topology,
        failed: &'a [(NodeId, NodeId)],
        cache: &'a CompileCache,
    ) -> InstallCtx<'a> {
        InstallCtx {
            topology,
            failed,
            cache,
        }
    }
}

/// Why a [`RoutingSystem::install`] call failed.
#[derive(Debug)]
pub enum InstallError {
    /// A policy failed to compile for this topology.
    Compile {
        /// The offending policy source text.
        policy: String,
        /// The compiler's diagnosis.
        error: CompileError,
    },
    /// The system cannot run on this topology or configuration.
    Unsupported {
        /// The system's display name.
        system: String,
        /// Human-readable explanation.
        reason: String,
    },
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::Compile { policy, error } => {
                write!(f, "compiling {policy:?}: {error}")
            }
            InstallError::Unsupported { system, reason } => {
                write!(f, "{system} unsupported here: {reason}")
            }
        }
    }
}

impl std::error::Error for InstallError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InstallError::Compile { error, .. } => Some(error),
            InstallError::Unsupported { .. } => None,
        }
    }
}

/// One cache slot: a per-key once-guard. Workers racing for the same
/// (topology, policy) key serialize on this inner lock — the winner
/// compiles while holding only its own slot, losers block and then read
/// the finished `Arc` — so distinct policies still compile concurrently.
type Slot = Arc<Mutex<Option<Arc<CompiledPolicy>>>>;

/// Memoizes policy compilation across the runs of a sweep.
///
/// Keyed by (topology fingerprint, policy text): a matrix sweep holding
/// one cache compiles `minimize(path.util)` once for all loads and seeds,
/// and reusing the cache across topologies is safe — different fabrics
/// simply occupy different slots.
///
/// The cache is internally synchronized (`Send + Sync`): the parallel
/// sweep engine shares one across its worker pool, and the per-key
/// once-guard guarantees each policy compiles exactly once even when many
/// cells race for it (`compiles()` counts actual compiler invocations,
/// which tests assert on).
#[derive(Default)]
pub struct CompileCache {
    entries: Mutex<HashMap<(u64, String), Slot>>,
    compiles: AtomicUsize,
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// Returns the compiled form of `policy` on `topo`, compiling at most
    /// once per distinct (topology, policy text) pair — including under
    /// concurrent callers. Failed compilations are not cached (nor
    /// counted), so a later call may retry.
    pub fn get_or_compile(
        &self,
        topo: &Topology,
        policy: &str,
    ) -> Result<Arc<CompiledPolicy>, CompileError> {
        let key = (topology_fingerprint(topo), policy.to_string());
        // Take (or create) the key's slot under the map lock, then release
        // the map before compiling so other keys proceed in parallel.
        // Poisoned locks are recovered: a panic mid-compile leaves the
        // slot `None`, and the invariant (filled ⇒ fully compiled) holds
        // either way — losers should retry, not die on a PoisonError that
        // would shadow the first, real panic.
        let slot: Slot = self
            .entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_default()
            .clone();
        let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cp) = guard.as_ref() {
            return Ok(cp.clone());
        }
        let cp = Arc::new(Compiler::new(topo).compile_str(policy)?);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        *guard = Some(cp.clone());
        Ok(cp)
    }

    /// How many actual compiler invocations this cache has performed —
    /// the quantity sweep tests assert on.
    pub fn compiles(&self) -> usize {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Number of distinct cached (topology, policy) pairs that finished
    /// compiling.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|s| s.lock().unwrap_or_else(|e| e.into_inner()).is_some())
            .count()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Structural hash of a topology: node names/kinds and directed links
/// with their capacities. Two topologies with equal fingerprints compile
/// policies identically for our purposes.
fn topology_fingerprint(topo: &Topology) -> u64 {
    let mut h = DefaultHasher::new();
    for n in topo.nodes() {
        n.name.hash(&mut h);
        std::mem::discriminant(&n.kind).hash(&mut h);
    }
    for l in topo.links() {
        (l.src.0, l.dst.0).hash(&mut h);
        l.bandwidth_bps.to_bits().hash(&mut h);
        l.delay_ns.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond(bw: f64) -> Topology {
        let mut t = Topology::builder();
        let a = t.switch("A");
        let b = t.switch("B");
        let c = t.switch("C");
        let d = t.switch("D");
        t.biline(a, b, bw, 1_000);
        t.biline(a, c, bw, 1_000);
        t.biline(b, d, bw, 1_000);
        t.biline(c, d, bw, 1_000);
        t.build()
    }

    #[test]
    fn cache_compiles_each_policy_once() {
        let topo = diamond(10e9);
        let cache = CompileCache::new();
        let a = cache.get_or_compile(&topo, "minimize(path.util)").unwrap();
        let b = cache.get_or_compile(&topo, "minimize(path.util)").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        assert_eq!(cache.compiles(), 1);
        cache.get_or_compile(&topo, "minimize(path.len)").unwrap();
        assert_eq!(cache.compiles(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_distinguishes_topologies() {
        let cache = CompileCache::new();
        cache
            .get_or_compile(&diamond(10e9), "minimize(path.util)")
            .unwrap();
        cache
            .get_or_compile(&diamond(40e9), "minimize(path.util)")
            .unwrap();
        assert_eq!(
            cache.compiles(),
            2,
            "different link speeds are different topologies"
        );
    }

    #[test]
    fn cache_surfaces_compile_errors() {
        let cache = CompileCache::new();
        let err = cache.get_or_compile(&diamond(10e9), "minimize(inf)");
        assert!(err.is_err());
        assert_eq!(cache.compiles(), 0, "failed compilations are not counted");
        assert!(cache.is_empty(), "failed compilations are not cached");
    }

    /// The per-key once-guard: many threads racing for one key perform
    /// exactly one compiler invocation and all see the same `Arc`.
    #[test]
    fn cache_compiles_once_under_racing_threads() {
        let topo = diamond(10e9);
        let cache = CompileCache::new();
        let handles: Vec<Arc<CompiledPolicy>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        cache
                            .get_or_compile(&topo, "minimize(path.util)")
                            .expect("compiles")
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.compiles(), 1, "racing threads must share one compile");
        assert_eq!(cache.len(), 1);
        for cp in &handles[1..] {
            assert!(Arc::ptr_eq(&handles[0], cp));
        }
    }
}
