//! The policy's two rank functions, lowered once per compile into a
//! program that evaluates metric vectors to integer keys.
//!
//! A switch ranks on every probe it accepts or rejects and on every BestT
//! rescan. [`Rank`] — a walk over [`MetricExpr`] trees into an `f64`
//! tuple, compared by a zero-padding loop — is the reference semantics the
//! verifier and the oracles use; what a switch runs is the [`RankProgram`]
//! the compiler builds into
//! [`CompiledPolicy::ranks`](crate::CompiledPolicy::ranks), shared by every
//! switch. It holds:
//!
//! * per `pid`, its retention tuple (what `retention_rank` evaluates);
//! * per *distinct acceptance vector* among the product graph's virtual
//!   nodes, the normalized branches whose regex requirements that vector
//!   meets, in branch order — `full_rank`'s search with the requirement
//!   test done once, at compile time. Virtual nodes share the entry of
//!   their vector, so the program grows with the policy, not the graph.
//!
//! Tuples and guards are flat leaves over the three metric fields: an
//! attribute read, a constant, or the general [`MetricExpr`] for
//! arithmetic. Evaluation yields a [`RankKey`], `u64` words whose
//! lexicographic order is exactly the order of the reference [`Rank`].
//!
//! **Encoding.** A finite component `x` becomes `enc(x + 0.0)`, where
//! `enc` maps a double's bits `b` to `!b` when the sign bit is set and to
//! `b | 1 << 63` otherwise. Adding `0.0` turns −0.0 into +0.0: the two are
//! equal as `f64`s but not as bits. After that, `enc` is strictly
//! increasing on finite doubles — the complement reverses the magnitude
//! order of negatives and puts them below every non-negative, whose order
//! the set top bit keeps — so tuples of finite components compare as their
//! words do.
//!
//! **Width.** `Rank` zero-pads the shorter of two tuples. The lowering
//! pads once, with constant `0.0` leaves, so every tuple of a function has
//! one width: four for functions no wider than four — every retention
//! tuple of a `pid`, or every finite branch of the full policy — else the
//! widest. A missing component thus encodes as `enc(0.0)`, not as the word
//! 0, which would sort below every real component.
//!
//! **∞.** A rank with a non-finite component is ∞, and so are all its rank
//! words: all ones, above `enc(f64::MAX)` = `0xFFEF_FFFF_FFFF_FFFF`. Two ∞
//! keys of one function are equal, as two `Rank::Inf` are.
//!
//! **Hop tie-break.** After its rank words a retention key holds
//! `path.len as u64`, the `(Rank, u64)` order FwdT retains by; a
//! full-policy key holds 0 there.
//!
//! Four rank words and the hop word live inline in the key, the inline
//! tuples are evaluated unrolled, and wider ranks spill to the heap. There
//! is no cap on width.

use crate::analysis::Analysis;
use crate::ast::{Attr, CmpOp};
use crate::metric::MetricVec;
use crate::normal::{BranchRank, MetricExpr, NormalPolicy};
use crate::pg::{ProductGraph, VNodeId};
#[cfg(doc)]
use crate::Rank;

/// Rank words a tuple evaluates to inline.
const WIDTH: usize = 4;

/// The order-preserving map of a finite double onto a word.
#[inline]
fn encode(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// An evaluated rank as machine words — its rank words, then the hop
/// word — ordered as the [`Rank`] it encodes (see the module docs). Keys
/// are only compared with keys of the same function: full-policy keys of
/// one program, or retention keys of one `pid`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RankKey {
    /// The first [`WIDTH`] + 1 words.
    head: [u64; WIDTH + 1],
    /// The words after those, for ranks wider than [`WIDTH`].
    tail: Option<Box<[u64]>>,
}

impl RankKey {
    /// Whether this is the key of an ∞ rank.
    pub fn is_inf(&self) -> bool {
        self.head[0] == u64::MAX
    }
}

/// One operand of a lowered tuple or guard.
#[derive(Debug, Clone)]
enum Leaf {
    Attr(Attr),
    Const(f64),
    /// Arithmetic, evaluated as the reference does.
    Expr(MetricExpr),
}

impl Leaf {
    fn lower(e: &MetricExpr) -> Leaf {
        match e {
            MetricExpr::Attr(a) => Leaf::Attr(*a),
            MetricExpr::Const(c) => Leaf::Const(*c),
            e => Leaf::Expr(e.clone()),
        }
    }

    #[inline]
    fn eval(&self, mv: &MetricVec) -> f64 {
        match self {
            Leaf::Attr(a) => mv.get(*a),
            Leaf::Const(c) => *c,
            Leaf::Expr(e) => e.eval(mv),
        }
    }
}

/// A tuple padded to its function's width with `0.0` leaves.
#[derive(Debug, Clone)]
enum Tuple {
    Inline([Leaf; WIDTH]),
    /// `leaves[start..end]` of the program, for functions wider than
    /// [`WIDTH`].
    Wide {
        start: u32,
        end: u32,
    },
}

impl Tuple {
    /// `exprs` padded to `width`: inline when that is at most [`WIDTH`],
    /// else appended to `leaves`.
    fn lower(exprs: &[MetricExpr], width: usize, leaves: &mut Vec<Leaf>) -> Tuple {
        let leaf = |i: usize| exprs.get(i).map_or(Leaf::Const(0.0), Leaf::lower);
        if width <= WIDTH {
            return Tuple::Inline(std::array::from_fn(leaf));
        }
        let start = leaves.len() as u32;
        leaves.extend((0..width).map(leaf));
        Tuple::Wide {
            start,
            end: leaves.len() as u32,
        }
    }
}

/// A normalized branch: its guards in `guards[start..end]`, then its rank
/// (∞ as a constant ∞ component).
#[derive(Debug, Clone)]
struct Branch {
    guards: (u32, u32),
    rank: Tuple,
}

/// The lowered rank functions of one compiled policy (module docs).
#[derive(Debug, Clone)]
pub struct RankProgram {
    /// Per `pid`, its retention tuple.
    retention: Vec<Tuple>,
    /// Guard operands and the leaves of wide tuples.
    leaves: Vec<Leaf>,
    /// `(op, i)`: the guard `leaves[i] op leaves[i + 1]`.
    guards: Vec<(CmpOp, u32)>,
    /// The normalized branches, in order.
    branches: Vec<Branch>,
    /// Per acceptance class, its branches, one run after another.
    class_branches: Vec<u32>,
    /// Per virtual node, its class's run `class_branches[start..end]`.
    class_of: Vec<(u32, u32)>,
    /// The full-policy rank ∞, for a class no branch applies to.
    inf: Tuple,
}

impl RankProgram {
    /// Lowers `normal`'s branches and `analysis`'s retention tuples, with
    /// one branch list per distinct acceptance vector of `pg`.
    pub fn lower(normal: &NormalPolicy, analysis: &Analysis, pg: &ProductGraph) -> RankProgram {
        let mut leaves = Vec::new();
        let retention = (analysis.subpolicies.iter())
            .map(|s| Tuple::lower(&s.retention, s.retention.len(), &mut leaves))
            .collect();
        let widths = normal.branches.iter().map(|b| match &b.rank {
            BranchRank::Finite(comps) => comps.len(),
            BranchRank::Inf => 0,
        });
        let full_width = widths.max().unwrap_or(0);
        let inf = [MetricExpr::Const(f64::INFINITY)];
        let mut guards = Vec::new();
        let branches = (normal.branches.iter())
            .map(|b| {
                let start = guards.len() as u32;
                for g in &b.guards {
                    guards.push((g.op, leaves.len() as u32));
                    leaves.extend([Leaf::lower(&g.lhs), Leaf::lower(&g.rhs)]);
                }
                let rank = match &b.rank {
                    BranchRank::Inf => &inf[..],
                    BranchRank::Finite(comps) => comps,
                };
                Branch {
                    guards: (start, guards.len() as u32),
                    rank: Tuple::lower(rank, full_width, &mut leaves),
                }
            })
            .collect();

        // One class per distinct acceptance vector, found by a scan of the
        // classes so far: a policy has few.
        let mut classes: Vec<(&[bool], (u32, u32))> = Vec::new();
        let mut class_branches = Vec::new();
        let class_of = (0..pg.len() as u32)
            .map(|v| {
                let acc = pg.acc(VNodeId(v));
                // `iter().eq`, not `==`: with no regex every vector is an
                // empty slice, which `==` compares by a slow `bcmp` call.
                let known = classes.iter().find(|(known, _)| known.iter().eq(acc));
                known.map(|&(_, run)| run).unwrap_or_else(|| {
                    let start = class_branches.len() as u32;
                    let applies = (normal.branches.iter()).map(|b| b.reqs_match(acc));
                    class_branches.extend((0..).zip(applies).filter_map(|(i, a)| a.then_some(i)));
                    let run = (start, class_branches.len() as u32);
                    classes.push((acc, run));
                    run
                })
            })
            .collect();

        RankProgram {
            retention,
            guards,
            branches,
            class_branches,
            class_of,
            inf: Tuple::lower(&inf, full_width, &mut leaves),
            leaves,
        }
    }

    /// The key of `mv` under `tuple`: its rank words, then `hop`.
    #[inline]
    fn key(&self, tuple: &Tuple, mv: &MetricVec, hop: u64) -> RankKey {
        match tuple {
            Tuple::Inline([a, b, c, d]) => {
                let [a, b, c, d] = [a.eval(mv), b.eval(mv), c.eval(mv), d.eval(mv)];
                let head = if a.is_finite() & b.is_finite() & c.is_finite() & d.is_finite() {
                    [encode(a), encode(b), encode(c), encode(d), hop]
                } else {
                    [u64::MAX, u64::MAX, u64::MAX, u64::MAX, hop]
                };
                RankKey { head, tail: None }
            }
            &Tuple::Wide { start, end } => self.wide_key(start, end, mv, hop),
        }
    }

    /// [`RankProgram::key`] of a tuple wider than [`WIDTH`], out of the
    /// way of the inline one.
    #[cold]
    fn wide_key(&self, start: u32, end: u32, mv: &MetricVec, hop: u64) -> RankKey {
        let mut finite = true;
        let leaves = &self.leaves[start as usize..end as usize];
        let rank = leaves.iter().map(|l| {
            let x = l.eval(mv);
            finite &= x.is_finite();
            encode(x)
        });
        let mut words: Vec<u64> = rank.chain([hop]).collect();
        if !finite {
            words[..leaves.len()].fill(u64::MAX);
        }
        let mut head = [0; WIDTH + 1];
        head.copy_from_slice(&words[..=WIDTH]);
        RankKey {
            head,
            tail: Some(words[WIDTH + 1..].into()),
        }
    }

    /// The retention key of `mv` for `pid`: its rank under the subpolicy's
    /// retention tuple, then its hop count.
    ///
    /// The hop count is the final tie-break of FwdT updates. Max-combined
    /// metrics produce *ties* (two paths sharing a bottleneck), and tied
    /// rows frozen by the strict-improvement rule can point at each other
    /// — a tie cycle the walk of next hops never escapes. Probes always
    /// carry `len` (the paper notes Contra "carr\[ies\] the path length as
    /// well as the utilization"), and breaking ties toward shorter paths
    /// makes every next-hop chain strictly length-decreasing, hence
    /// cycle-free, while choosing only among retention-equivalent (equally
    /// good) paths.
    #[inline]
    pub fn retention_key(&self, pid: usize, mv: &MetricVec) -> RankKey {
        let hop = mv.get(Attr::Len) as u64;
        self.key(&self.retention[pid], mv, hop)
    }

    /// The full-policy key of `mv` at virtual node `vnode`: the rank of
    /// the first branch of its acceptance class whose guards hold.
    pub fn full_key(&self, vnode: VNodeId, mv: &MetricVec) -> RankKey {
        let (start, end) = self.class_of[vnode.0 as usize];
        let holds = |&(op, i): &(CmpOp, u32)| {
            let operand = |j: u32| self.leaves[j as usize].eval(mv);
            op.eval(operand(i), operand(i + 1))
        };
        for &b in &self.class_branches[start as usize..end as usize] {
            let b = &self.branches[b as usize];
            let guards = &self.guards[b.guards.0 as usize..b.guards.1 as usize];
            if guards.iter().all(holds) {
                return self.key(&b.rank, mv, 0);
            }
        }
        debug_assert!(false, "no branch applied — normalization is not exhaustive");
        self.key(&self.inf, mv, 0)
    }
}
