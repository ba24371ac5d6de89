//! Differential test of the lowering: the [`RankProgram`] a compile
//! builds must order metric vectors exactly as the reference [`Rank`]
//! semantics (`retention_rank` with its hop tie-break, `full_rank`) does.
//!
//! Policies: the nine of the catalogue, the compiler policy suite (MU, WP,
//! CA) on a fat-tree, hand-written ones that exercise padding between
//! branches of different widths and tuples wider than the inline four,
//! and policies drawn by the fuzzer's generator. Metric vectors mix
//! random values with the edge cases of the encoding: exact ties, 0.0
//! against −0.0, subnormals, 1e300, values landing exactly on the
//! policy's guard bounds, and infinities.

use contra_core::{
    policies, BranchRank, CompiledPolicy, Compiler, MetricExpr, MetricVec, Rank, RankKey, VNodeId,
};
use contra_topology::{generators, Topology};
use std::cmp::Ordering;

/// splitmix64: a dependency-free stream for the metric draws.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The constants a policy compares or ranks against: a metric equal to
/// one lands a guard exactly on its bound.
fn constants(cp: &CompiledPolicy) -> Vec<f64> {
    fn walk(e: &MetricExpr, out: &mut Vec<f64>) {
        match e {
            MetricExpr::Const(c) => out.push(*c),
            MetricExpr::Attr(_) => {}
            MetricExpr::Bin(_, a, b) => {
                walk(a, out);
                walk(b, out);
            }
        }
    }
    let mut out = Vec::new();
    for b in &cp.normal.branches {
        for g in &b.guards {
            walk(&g.lhs, &mut out);
            walk(&g.rhs, &mut out);
        }
        if let BranchRank::Finite(comps) = &b.rank {
            comps.iter().for_each(|c| walk(c, &mut out));
        }
    }
    out
}

/// Metric vectors for one policy. A small pool of values per field makes
/// exact ties common; the rest are random.
fn metric_vecs(cp: &CompiledPolicy, draw: &mut Draw, n: usize) -> Vec<MetricVec> {
    let mut pool = vec![
        0.0,
        -0.0,
        0.5,
        1.0,
        2.0,
        5e-324,
        1e-310,
        f64::MIN_POSITIVE,
        1e300,
        f64::INFINITY,
    ];
    pool.extend(constants(cp));
    let field = |draw: &mut Draw, scale: f64, integral: bool| {
        if draw.below(3) > 0 {
            pool[draw.below(pool.len())]
        } else if integral {
            draw.below(8) as f64
        } else {
            draw.unit() * scale
        }
    };
    (0..n)
        .map(|_| {
            let util = field(draw, 2.0, false);
            let lat = field(draw, 1e-3, false);
            let len = field(draw, 0.0, true);
            MetricVec::new(util, lat, len)
        })
        .collect()
}

/// Checks that every pair of `(reference, key)` items compares alike and
/// that each key is ∞ exactly when its rank is.
fn same_order<R: Ord + std::fmt::Debug>(
    what: &str,
    items: &[(R, RankKey, bool)],
    ctx: &dyn Fn(usize) -> String,
) {
    for (i, (ri, ki, inf)) in items.iter().enumerate() {
        assert_eq!(ki.is_inf(), *inf, "{what}: is_inf of {ri:?} at {}", ctx(i));
        for (j, (rj, kj, _)) in items.iter().enumerate() {
            let (want, got): (Ordering, Ordering) = (ri.cmp(rj), ki.cmp(kj));
            assert_eq!(
                got,
                want,
                "{what}: {ri:?} vs {rj:?} at {} vs {}",
                ctx(i),
                ctx(j)
            );
        }
    }
}

/// Holds `cp`'s lowering to the reference on `n` drawn metric vectors:
/// retention keys per pid, and full keys across a sample of virtual nodes
/// that covers every acceptance vector.
fn check(label: &str, cp: &CompiledPolicy, draw: &mut Draw, n: usize) -> usize {
    let mvs = metric_vecs(cp, draw, n);
    for pid in 0..cp.num_pids() {
        let items: Vec<((Rank, u64), RankKey, bool)> = (mvs.iter())
            .map(|mv| {
                let rank = cp.retention_rank(pid, mv);
                let inf = rank.is_inf();
                let hop = mv.get(contra_core::Attr::Len) as u64;
                ((rank, hop), cp.ranks.retention_key(pid, mv), inf)
            })
            .collect();
        same_order(&format!("{label} retention pid {pid}"), &items, &|i| {
            format!("{:?}", mvs[i])
        });
    }

    // One vnode per acceptance vector, plus a few more.
    let mut vnodes: Vec<VNodeId> = Vec::new();
    for v in (0..cp.pg.len() as u32).map(VNodeId) {
        let fresh = !vnodes.iter().any(|&w| cp.pg.acc(w) == cp.pg.acc(v));
        if fresh || vnodes.len() < 4 {
            vnodes.push(v);
        }
    }
    let mut items = Vec::new();
    let mut at = Vec::new();
    for &v in &vnodes {
        let acc = cp.pg.acc(v);
        for mv in &mvs {
            // A NaN guard (∞ · 0) holds neither way, and the reference
            // then finds no branch; the dataplane never sees one.
            if !cp.normal.branches.iter().any(|b| b.applies(acc, mv)) {
                continue;
            }
            let rank = cp.full_rank(v, mv);
            let inf = rank.is_inf();
            items.push((rank, cp.ranks.full_key(v, mv), inf));
            at.push((v, *mv));
        }
    }
    same_order(&format!("{label} full"), &items, &|i| {
        format!("{:?}", at[i])
    });
    items.len()
}

fn fig6_with_xy() -> Topology {
    let mut t = Topology::builder();
    let [a, b, c, d, x, y] = ["A", "B", "C", "D", "X", "Y"].map(|n| t.switch(n));
    for (p, q) in [
        (a, b),
        (a, c),
        (b, c),
        (b, d),
        (c, d),
        (a, x),
        (x, y),
        (y, d),
    ] {
        t.biline(p, q, 10e9, 1_000);
    }
    t.build()
}

#[test]
fn catalogue_and_suite_keys_order_as_ranks() {
    let mut draw = Draw(26);
    let topo = fig6_with_xy();
    let compiler = Compiler::new(&topo);
    let mut wide = policies::catalogue("B", "C", "X", "Y");
    wide.extend([
        // Branches of widths 1 and 2 meet in one BestT: padding decides.
        ("pad", "minimize(if A .* then path.util else (path.util, path.len))".to_string()),
        (
            "wide",
            "minimize(if path.util < .5 then (1, path.len, path.util, path.lat, path.len, path.util) \
             else (2, path.util))"
                .to_string(),
        ),
        (
            "wide retention",
            "minimize((path.len, path.util, path.lat, path.len + 1, path.util + path.lat))"
                .to_string(),
        ),
    ]);
    for (name, src) in wide {
        let cp = compiler.compile_str(&src).unwrap();
        check(name, &cp, &mut draw, 40);
    }
    let fat_tree = generators::fat_tree(4, 1, generators::LinkSpec::default());
    let s = fat_tree.switches();
    let (f1, f2) = (&fat_tree.node(s[0]).name, &fat_tree.node(s[1]).name);
    for (name, src) in [
        ("MU", policies::min_util()),
        ("WP", policies::waypoint(f1, f2)),
        ("CA", policies::congestion_aware()),
    ] {
        let cp = Compiler::new(&fat_tree).compile_str(&src).unwrap();
        check(name, &cp, &mut draw, 40);
    }
}

#[test]
fn generated_policy_keys_order_as_ranks() {
    let mut draw = Draw(2026);
    let (mut compiled, mut compared) = (0, 0);
    for seed in 0..400u64 {
        let case = contra_fuzz::gen::gen_case(seed);
        let Ok(topo) = case.topo.build() else {
            continue;
        };
        let Ok(cp) = Compiler::new(&topo).compile_str(&case.policy) else {
            continue;
        };
        compiled += 1;
        compared += check(&format!("seed {seed}: {}", case.policy), &cp, &mut draw, 16);
    }
    assert!(
        compiled >= 100,
        "only {compiled} generated policies compiled"
    );
    assert!(compared > 0);
}
