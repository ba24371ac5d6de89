//! `contra-compile` — the command-line compiler: policy + topology in,
//! per-switch P4₁₆ programs out.
//!
//! ```text
//! contra_compile --topology fat-tree:4 --policy 'minimize(path.util)' --out /tmp/p4
//! contra_compile --topology abilene --policy 'minimize(if .* Denver .* then path.util else inf)'
//! contra_compile --topology zoo:Aarnet.graphml --policy 'minimize(path.len)'
//! ```
//!
//! Topology specs share the [`contra_experiments`] syntax, so anything
//! compilable here is also runnable as a `Scenario`. Without `--out`,
//! prints a compilation report (tags, pids, state model, diagnostics)
//! instead of writing files. The full static policy verifier (black holes,
//! single-cable fragility, dead code) always runs and its findings are
//! printed; `--verify` additionally makes the exit status non-zero if it
//! reports errors. With `--out`, a program that fails validation is
//! reported by switch and not written, and an output directory or file that
//! cannot be written is reported by path; either exits 1.

use contra_bench::{parse_topology_spec, CompileCache};
use contra_core::verify;
use contra_p4gen::{emit_switch_program, max_switch_state_kb, switch_state, validate};

fn usage() -> ! {
    eprintln!(
        "usage: contra_compile --topology <fat-tree:K|leaf-spine:L,S,H|abilene|random:N|zoo:FILE> \\\n\
         \t--policy '<minimize(...)>' [--out DIR] [--verify]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut topology = None;
    let mut policy = None;
    let mut out = None;
    let mut gate_on_verify = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--topology" => {
                topology = args.get(i + 1).cloned();
                i += 2;
            }
            "--policy" => {
                policy = args.get(i + 1).cloned();
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).cloned();
                i += 2;
            }
            "--verify" => {
                gate_on_verify = true;
                i += 1;
            }
            _ => usage(),
        }
    }
    let (Some(tspec), Some(policy)) = (topology, policy) else {
        usage()
    };
    let topo = match parse_topology_spec(&tspec) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "topology: {} switches, {} directed links",
        topo.num_switches(),
        topo.num_links()
    );

    let started = std::time::Instant::now();
    let cache = CompileCache::new();
    let cp = match cache.get_or_compile(&topo, &policy) {
        Ok(cp) => cp,
        Err(e) => {
            eprintln!("compile error: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("compiled in {:.3}s", started.elapsed().as_secs_f64());
    eprintln!(
        "probe subpolicies (pids): {}; product-graph vnodes: {}; max tags/switch: {}",
        cp.num_pids(),
        cp.total_tags(),
        cp.pg.max_tags_per_switch()
    );
    eprintln!(
        "metric basis: {:?}; probe period floor: {} ns",
        cp.basis.attrs(),
        cp.min_probe_period_ns
    );
    let report = verify(&cp, &topo);
    if !report.diagnostics.is_empty() {
        eprint!("{}", report.render(Some(&policy)));
    }
    eprintln!("max switch state: {:.1} kB", max_switch_state_kb(&cp));

    match out {
        Some(dir) => {
            let io_failed = |what: &str, path: &str, e: std::io::Error| -> ! {
                eprintln!("cannot {what} {path}: {e}");
                std::process::exit(1);
            };
            if let Err(e) = std::fs::create_dir_all(&dir) {
                io_failed("create", &dir, e);
            }
            let (mut total, mut invalid) = (0usize, 0usize);
            for &sw in cp.programs.keys() {
                let p4 = emit_switch_program(&cp, sw);
                let name = &topo.node(sw).name;
                let errs = validate(&p4);
                for e in &errs {
                    eprintln!("{name}: {e}");
                }
                if !errs.is_empty() {
                    invalid += 1;
                    continue;
                }
                let path = format!("{dir}/{}.p4", name.replace('/', "_"));
                if let Err(e) = std::fs::write(&path, &p4) {
                    io_failed("write", &path, e);
                }
                total += p4.len();
            }
            if invalid > 0 {
                eprintln!("{invalid} emitted programs failed validation and were not written");
                std::process::exit(1);
            }
            eprintln!(
                "wrote {} programs ({} bytes of P4) to {dir}",
                cp.programs.len(),
                total
            );
        }
        None => {
            // Report mode: summarize the largest switch program.
            let (&sw, _) = cp
                .programs
                .iter()
                .max_by_key(|(_, p)| p.tags.len())
                .expect("programs exist");
            let st = switch_state(&cp, sw);
            eprintln!(
                "largest program: {} — {} tags, FwdT {} B, BestT {} B, flowlets {} B, total {:.1} kB",
                topo.node(sw).name,
                cp.programs[&sw].tags.len(),
                st.fwdt_bytes,
                st.best_bytes,
                st.flowlet_bytes,
                st.total_kb()
            );
        }
    }

    if gate_on_verify && report.has_errors() {
        std::process::exit(1);
    }
}
