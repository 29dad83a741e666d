//! One function per table/figure of the paper's evaluation (§VI), plus
//! the DESIGN.md ablations. Each emits an aligned table to stdout and a
//! CSV under the results directory.
//!
//! Every method — no-index scan, PH-tree, H2-ALSH, bulk-loaded R-tree
//! and the cracking index — goes through the single `run_method`
//! driver as a `Box<dyn QueryEngine>` over a shared [`VkgSnapshot`];
//! the per-method loops differ only in how the engine is built and
//! which query stream it sees.

use std::path::Path;
use std::time::Duration;

use vkg::obs::Stopwatch;

use vkg::prelude::*;

use crate::report::{fmt_duration, Table};
use crate::setup::{self, Prepared, Scale};
use crate::workload::{self, Query};

/// Queries measured individually over the initial sequence (the paper
/// reports the 1st, 6th, 11th and 16th).
const PROBE_QUERIES: [usize; 4] = [1, 6, 11, 16];

fn steady_queries(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 100,
        Scale::Standard => 1_000,
        Scale::Large => 10_000,
    }
}

fn dim(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 24,
        _ => 48,
    }
}

/// Runs the experiment with the given id. Returns false if the id is
/// unknown.
pub fn run(exp: &str, scale: Scale, out: &Path) -> bool {
    match exp {
        "table1" => table1(scale, out),
        "fig3" | "fig4" => fig3_fig4(scale, out),
        "fig5" | "fig6" => fig5_fig6(scale, out),
        "fig7" | "fig8" => fig7_fig8(scale, out),
        "fig9" => fig9(scale, out),
        "fig10" => fig10_fig11(scale, out, "movie", "fig10"),
        "fig11" => fig10_fig11(scale, out, "amazon", "fig11"),
        "fig12" => aggregate_sweep(scale, out, "fig12", "freebase", AggregateKind::Count, None),
        "fig13" => aggregate_sweep(
            scale,
            out,
            "fig13",
            "movie",
            AggregateKind::Avg,
            Some("year"),
        ),
        "fig14" => aggregate_sweep(
            scale,
            out,
            "fig14",
            "amazon",
            AggregateKind::Avg,
            Some("quality"),
        ),
        "fig15" => aggregate_sweep(
            scale,
            out,
            "fig15",
            "freebase",
            AggregateKind::Max,
            Some("popularity"),
        ),
        "fig16" => aggregate_sweep(
            scale,
            out,
            "fig16",
            "movie",
            AggregateKind::Min,
            Some("year"),
        ),
        "abl_alpha" => ablation_alpha(scale, out),
        "abl_eps" => ablation_epsilon(scale, out),
        "abl_beta" => ablation_beta(scale, out),
        "abl_cost" => ablation_cost(scale, out),
        _ => return false,
    }
    true
}

/// All experiment ids, in paper order.
pub const ALL: &[&str] = &[
    "table1",
    "fig3",
    "fig5",
    "fig7",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "abl_alpha",
    "abl_eps",
    "abl_beta",
    "abl_cost",
];

// ---------------------------------------------------------------------
// Table I: dataset statistics.
// ---------------------------------------------------------------------

fn table1(scale: Scale, out: &Path) {
    let mut t = Table::new(
        "Table I: statistics of the (synthetic stand-in) datasets",
        &["dataset", "entities", "relationship types", "edges"],
    );
    let d = dim(scale);
    for p in [
        setup::freebase(scale, d),
        setup::movie(scale, d),
        setup::amazon(scale, d),
    ] {
        let s = p.dataset.graph.stats();
        t.row(vec![
            p.dataset.name.clone(),
            s.entities.to_string(),
            s.relation_types.to_string(),
            s.edges.to_string(),
        ]);
    }
    t.emit(out, "table1");
}

// ---------------------------------------------------------------------
// The generic per-method driver.
// ---------------------------------------------------------------------

struct MethodRun {
    name: String,
    build: Duration,
    probes: Vec<Duration>,
    steady_avg: Duration,
    precision: f64,
}

/// Runs `queries` against the engine produced by `build`, measuring the
/// build (reported only when `timed_build` — online methods pay no
/// offline phase), the probe queries, the steady-state average and
/// precision@K against the engine's own reference oracle.
fn run_method(
    name: &str,
    snap: &VkgSnapshot,
    queries: &[Query],
    k: usize,
    scale: Scale,
    timed_build: bool,
    build: impl FnOnce() -> Box<dyn QueryEngine>,
) -> MethodRun {
    let t0 = Stopwatch::start();
    let mut engine = build();
    let build = if timed_build {
        t0.elapsed()
    } else {
        Duration::ZERO
    };

    let steady_n = steady_queries(scale);
    let mut probes = Vec::new();
    let mut steady = Duration::ZERO;
    let mut precision_sum = 0.0;
    let mut precision_n = 0usize;
    for (i, q) in queries.iter().enumerate() {
        let t = Stopwatch::start();
        let answer = workload::run(engine.as_mut(), snap, q, k);
        let dt = t.elapsed();
        if PROBE_QUERIES.contains(&(i + 1)) {
            probes.push(dt);
        }
        if i >= 20 && i < 20 + steady_n {
            steady += dt;
        }
        if i % 7 == 0 && precision_n < 30 {
            precision_sum += workload::precision_vs_reference(engine.as_ref(), snap, q, k, &answer);
            precision_n += 1;
        }
    }
    MethodRun {
        name: name.to_owned(),
        build,
        probes,
        steady_avg: steady / steady_n.max(1) as u32,
        precision: precision_sum / precision_n.max(1) as f64,
    }
}

fn time_table(title: &str, runs: &[MethodRun]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "method",
            "index build",
            "q1",
            "q6",
            "q11",
            "q16",
            "steady avg",
        ],
    );
    for r in runs {
        t.row(vec![
            r.name.clone(),
            fmt_duration(r.build),
            fmt_duration(r.probes[0]),
            fmt_duration(r.probes[1]),
            fmt_duration(r.probes[2]),
            fmt_duration(r.probes[3]),
            fmt_duration(r.steady_avg),
        ]);
    }
    t
}

fn precision_table(title: &str, column: &str, runs: &[MethodRun]) -> Table {
    let mut t = Table::new(title, &["method", column]);
    for r in runs {
        t.row(vec![r.name.clone(), format!("{:.4}", r.precision)]);
    }
    t
}

// ---------------------------------------------------------------------
// H2-ALSH's native single-relation workload: user → top-k items by
// inner product over "likes", with recall measured against its own
// exact-MIPS no-index case (as the paper does: "the H2-ALSH numbers are
// based on … comparing to its no-index case").
// ---------------------------------------------------------------------

fn run_h2alsh(p: &Prepared, snap: &VkgSnapshot, k: usize, scale: Scale, label: &str) -> MethodRun {
    let graph = &p.dataset.graph;
    // Item side: everything that is the tail of a "likes" edge type —
    // movies or products, recognizable by name prefix.
    let items: Vec<u32> = (0..graph.num_entities() as u32)
        .filter(|&e| {
            graph
                .entity_name(EntityId(e))
                .is_some_and(|n| n.starts_with("movie_") || n.starts_with("product_"))
        })
        .collect();
    let users: Vec<EntityId> = (0..graph.num_entities() as u32)
        .map(EntityId)
        .filter(|&e| graph.entity_name(e).is_some_and(|n| n.starts_with("user_")))
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "harness precondition: callers pass movie/amazon datasets, which define \"likes\""
    )]
    let likes = graph
        .relation_id("likes")
        .expect("movie/amazon datasets define a likes relation");
    let queries: Vec<Query> = (0..steady_queries(scale) + 20)
        .map(|i| Query {
            entity: users[i % users.len()],
            relation: likes,
            direction: Direction::Tails,
        })
        .collect();
    run_method(
        label,
        snap,
        &queries,
        k,
        scale,
        true,
        || match H2AlshEngine::build(snap, items, H2AlshConfig::default()) {
            Ok(e) => Box::new(e),
            #[expect(
                clippy::panic,
                reason = "harness invariant: the item filter above yields a non-empty in-range corpus"
            )]
            Err(e) => panic!("item corpus is non-empty and in range: {e}"),
        },
    )
}

// ---------------------------------------------------------------------
// Figures 3–4: Freebase — method vs elapsed time, and precision@K.
// ---------------------------------------------------------------------

fn fig3_fig4(scale: Scale, out: &Path) {
    let p = setup::freebase(scale, dim(scale));
    let snap = p.snapshot(setup::bench_config());
    let queries = workload::generate(&p.dataset.graph, steady_queries(scale) + 20, 0xF163);
    let k = 10;

    let mut runs: Vec<MethodRun> = vec![
        run_method("no index", &snap, &queries, k, scale, false, || {
            Box::new(LinearScanEngine::new())
        }),
        run_method("PH-tree", &snap, &queries, k, scale, true, || {
            Box::new(PhTreeEngine::build(&snap))
        }),
        run_method("bulk-load R-tree", &snap, &queries, k, scale, true, || {
            Box::new(IndexState::bulk_loaded(&snap))
        }),
        run_method(
            "cracking (greedy)",
            &snap,
            &queries,
            k,
            scale,
            false,
            || Box::new(IndexState::cracking(&snap)),
        ),
    ];
    for choices in [2usize, 4] {
        let cfg = VkgConfig {
            split_strategy: SplitStrategy::TopK { choices },
            ..setup::bench_config()
        };
        let snap_c = p.snapshot(cfg);
        runs.push(run_method(
            &format!("{choices}-choice split"),
            &snap_c,
            &queries,
            k,
            scale,
            false,
            || Box::new(IndexState::cracking(&snap_c)),
        ));
    }

    time_table("Fig 3: method vs elapsed time (freebase-like)", &runs)
        .emit(out, "fig03_freebase_time");
    precision_table(
        "Fig 4: precision@K vs the no-index method (freebase-like)",
        "precision@10",
        &runs,
    )
    .emit(out, "fig04_freebase_accuracy");
}

// ---------------------------------------------------------------------
// Figures 5–6: Movie — α = 3 vs 6, plus H2-ALSH on the single "likes"
// relation.
// ---------------------------------------------------------------------

fn fig5_fig6(scale: Scale, out: &Path) {
    let p = setup::movie(scale, dim(scale));
    let queries = workload::generate(&p.dataset.graph, steady_queries(scale) + 20, 0xF165);
    let k = 10;

    let mut runs = Vec::new();
    for alpha in [3usize, 6] {
        let cfg = VkgConfig {
            alpha,
            ..setup::bench_config()
        };
        let snap = p.snapshot(cfg);
        runs.push(run_method(
            &format!("cracking α={alpha}"),
            &snap,
            &queries,
            k,
            scale,
            false,
            || Box::new(IndexState::cracking(&snap)),
        ));
        runs.push(run_method(
            &format!("bulk-load α={alpha}"),
            &snap,
            &queries,
            k,
            scale,
            true,
            || Box::new(IndexState::bulk_loaded(&snap)),
        ));
    }
    let snap = p.snapshot(setup::bench_config());
    runs.push(run_h2alsh(&p, &snap, k, scale, "H2-ALSH (likes only)"));

    time_table(
        "Fig 5: method vs elapsed time (movie-like), α = 3 vs 6, with H2-ALSH",
        &runs,
    )
    .emit(out, "fig05_movie_time");
    precision_table("Fig 6: precision@K (movie-like)", "precision@10", &runs)
        .emit(out, "fig06_movie_accuracy");
}

// ---------------------------------------------------------------------
// Figures 7–8: Amazon — H2-ALSH at k = 2 and 10, scaling vs Fig. 5.
// ---------------------------------------------------------------------

fn fig7_fig8(scale: Scale, out: &Path) {
    let p = setup::amazon(scale, dim(scale));
    let snap = p.snapshot(setup::bench_config());
    let queries = workload::generate(&p.dataset.graph, steady_queries(scale) + 20, 0xF167);

    let mut runs = Vec::new();
    for k in [2usize, 10] {
        runs.push(run_method(
            &format!("cracking: k={k}"),
            &snap,
            &queries,
            k,
            scale,
            false,
            || Box::new(IndexState::cracking(&snap)),
        ));
        runs.push(run_h2alsh(&p, &snap, k, scale, &format!("H2-ALSH: k={k}")));
    }
    runs.push(run_method(
        "bulk-load R-tree",
        &snap,
        &queries,
        10,
        scale,
        true,
        || Box::new(IndexState::bulk_loaded(&snap)),
    ));

    time_table(
        "Fig 7: method vs elapsed time (amazon-like), k = 2 vs 10",
        &runs,
    )
    .emit(out, "fig07_amazon_time");
    precision_table("Fig 8: precision@K (amazon-like)", "precision@K", &runs)
        .emit(out, "fig08_amazon_accuracy");
}

// ---------------------------------------------------------------------
// Figure 9: node counts, cracking vs bulk (freebase-like).
// Figures 10–11: index sizes (movie / amazon).
// ---------------------------------------------------------------------

fn fig9(scale: Scale, out: &Path) {
    let p = setup::freebase(scale, dim(scale));
    let snap = p.snapshot(setup::bench_config());
    let mut cracked = IndexState::cracking(&snap);
    let bulk = IndexState::bulk_loaded(&snap);
    let queries = workload::generate(&p.dataset.graph, 50, 0xF169);

    let mut t = Table::new(
        "Fig 9: #index nodes after N initial queries (freebase-like)",
        &["queries", "cracking nodes", "bulk-loaded nodes"],
    );
    t.row(vec![
        "0".into(),
        cracked.stats().nodes.to_string(),
        bulk.stats().nodes.to_string(),
    ]);
    for (i, q) in queries.iter().enumerate() {
        let _ = workload::run(&mut cracked, &snap, q, 10);
        let n = i + 1;
        if [1usize, 5, 10, 20, 50].contains(&n) {
            t.row(vec![
                n.to_string(),
                cracked.stats().nodes.to_string(),
                bulk.stats().nodes.to_string(),
            ]);
        }
    }
    t.emit(out, "fig09_freebase_nodes");
}

fn fig10_fig11(scale: Scale, out: &Path, which: &str, file_tag: &str) {
    let p = match which {
        "movie" => setup::movie(scale, dim(scale)),
        _ => setup::amazon(scale, dim(scale)),
    };
    let snap = p.snapshot(setup::bench_config());
    let mut cracked = IndexState::cracking(&snap);
    let bulk = IndexState::bulk_loaded(&snap);
    let queries = workload::generate(&p.dataset.graph, 50, 0xF1610);

    let mut t = Table::new(
        &format!(
            "Fig {}: index size in KiB after N initial queries ({}-like)",
            if which == "movie" { "10" } else { "11" },
            which
        ),
        &["queries", "cracking KiB", "bulk-loaded KiB"],
    );
    t.row(vec![
        "0".into(),
        (cracked.stats().bytes / 1024).to_string(),
        (bulk.stats().bytes / 1024).to_string(),
    ]);
    for (i, q) in queries.iter().enumerate() {
        let _ = workload::run(&mut cracked, &snap, q, 10);
        let n = i + 1;
        if [1usize, 5, 10, 20, 50].contains(&n) {
            t.row(vec![
                n.to_string(),
                (cracked.stats().bytes / 1024).to_string(),
                (bulk.stats().bytes / 1024).to_string(),
            ]);
        }
    }
    t.emit(out, &format!("{file_tag}_{which}_index_size"));
}

// ---------------------------------------------------------------------
// Figures 12–16: aggregate queries, sample-size (time) vs accuracy.
// ---------------------------------------------------------------------

fn aggregate_sweep(
    scale: Scale,
    out: &Path,
    fig: &str,
    which: &str,
    kind: AggregateKind,
    attribute: Option<&str>,
) {
    let p = match which {
        "freebase" => setup::freebase(scale, dim(scale)),
        "movie" => setup::movie(scale, dim(scale)),
        _ => setup::amazon(scale, dim(scale)),
    };
    let snap = p.snapshot(setup::bench_config());
    let mut engine = IndexState::cracking(&snap);
    // Aggregate queries want attribute-bearing targets; for movie/amazon
    // that means tails of "likes" from users — generate accordingly.
    let queries: Vec<Query> = if which == "freebase" {
        workload::generate(&p.dataset.graph, 200, 0xA612)
            .into_iter()
            .filter(|q| q.direction == Direction::Tails)
            .take(8)
            .collect()
    } else {
        #[expect(
            clippy::unwrap_used,
            reason = "harness precondition: the non-freebase branch only sees movie/amazon datasets"
        )]
        let likes = p.dataset.graph.relation_id("likes").unwrap();
        p.dataset
            .graph
            .triples()
            .iter()
            .filter(|t| t.relation == likes)
            .step_by(37)
            .take(8)
            .map(|t| Query {
                entity: t.head,
                relation: t.relation,
                direction: Direction::Tails,
            })
            .collect()
    };

    // Both the measured queries and the ground truth use the §VI
    // threshold 0.01; the only difference is how many points are
    // accessed exactly (unaccessed ones get element-approximated
    // probabilities), so the accuracy curve isolates sampling error.
    let base_spec = |a: Option<usize>| {
        let mut s = match attribute {
            None => AggregateSpec::count(0.01),
            Some(attr) => AggregateSpec::of(kind, attr, 0.01),
        };
        s.sample_size = a;
        s
    };
    let truth_spec = base_spec(None);

    let kind_name = match kind {
        AggregateKind::Count => "COUNT",
        AggregateKind::Sum => "SUM",
        AggregateKind::Avg => "AVG",
        AggregateKind::Max => "MAX",
        AggregateKind::Min => "MIN",
    };
    let mut t = Table::new(
        &format!(
            "Fig {}: {kind_name}{} queries ({which}-like) — sample size vs time and accuracy",
            fig.trim_start_matches("fig"),
            attribute.map(|a| format!("({a})")).unwrap_or_default(),
        ),
        &["sample a", "mean time", "mean accuracy"],
    );

    for a in [1usize, 2, 5, 10, 20, 50, 100, usize::MAX] {
        let mut time = Duration::ZERO;
        let mut acc_sum = 0.0;
        let mut n = 0usize;
        for q in &queries {
            let truth =
                match engine.aggregate(&snap, q.entity, q.relation, q.direction, &truth_spec) {
                    Ok(r) if r.ball_size > 0 && r.estimate.abs() > 1e-9 => r,
                    _ => continue,
                };
            let spec = base_spec(if a == usize::MAX { None } else { Some(a) });
            let t0 = Stopwatch::start();
            let est = match engine.aggregate(&snap, q.entity, q.relation, q.direction, &spec) {
                Ok(r) => r,
                Err(_) => continue,
            };
            time += t0.elapsed();
            let accuracy =
                (1.0 - (est.estimate - truth.estimate).abs() / truth.estimate.abs()).max(0.0);
            acc_sum += accuracy;
            n += 1;
        }
        if n == 0 {
            continue;
        }
        t.row(vec![
            if a == usize::MAX {
                "all".into()
            } else {
                a.to_string()
            },
            fmt_duration(time / n as u32),
            format!("{:.4}", acc_sum / n as f64),
        ]);
    }
    t.emit(out, &format!("{fig}_{which}_{}", kind_name.to_lowercase()));
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5): α, ε, β.
// ---------------------------------------------------------------------

fn ablation_alpha(scale: Scale, out: &Path) {
    let p = setup::movie(scale, dim(scale));
    let queries = workload::generate(&p.dataset.graph, 120, 0xAB01);
    let mut t = Table::new(
        "Ablation: S₂ dimensionality α — accuracy vs per-query time",
        &["alpha", "steady avg", "precision@10", "index KiB"],
    );
    for alpha in [2usize, 3, 4, 6, 8] {
        let cfg = VkgConfig {
            alpha,
            ..setup::bench_config()
        };
        let snap = p.snapshot(cfg);
        let mut engine = IndexState::cracking(&snap);
        let mut time = Duration::ZERO;
        let mut prec = 0.0;
        let mut n_prec = 0usize;
        for (i, q) in queries.iter().enumerate() {
            let t0 = Stopwatch::start();
            let answer = workload::run(&mut engine, &snap, q, 10);
            if i >= 20 {
                time += t0.elapsed();
            }
            if i % 5 == 0 {
                prec += workload::precision_vs_reference(&engine, &snap, q, 10, &answer);
                n_prec += 1;
            }
        }
        t.row(vec![
            alpha.to_string(),
            fmt_duration(time / (queries.len() - 20).max(1) as u32),
            format!("{:.4}", prec / n_prec.max(1) as f64),
            (engine.stats().bytes / 1024).to_string(),
        ]);
    }
    t.emit(out, "abl_alpha");
}

fn ablation_epsilon(scale: Scale, out: &Path) {
    let p = setup::movie(scale, dim(scale));
    let queries = workload::generate(&p.dataset.graph, 120, 0xAB02);
    let mut t = Table::new(
        "Ablation: ball inflation ε of Algorithm 3 — recall vs work",
        &["epsilon", "steady avg", "precision@10", "mean S1 evals"],
    );
    for eps in [0.5f64, 1.0, 2.0, 3.0, 5.0] {
        let cfg = VkgConfig {
            epsilon: eps,
            ..setup::bench_config()
        };
        let snap = p.snapshot(cfg);
        let mut engine = IndexState::cracking(&snap);
        let mut time = Duration::ZERO;
        let mut prec = 0.0;
        let mut n_prec = 0usize;
        let mut evals = 0u64;
        for (i, q) in queries.iter().enumerate() {
            let t0 = Stopwatch::start();
            let answer = workload::run(&mut engine, &snap, q, 10);
            if i >= 20 {
                time += t0.elapsed();
            }
            evals += answer.s1_evals;
            if i % 5 == 0 {
                prec += workload::precision_vs_reference(&engine, &snap, q, 10, &answer);
                n_prec += 1;
            }
        }
        t.row(vec![
            format!("{eps}"),
            fmt_duration(time / (queries.len() - 20).max(1) as u32),
            format!("{:.4}", prec / n_prec.max(1) as f64),
            (evals / queries.len() as u64).to_string(),
        ]);
    }
    t.emit(out, "abl_eps");
}

fn ablation_beta(scale: Scale, out: &Path) {
    let p = setup::freebase(scale, dim(scale));
    let queries = workload::generate(&p.dataset.graph, 120, 0xAB03);
    let mut t = Table::new(
        "Ablation: overlap-cost base β — split quality vs steady time",
        &["beta", "steady avg", "splits", "nodes"],
    );
    // β reweights overlap costs *across tree levels*, which only matters
    // when whole change candidates are compared — i.e. under the
    // Algorithm 2 search (a greedy run ranks candidates within one node,
    // where β^h is a common factor).
    for beta in [1.0f64, 1.5, 2.0, 4.0] {
        let cfg = VkgConfig {
            beta,
            split_strategy: SplitStrategy::TopK { choices: 3 },
            ..setup::bench_config()
        };
        let snap = p.snapshot(cfg);
        let mut engine = IndexState::cracking(&snap);
        let mut time = Duration::ZERO;
        for (i, q) in queries.iter().enumerate() {
            let t0 = Stopwatch::start();
            let _ = workload::run(&mut engine, &snap, q, 10);
            if i >= 20 {
                time += t0.elapsed();
            }
        }
        let s = engine.stats();
        t.row(vec![
            format!("{beta}"),
            fmt_duration(time / (queries.len() - 20).max(1) as u32),
            s.counters.splits_performed.to_string(),
            s.nodes.to_string(),
        ]);
    }
    t.emit(out, "abl_beta");
}

fn ablation_cost(scale: Scale, out: &Path) {
    // §IV-B1's claim: ranking splits by (c_Q, c_O) instead of overlap
    // alone buys slightly better steady-state query time, because splits
    // keep each workload region's points in fewer pages.
    let p = setup::freebase(scale, dim(scale));
    let queries = workload::generate(&p.dataset.graph, 220, 0xAB04);
    let mut t = Table::new(
        "Ablation: two-component (c_Q, c_O) split cost vs overlap-only",
        &["cost model", "steady avg", "mean points examined", "nodes"],
    );
    for (name, aware) in [("two-component (paper)", true), ("overlap-only", false)] {
        let cfg = VkgConfig {
            query_aware_cost: aware,
            ..setup::bench_config()
        };
        let snap = p.snapshot(cfg);
        let mut engine = IndexState::cracking(&snap);
        let mut time = Duration::ZERO;
        let mut examined = 0u64;
        for (i, q) in queries.iter().enumerate() {
            engine.reset_access_counters();
            let t0 = Stopwatch::start();
            let _ = workload::run(&mut engine, &snap, q, 10);
            if i >= 20 {
                time += t0.elapsed();
                examined += engine.stats().counters.points_examined;
            }
        }
        let steady_n = (queries.len() - 20) as u64;
        t.row(vec![
            name.into(),
            fmt_duration(time / steady_n as u32),
            (examined / steady_n).to_string(),
            engine.stats().nodes.to_string(),
        ]);
    }
    t.emit(out, "abl_cost");
}
