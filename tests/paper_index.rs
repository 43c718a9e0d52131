//! DESIGN.md §4 is the paper-artifact index: one row per algorithm,
//! figure and theorem of the paper (plus the extensions), each naming
//! what regenerates it. This suite parses that table and fails on any
//! name in a "Regenerated by" cell that does not exist, so renaming a
//! test or dropping a table cannot silently orphan a row.
//!
//! A cell is a `;`-separated list of clauses, each starting with its
//! kind:
//! * `test`/`tests` — a `fn` under `crates/`, `tests/` or `bench/src/`;
//! * `table`/`tables` — an `experiments` table;
//! * `` `bench/` workload `` / `` `bench/` rungs `` — names in
//!   `BENCHMARK.json` (`core.*` is a prefix);
//! * `example` — a file under `examples/`;
//! * `EXPERIMENTS.md "Heading"` — a section heading there.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One row of the index: its experiment id and "Regenerated by" cell.
struct Row {
    id: String,
    cell: String,
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The rows of §4's table.
fn index_rows() -> Vec<Row> {
    let design = read("DESIGN.md");
    let start = design
        .find("## 4. Per-experiment index")
        .expect("DESIGN.md has §4");
    let section = &design[start..];
    let end = section[3..].find("\n## ").map_or(section.len(), |k| k + 3);
    let rows: Vec<Row> = section[..end]
        .lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|---") && !l.starts_with("| Exp ID"))
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split(" | ").map(str::trim).collect();
            assert_eq!(cells.len(), 5, "§4 row does not have five cells: {l}");
            Row {
                id: cells[0].to_string(),
                cell: cells[4].to_string(),
            }
        })
        .collect();
    assert!(rows.len() >= 20, "§4 lost rows: {} left", rows.len());
    rows
}

/// The backticked names in `clause`, in order.
fn backticked(clause: &str) -> Vec<String> {
    clause
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// Every `fn` name declared in a `.rs` file under `dir`.
fn collect_fns(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_fns(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).expect("readable source");
            for piece in src.split("fn ").skip(1) {
                let name: String = piece
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    out.insert(name);
                }
            }
        }
    }
}

fn declared_fns() -> BTreeSet<String> {
    let mut fns = BTreeSet::new();
    for dir in ["crates", "tests", "bench/src"] {
        collect_fns(&root().join(dir), &mut fns);
    }
    fns
}

/// Every name of the index, by kind.
#[derive(Default)]
struct Named {
    tests: Vec<(String, String)>,
    tables: Vec<(String, String)>,
    bench: Vec<(String, String)>,
    examples: Vec<(String, String)>,
    headings: Vec<(String, String)>,
}

fn named() -> Named {
    let mut named = Named::default();
    for row in index_rows() {
        let mut tests_in_row = 0;
        for clause in row.cell.split(';').map(str::trim) {
            let names = backticked(clause);
            let tagged = |names: Vec<String>| names.into_iter().map(|n| (row.id.clone(), n));
            if clause.starts_with("test ") || clause.starts_with("tests ") {
                tests_in_row += names.len();
                named.tests.extend(tagged(names));
            } else if clause.starts_with("table ") || clause.starts_with("tables ") {
                named.tables.extend(tagged(names));
            } else if clause.starts_with("`bench/` workload ")
                || clause.starts_with("`bench/` rungs ")
            {
                named.bench.extend(tagged(names[1..].to_vec()));
            } else if clause.starts_with("example ") {
                named.examples.extend(tagged(names));
            } else if let Some(rest) = clause.strip_prefix("EXPERIMENTS.md ") {
                let heading = rest.trim_matches('"').to_string();
                named.headings.push((row.id.clone(), heading));
            } else {
                panic!("§4 row {}: clause of unknown kind: {clause:?}", row.id);
            }
        }
        assert!(tests_in_row > 0, "§4 row {} names no test", row.id);
    }
    named
}

#[test]
fn every_test_the_index_names_is_a_fn() {
    let fns = declared_fns();
    let missing: Vec<String> = named()
        .tests
        .into_iter()
        .filter(|(_, name)| !fns.contains(name))
        .map(|(id, name)| format!("{id}: `{name}`"))
        .collect();
    assert!(
        missing.is_empty(),
        "§4 names tests that do not exist: {missing:?}"
    );
}

#[test]
fn every_table_the_index_names_is_an_experiments_table() {
    let tables: BTreeSet<String> = named().tables.into_iter().map(|(_, t)| t).collect();
    assert!(!tables.is_empty(), "§4 names no experiments table");
    // The binary validates every name before it runs anything, so one
    // sure-to-be-unknown name makes the call instant and lists exactly
    // the unknown ones.
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(&tables)
        .arg("__no_such_table__")
        .output()
        .expect("experiments runs");
    assert_eq!(out.status.code(), Some(2), "an unknown name exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let unknown = stderr
        .lines()
        .find_map(|l| l.strip_prefix("unrecognized table(s): "))
        .expect("the binary lists the unrecognized names");
    assert_eq!(
        unknown, "__no_such_table__",
        "§4 names tables that `experiments` does not know"
    );
}

#[test]
fn every_bench_example_and_heading_the_index_names_exists() {
    let named = named();
    let spec = read("BENCHMARK.json");
    let experiments = read("EXPERIMENTS.md");
    let mut missing = Vec::new();
    for (id, name) in &named.bench {
        let quoted = match name.strip_suffix('*') {
            Some(prefix) => format!("\"name\":\"{prefix}"),
            None => format!("\"name\":\"{name}\""),
        };
        if !spec.contains(&quoted) {
            missing.push(format!("{id}: bench `{name}`"));
        }
    }
    for (id, name) in &named.examples {
        if !root().join("examples").join(format!("{name}.rs")).is_file() {
            missing.push(format!("{id}: example `{name}`"));
        }
    }
    for (id, heading) in &named.headings {
        if !experiments.lines().any(|l| l == format!("## {heading}")) {
            missing.push(format!("{id}: EXPERIMENTS.md \"{heading}\""));
        }
    }
    assert!(
        missing.is_empty(),
        "§4 names things that do not exist: {missing:?}"
    );
}
