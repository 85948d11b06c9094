//! The claims index is checked, not trusted: every row of EXPERIMENTS.md
//! (E1–E32 and the contracts C1–C4) names exactly one owner, `path::fn`,
//! and that owner must exist and run — a `#[test]` fn (plain or inside
//! `proptest!`) that is not `#[ignore]`d, or an experiment fn that the
//! `experiments` binary dispatches under the row's id. ci.sh runs exactly
//! the experiment owners, so a row whose owner is an experiment is gated
//! in CI by construction.

use std::fs;
use std::path::Path;

const DISPATCH: &str = "crates/aims-bench/src/bin/experiments.rs";

/// `(id, owner cell)` for every index row: a table line whose first cell
/// is `E<n>` or `C<n>`; the owner is the row's last cell.
fn rows(index: &str) -> Vec<(String, String)> {
    index
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.strip_prefix('|')?.strip_suffix('|')?.split('|').collect();
            let (id, owner) = (cells.first()?.trim(), cells.last()?.trim());
            let digits = id.get(1..).filter(|n| !n.is_empty());
            let numbered = digits.is_some_and(|n| n.bytes().all(|b| b.is_ascii_digit()));
            (numbered && (id.starts_with('E') || id.starts_with('C')))
                .then(|| (id.to_string(), owner.to_string()))
        })
        .collect()
}

/// Whether `fn name` is defined in `source`, and if so, the attribute
/// lines directly above its definition.
fn attributes_of<'a>(source: &'a str, name: &str) -> Option<Vec<&'a str>> {
    let lines: Vec<&str> = source.lines().collect();
    let def = lines.iter().position(|line| {
        let rest = line.trim_start().strip_prefix("pub ").unwrap_or(line.trim_start());
        rest.strip_prefix("fn ")
            .and_then(|r| r.strip_prefix(name))
            .is_some_and(|r| r.starts_with('(') || r.starts_with('<'))
    })?;
    let above = lines[..def].iter().rev().map(|l| l.trim());
    Some(above.take_while(|l| l.starts_with("#[") || l.starts_with("//")).collect())
}

/// Every problem with `index`, resolved against the tree at `root`: one
/// message per offending row, each starting with the row's id.
fn problems(index: &str, root: &Path) -> Vec<String> {
    let dispatch = fs::read_to_string(root.join(DISPATCH)).expect("the experiments binary");
    let rows = rows(index);
    let mut out = Vec::new();
    for (prefix, count) in [('E', 32), ('C', 4)] {
        for n in 1..=count {
            let id = format!("{prefix}{n}");
            let found = rows.iter().filter(|(row, _)| *row == id).count();
            if found != 1 {
                out.push(format!("{id}: the index has {found} rows for it, not one"));
            }
        }
    }
    for (id, cell) in &rows {
        let owner = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`'));
        let Some((path, name)) =
            owner.filter(|o| !o.contains('`')).and_then(|o| o.rsplit_once("::"))
        else {
            out.push(format!("{id}: owner cell `{cell}` is not one `path::fn`"));
            continue;
        };
        let Ok(source) = fs::read_to_string(root.join(path)) else {
            out.push(format!("{id}: owner file {path} does not exist"));
            continue;
        };
        let Some(attrs) = attributes_of(&source, name) else {
            out.push(format!("{id}: {path} defines no fn {name}"));
            continue;
        };
        if attrs.contains(&"#[test]") {
            if attrs.iter().any(|a| a.starts_with("#[ignore")) {
                out.push(format!("{id}: test owner {path}::{name} is #[ignore]d"));
            }
            continue;
        }
        let module =
            path.strip_prefix("crates/aims-bench/src/").and_then(|m| m.strip_suffix(".rs"));
        let entry = format!("(\"{}\", {}::{name})", id.to_lowercase(), module.unwrap_or(path));
        if module.is_none() || !dispatch.contains(&entry) {
            out.push(format!(
                "{id}: owner {path}::{name} is neither a #[test] fn nor dispatched by the \
                 experiments binary as {}",
                id.to_lowercase()
            ));
        }
    }
    out
}

#[test]
fn every_claim_and_contract_has_one_live_owner() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let index = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let problems = problems(&index, root);
    assert!(problems.is_empty(), "EXPERIMENTS.md owners:\n{}", problems.join("\n"));
}

#[test]
fn a_dangling_owner_is_rejected_by_row() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let index = "\
| E1 | missing fn | `tests/claims_index.rs::no_such_test` |
| E2 | missing file | `tests/no_such_file.rs::a_dangling_owner_is_rejected_by_row` |
| E3 | dispatched as e6, not e3 | `crates/aims-bench/src/exp_storage.rs::e6_progressive_retrieval` |
| E4 | a helper, not a test | `tests/claims_index.rs::problems` |
| E5 | two owners | `tests/claims_index.rs::rows` `tests/claims_index.rs::problems` |
| E6 | a live owner | `tests/claims_index.rs::a_dangling_owner_is_rejected_by_row` |
";
    let problems = problems(index, root);
    for (id, says) in [
        ("E1", "defines no fn no_such_test"),
        ("E2", "tests/no_such_file.rs does not exist"),
        ("E3", "dispatched by the experiments binary as e3"),
        ("E4", "neither a #[test] fn"),
        ("E5", "is not one `path::fn`"),
        ("E7", "has 0 rows"),
        ("C1", "has 0 rows"),
    ] {
        let prefix = format!("{id}: ");
        assert!(
            problems.iter().any(|p| p.starts_with(&prefix) && p.contains(says)),
            "no `{id}` problem saying `{says}` in {problems:#?}"
        );
    }
    assert!(!problems.iter().any(|p| p.starts_with("E6: ")), "{problems:#?}");
}
