//! Correctness checks, run outside every timed region. Each returns a
//! description of the first mismatch.

use pebble_core::{
    backtrace, canonical_provenance, Backtrace, CapturedRun, ProvTree, SourceProvenance,
    TreePattern,
};
use pebble_dataflow::{Context, Program, Row, RunOutput};
use pebble_nested::Path;
use pebble_serve::ProvStore;

pub type Checked = Result<(), String>;

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Checked {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Capture is transparent: the captured run's rows (ids and items) and
/// per-operator counts equal the plain run's.
pub fn capture_transparent(name: &str, plain: &RunOutput, run: &CapturedRun) -> Checked {
    ensure(plain.rows == run.output.rows, || {
        format!("{name}: captured rows differ from plain rows")
    })?;
    ensure(plain.op_counts == run.output.op_counts, || {
        format!("{name}: captured operator counts differ from plain")
    })
}

/// The cold-opened store holds exactly the run's operator tables, rows and
/// schemas.
pub fn store_matches(name: &str, run: &CapturedRun, store: &ProvStore) -> Checked {
    ensure(store.ops() == run.ops.as_slice(), || {
        format!("{name}: store operator tables differ from the run")
    })?;
    ensure(store.rows() == run.output.rows.as_slice(), || {
        format!("{name}: store rows differ from the run")
    })?;
    ensure(
        store.op_schemas() == run.output.op_schemas.as_slice(),
        || format!("{name}: store schemas differ from the run"),
    )
}

/// Two answers to the same backtrace are equal.
pub fn same_answer(
    name: &str,
    what: &str,
    got: &[SourceProvenance],
    want: &[SourceProvenance],
) -> Checked {
    ensure(got == want, || {
        format!("{name}: {what} differs from the in-memory backtrace")
    })
}

/// A budgeted run equals the same scenario without a budget: rows, ids,
/// operator counts and every association table.
pub fn budget_transparent(name: &str, budgeted: &CapturedRun, free: &CapturedRun) -> Checked {
    ensure(budgeted.output.rows == free.output.rows, || {
        format!("{name}: budgeted rows differ from the unbudgeted run")
    })?;
    ensure(budgeted.output.op_counts == free.output.op_counts, || {
        format!("{name}: budgeted operator counts differ from the unbudgeted run")
    })?;
    for (a, b) in budgeted.ops.iter().zip(&free.ops) {
        ensure(a.assoc == b.assoc, || {
            format!("{name}: budgeted association table of op {} differs", a.oid)
        })?;
    }
    ensure(budgeted.ops.len() == free.ops.len(), || {
        format!("{name}: budgeted run has a different operator count")
    })
}

/// Whole-item backtrace question for result row `idx`.
pub fn whole_item(rows: &[Row], idx: usize) -> Backtrace {
    let row = &rows[idx];
    let paths = Path::path_set(&row.item);
    Backtrace {
        entries: vec![(row.id, ProvTree::from_paths(paths.iter()))],
    }
}

/// The run agrees with the Tab. 5 reference interpreter modulo
/// identifiers: the same items in the same order, and the same canonical
/// provenance for the scenario's own query and for whole-item backtraces
/// of every `stride`-th row.
pub fn reference(
    name: &str,
    program: &Program,
    ctx: &Context,
    run: &CapturedRun,
    query: &TreePattern,
    stride: usize,
) -> Checked {
    let reference = pebble_oracle::run_reference(program, ctx)
        .map_err(|e| format!("{name}: reference interpreter failed: {e}"))?;
    let (got, want) = (&run.output.rows, &reference.output.rows);
    ensure(got.len() == want.len(), || {
        format!("{name}: {} rows, reference has {}", got.len(), want.len())
    })?;
    if let Some(i) = (0..got.len()).find(|&i| got[i].item != want[i].item) {
        return Err(format!("{name}: row {i} differs from the reference"));
    }
    ensure(run.output.op_counts == reference.output.op_counts, || {
        format!("{name}: operator counts differ from the reference")
    })?;
    let canonical = |r: &CapturedRun, b: Backtrace| {
        backtrace(r, b)
            .map(|s| canonical_provenance(&s))
            .map_err(|e| format!("{name}: backtrace failed: {e}"))
    };
    ensure(
        canonical(run, query.match_rows(got))? == canonical(&reference, query.match_rows(want))?,
        || format!("{name}: query provenance differs from the reference"),
    )?;
    for i in (0..got.len()).step_by(stride.max(1)) {
        ensure(
            canonical(run, whole_item(got, i))? == canonical(&reference, whole_item(want, i))?,
            || format!("{name}: provenance of row {i} differs from the reference"),
        )?;
    }
    Ok(())
}
