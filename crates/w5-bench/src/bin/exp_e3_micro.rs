//! E3 — DIFC microbenchmarks (paper §3.1 mechanism cost).
//!
//! The cost of the primitive operations everything else pays for: tag
//! creation, label set algebra at growing label sizes, flow checks,
//! privileged flow checks, and wire encoding. This binary prints the
//! summary table; `bench_difc_json` pairs the interned and naive label
//! representations against a committed baseline.

use std::sync::Arc;
use std::time::Duration;
use w5_bench::harness;
use w5_difc::{can_flow, can_flow_with, wire, CapSet, Label, LabelPair, Tag, TagKind, TagRegistry};
use w5_sim::Table;

fn label(n: usize, offset: u64) -> Label {
    Label::from_iter((0..n as u64).map(|i| Tag::from_raw(offset + i * 2 + 1)))
}

/// Time `f` and add its row to `table`.
fn row<R>(table: &mut Table, op: &str, size: &str, f: impl FnMut() -> R) {
    let t = harness::time(Duration::from_millis(200), 1, f);
    table.row([op.to_string(), size.to_string(), t.rate(1), format!("{:.0}", t.ns_per_op())]);
}

fn main() {
    w5_bench::banner("E3", "DIFC primitive costs", "§3.1");
    let mut table = Table::new(["operation", "label size", "rate", "ns/op"]);

    // Tag creation.
    let reg = Arc::new(TagRegistry::new());
    row(&mut table, "create_tag", "-", || reg.create_tag(TagKind::ExportProtect, "u"));

    for &n in &[1usize, 4, 16, 64, 256, 1024, 4096] {
        let a = label(n, 1);
        let b = label(n, 3); // interleaved, mostly disjoint
        let sup = a.union(&b);
        let size = n.to_string();
        row(&mut table, "subset (hit)", &size, || a.is_subset(&sup));
        row(&mut table, "subset (miss)", &size, || a.is_subset(&b));
        row(&mut table, "union", &size, || a.union(&b));
        row(&mut table, "flow check (raw)", &size, || can_flow(&a, &sup));
    }

    // Privileged flow with a capability set.
    let a = label(16, 1);
    let caps = CapSet::from_caps(a.iter().map(w5_difc::Capability::minus));
    let empty = CapSet::empty();
    row(&mut table, "flow check (privileged)", "16", || {
        can_flow_with(&a, &caps, &Label::empty(), &empty)
    });

    // Wire encode/decode.
    let pair = LabelPair::new(label(16, 1), label(2, 1001));
    let bytes = wire::pair_to_bytes(&pair);
    row(&mut table, "wire encode", "16+2", || wire::pair_to_bytes(&pair));
    row(&mut table, "wire decode", "16+2", || wire::pair_from_bytes(&bytes));

    println!("{table}");
    println!("shape check: small-label checks are tens of ns (well under request costs);");
    println!("             set ops scale linearly with label size.");
}
