//! E3 — DIFC microbenchmarks (paper §3.1 mechanism cost).
//!
//! The cost of the primitive operations everything else pays for: tag
//! creation, label set algebra at growing label sizes, flow checks,
//! privileged flow checks, and wire encoding. This binary prints the
//! summary table; `bench_difc_json` pairs the interned and naive label
//! representations against a committed baseline.

use std::sync::Arc;
use std::time::Duration;
use w5_difc::{can_flow, can_flow_with, wire, CapSet, Label, LabelPair, Tag, TagKind, TagRegistry};
use w5_sim::Table;

fn label(n: usize, offset: u64) -> Label {
    Label::from_iter((0..n as u64).map(|i| Tag::from_raw(offset + i * 2 + 1)))
}

fn main() {
    w5_bench::banner("E3", "DIFC primitive costs", "§3.1");
    let budget = Duration::from_millis(200);

    let mut table = Table::new(["operation", "label size", "rate", "ns/op"]);

    // Tag creation.
    {
        let reg = Arc::new(TagRegistry::new());
        let (iters, elapsed) = w5_bench::throughput(budget, || {
            let _ = std::hint::black_box(reg.create_tag(TagKind::ExportProtect, "u"));
        });
        table.row([
            "create_tag".to_string(),
            "-".to_string(),
            w5_bench::ops_per_sec(iters, elapsed),
            format!("{:.0}", elapsed.as_nanos() as f64 / iters as f64),
        ]);
    }

    for &n in &[1usize, 4, 16, 64, 256, 1024, 4096] {
        let a = label(n, 1);
        let b = label(n, 3); // interleaved, mostly disjoint
        let sup = a.union(&b);

        type Op<'a> = (&'a str, Box<dyn FnMut()>);
        let ops: [Op; 4] = [
            ("subset (hit)", {
                let a = a.clone();
                let sup = sup.clone();
                Box::new(move || {
                    std::hint::black_box(a.is_subset(&sup));
                })
            }),
            ("subset (miss)", {
                let a = a.clone();
                let b = b.clone();
                Box::new(move || {
                    std::hint::black_box(a.is_subset(&b));
                })
            }),
            ("union", {
                let a = a.clone();
                let b = b.clone();
                Box::new(move || {
                    std::hint::black_box(a.union(&b));
                })
            }),
            ("flow check (raw)", {
                let a = a.clone();
                let sup = sup.clone();
                Box::new(move || {
                    std::hint::black_box(can_flow(&a, &sup));
                })
            }),
        ];
        for (name, mut f) in ops {
            let (iters, elapsed) = w5_bench::throughput(budget, &mut f);
            table.row([
                name.to_string(),
                n.to_string(),
                w5_bench::ops_per_sec(iters, elapsed),
                format!("{:.0}", elapsed.as_nanos() as f64 / iters as f64),
            ]);
        }
    }

    // Privileged flow with a capability set.
    {
        let a = label(16, 1);
        let caps = CapSet::from_caps(a.iter().map(w5_difc::Capability::minus));
        let empty = CapSet::empty();
        let (iters, elapsed) = w5_bench::throughput(budget, || {
            let _ = std::hint::black_box(can_flow_with(&a, &caps, &Label::empty(), &empty));
        });
        table.row([
            "flow check (privileged)".to_string(),
            "16".to_string(),
            w5_bench::ops_per_sec(iters, elapsed),
            format!("{:.0}", elapsed.as_nanos() as f64 / iters as f64),
        ]);
    }

    // Wire encode/decode.
    {
        let pair = LabelPair::new(label(16, 1), label(2, 1001));
        let bytes = wire::pair_to_bytes(&pair);
        let (iters, elapsed) = w5_bench::throughput(budget, || {
            std::hint::black_box(wire::pair_to_bytes(&pair));
        });
        table.row([
            "wire encode".to_string(),
            "16+2".to_string(),
            w5_bench::ops_per_sec(iters, elapsed),
            format!("{:.0}", elapsed.as_nanos() as f64 / iters as f64),
        ]);
        let (iters, elapsed) = w5_bench::throughput(budget, || {
            let _ = std::hint::black_box(wire::pair_from_bytes(&bytes));
        });
        table.row([
            "wire decode".to_string(),
            "16+2".to_string(),
            w5_bench::ops_per_sec(iters, elapsed),
            format!("{:.0}", elapsed.as_nanos() as f64 / iters as f64),
        ]);
    }

    println!("{table}");
    println!("shape check: small-label checks are tens of ns (well under request costs);");
    println!("             set ops scale linearly with label size.");
}
