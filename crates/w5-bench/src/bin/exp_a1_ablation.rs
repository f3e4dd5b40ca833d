//! A1 — ablations over the platform's design choices.
//!
//! Three knobs DESIGN.md calls out, each isolated:
//!
//! 1. **Perimeter cost vs commingling width** — how expensive is an
//!    export check as the response carries more users' tags (the price of
//!    the aggregation-over-isolation bet)?
//! 2. **Perimeter cost vs granted-declassifier count** — each owner may
//!    grant several declassifiers; the exporter tries them in order.
//! 3. **Sanitizer on/off** — what the §3.5 JavaScript filter adds to an
//!    HTML-producing request.

use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;
use w5_platform::{
    Account, Declassifier, ExportContext, GrantScope, Platform, PlatformConfig,
    RelationshipOracle, Verdict,
};
use w5_sim::Table;

/// A declassifier that always denies — a "decoy" grant the exporter must
/// consult and reject before finding the one that allows. Each instance
/// gets a distinct (leaked) name so N grants really are N consultations.
struct AlwaysDeny {
    name: &'static str,
}

impl AlwaysDeny {
    fn numbered(i: usize) -> AlwaysDeny {
        AlwaysDeny { name: Box::leak(format!("deny-{i}").into_boxed_str()) }
    }
}

impl Declassifier for AlwaysDeny {
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        "ablation decoy"
    }
    fn authorize(&self, _ctx: &ExportContext, _o: &dyn RelationshipOracle) -> Verdict {
        Verdict::Deny
    }
    fn audit_lines(&self) -> usize {
        1
    }
}

fn check_cost(platform: &Arc<Platform>, labels: &w5_difc::LabelPair, viewer: &Account) -> f64 {
    let oracle = platform.oracle();
    let budget = Duration::from_millis(200);
    w5_bench::harness::time(budget, 1, || {
        let d = platform.exporter.check(
            labels,
            Some(viewer),
            "devX/app",
            &platform.accounts,
            &platform.policies,
            &platform.declassifiers,
            &oracle,
        );
        d.allowed
    })
    .ns_per_op()
}

fn main() {
    w5_bench::banner("A1", "design-choice ablations", "DESIGN.md §4 / §6");

    // ---- 1. Commingling width.
    {
        let platform = Platform::new_default("ablate-width");
        let viewer = platform.accounts.register("viewer", "pw").unwrap();
        let mut owners = Vec::new();
        for i in 0..64 {
            let a = platform.accounts.register(&format!("owner{i}"), "pw").unwrap();
            platform
                .policies
                .grant_declassifier(a.id, "public-read", GrantScope::App("devX/app".into()));
            owners.push(a);
        }
        let mut table = Table::new(["commingled owners", "perimeter check ns", "per-tag ns"]);
        for &n in &[1usize, 2, 4, 8, 16, 32, 64] {
            let labels = w5_difc::LabelPair::new(
                w5_difc::Label::from_iter(owners[..n].iter().map(|a| a.export_tag)),
                w5_difc::Label::empty(),
            );
            let ns = check_cost(&platform, &labels, &viewer);
            table.row([n.to_string(), format!("{ns:.0}"), format!("{:.0}", ns / n as f64)]);
        }
        println!("{table}");
    }

    // ---- 2. Granted-declassifier count (decoys before the allower).
    {
        let platform = Platform::new_default("ablate-grants");
        for i in 0..64 {
            platform.declassifiers.register(Arc::new(AlwaysDeny::numbered(i)));
        }
        let viewer = platform.accounts.register("viewer", "pw").unwrap();
        let owner = platform.accounts.register("owner", "pw").unwrap();
        let labels = w5_difc::LabelPair::new(
            w5_difc::Label::singleton(owner.export_tag),
            w5_difc::Label::empty(),
        );
        let mut table = Table::new(["granted declassifiers", "perimeter check ns", "allowed?"]);
        for &decoys in &[0usize, 1, 4, 16, 64] {
            // Rebuild the grant list: N distinct decoys, then the allower.
            for i in 0..64 {
                platform
                    .policies
                    .revoke_declassifier(owner.id, Box::leak(format!("deny-{i}").into_boxed_str()));
            }
            platform.policies.revoke_declassifier(owner.id, "public-read");
            for i in 0..decoys {
                platform.policies.grant_declassifier(
                    owner.id,
                    Box::leak(format!("deny-{i}").into_boxed_str()),
                    GrantScope::App("devX/app".into()),
                );
            }
            platform
                .policies
                .grant_declassifier(owner.id, "public-read", GrantScope::App("devX/app".into()));
            let ns = check_cost(&platform, &labels, &viewer);
            let d = platform.exporter.check(
                &labels,
                Some(&viewer),
                "devX/app",
                &platform.accounts,
                &platform.policies,
                &platform.declassifiers,
                &platform.oracle(),
            );
            table.row([
                (platform.policies.get(owner.id).grants.len()).to_string(),
                format!("{ns:.0}"),
                d.allowed.to_string(),
            ]);
        }
        println!("{table}");
    }

    // ---- 3. Sanitizer on/off over the full invoke path.
    {
        let mut table = Table::new(["sanitizer", "mean invoke us"]);
        for &(name, on) in &[("on", true), ("off", false)] {
            let platform = Platform::new(
                "ablate-sanitize",
                PlatformConfig { sanitize_html: on, ..PlatformConfig::default() },
            );
            w5_apps::install_all(&platform);
            let bob = platform.accounts.register("bob", "pw").unwrap();
            platform.policies.delegate_write(bob.id, "devB/blog");
            let req = Platform::make_request(
                "POST",
                "post",
                &[("title", "t"), ("body", &"lorem ipsum ".repeat(100))],
                Some(&bob),
                Bytes::new(),
            );
            assert_eq!(platform.invoke(Some(&bob), "devB/blog", req).status, 200);
            let h = w5_bench::measure(10, 300, || {
                let req = Platform::make_request(
                    "GET",
                    "read",
                    &[("user", "bob"), ("title", "t")],
                    Some(&bob),
                    Bytes::new(),
                );
                let r = platform.invoke(Some(&bob), "devB/blog", req);
                assert_eq!(r.status, 200);
            });
            table.row([name.to_string(), format!("{:.1}", h.mean_ns() / 1e3)]);
        }
        println!("{table}");
    }

    println!("shape check: perimeter cost grows linearly in commingled tags (sub-us each),");
    println!("             decoy declassifier consultations are cheap, and the sanitizer");
    println!("             adds a small constant to HTML responses.");
}
