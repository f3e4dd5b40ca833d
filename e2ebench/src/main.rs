//! Socket-to-store request benchmark for W5.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload browse_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` drives the workload's seeded request stream over loopback
//! sockets into `Server` + `Gateway` and prints the end-to-end metrics;
//! `--trace 1` replays a stream from the same seed layer by layer and
//! prints the per-layer metrics. Either way every response is checked
//! against a twin world, and the last stdout line is the JSON result.
//! The exit code is non-zero when any check fails.

mod client;
mod e2e;
mod peel;
mod report;
mod stats;
mod world;

use w5_net::{PipelineConfig, ServerConfig};
use world::{nproc, workloads, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = workloads().iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    // The server must run exactly as `Server::start` configures it.
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("W5_NET_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!("e2ebench: refusing to run with {overrides:?} set; unset them to measure the default server");
        std::process::exit(2);
    }

    let w = &args.workload;
    let pop = w.population();
    println!(
        "run: workload={} seed={} seconds={} trace={} transport=loopback nproc={} clients=1 conn={:?}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        w.conn
    );
    println!(
        "population: users={} seed={} friends_m={} photos_per_user={} posts_per_user={} mix={:?}",
        pop.users, pop.seed, pop.friends_m, pop.photos_per_user, pop.posts_per_user, w.mix
    );
    println!("pipeline: {:?}", PipelineConfig::from_env());
    println!("server: {:?}", ServerConfig::default());

    let (metrics, check) = if args.trace {
        peel::run(w, args.seed, args.seconds)
    } else {
        e2e::run(w, args.seed, args.seconds)
    };
    println!("{}", check.summary());
    println!("{}", metrics.result_line(&check));
    if !check.correct() {
        std::process::exit(1);
    }
}
