//! Seeded instances from the BENCH suite's three families (the laws of
//! `crates/bench/src/baseline.rs`), so the benchmark exercises the same
//! shapes the committed baselines do at many seeds.

use bshm_core::instance::Instance;
use bshm_core::lower_bound::lower_bound;
use bshm_core::Cost;
use bshm_workload::catalogs::{dec_geometric, inc_geometric, sawtooth};
use bshm_workload::{ArrivalProcess, DurationLaw, SizeLaw, WorkloadSpec};

/// Instance families, named after the protocol's workload families.
pub const FAMILIES: [&str; 3] = ["dec", "inc", "saw"];

/// One generated instance with its §II lower bound.
pub struct Case {
    pub family: &'static str,
    pub instance: Instance,
    pub lower: Cost,
}

/// splitmix64: derives independent seeds from the workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `counts[f]` instances of `n` jobs from family `FAMILIES[f]`.
pub fn instances(seed: u64, n: usize, counts: [usize; 3]) -> Vec<(&'static str, Instance)> {
    let mut out = Vec::with_capacity(counts.iter().sum());
    for (f, (&family, &count)) in FAMILIES.iter().zip(&counts).enumerate() {
        for k in 0..count {
            let s = derive_seed(seed, (f * 1_000 + k) as u64);
            out.push((family, generate(family, n, s)));
        }
    }
    out
}

/// Attaches the full-sweep lower bound to each instance.
pub fn with_lower_bounds(instances: Vec<(&'static str, Instance)>) -> Vec<Case> {
    instances
        .into_iter()
        .map(|(family, instance)| Case {
            family,
            lower: lower_bound(&instance),
            instance,
        })
        .collect()
}

fn generate(family: &str, n: usize, seed: u64) -> Instance {
    let (catalog, arrivals, durations, sizes) = match family {
        "dec" => {
            let catalog = dec_geometric(4, 4);
            let max = catalog.max_capacity();
            (
                catalog,
                ArrivalProcess::Poisson { mean_gap: 3.0 },
                DurationLaw::Uniform { min: 10, max: 60 },
                SizeLaw::Uniform { min: 1, max },
            )
        }
        "inc" => {
            let catalog = inc_geometric(4, 4);
            let max = catalog.max_capacity();
            (
                catalog,
                ArrivalProcess::Diurnal {
                    base: 0.1,
                    peak: 0.8,
                    period: 200,
                },
                DurationLaw::BoundedPareto {
                    min: 5,
                    max: 200,
                    alpha: 1.5,
                },
                SizeLaw::HeavyTail {
                    min: 1,
                    max,
                    alpha: 1.3,
                },
            )
        }
        _ => {
            let catalog = sawtooth(4, 4);
            let max = catalog.max_capacity();
            (
                catalog,
                ArrivalProcess::Poisson { mean_gap: 2.0 },
                DurationLaw::Bimodal {
                    short: 8,
                    long: 120,
                    p_long: 0.2,
                },
                vm_sizes(max),
            )
        }
    };
    WorkloadSpec {
        n,
        seed,
        arrivals,
        durations,
        sizes,
    }
    .generate(catalog)
}

/// Power-of-two VM shapes weighted ∝ 1/√size, as in the BENCH suite.
fn vm_sizes(max: u64) -> SizeLaw {
    let mut items = Vec::new();
    let mut s = 1u64;
    while s <= max {
        items.push((s, 1.0 / (s as f64).sqrt()));
        s *= 2;
    }
    SizeLaw::Discrete(items)
}
