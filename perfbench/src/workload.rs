//! Workload inputs. Everything a run sends — the server's population seed,
//! every request, every inline spec — is a pure function of the workload
//! seed; the server only ever sees the derived population seed.

use trustseq_core::{EdgeColor, SequencingGraph};
use trustseq_dist::ServiceOp;
use trustseq_service::ServiceConfig;
use trustseq_workloads::{random_exchange, MarketMode, RandomConfig, Stall};

use crate::json::Json;

/// SplitMix64: a tiny, fast, seedable generator whose stream is fixed
/// forever, so a seed names the same inputs on every commit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent stream seed from the workload seed and a tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// Ranges the inline-spec generator draws each spec's shape from.
#[derive(Debug, Clone)]
pub struct SpecShape {
    pub width: (usize, usize),
    pub max_depth: (usize, usize),
    pub trust_density: (f64, f64),
}

/// One workload's parameters, read from `perfbench/config.json`.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    /// Offered rate of the `paced` phase, requests per second.
    pub paced_rps: f64,
    /// Request mix: fractions of `mutate`, `analyzespec` and `event`
    /// frames; the rest are `analyze`.
    pub mutate: f64,
    pub spec: f64,
    pub event: f64,
    /// Requests between hot admissions of the next id past the boot
    /// population (event workloads; 0 disables growth).
    pub admit_every: u64,
    /// Distinct inline specs the workload draws from.
    pub spec_pool: usize,
    pub spec_shape: SpecShape,
}

fn range<T: Copy>(v: &Json, key: &str, f: impl Fn(f64) -> T) -> Result<(T, T), String> {
    let a = v.req(key)?.arr()?;
    if a.len() != 2 {
        return Err(format!("`{key}` must be a [low, high] pair"));
    }
    Ok((f(a[0].num()?), f(a[1].num()?)))
}

impl Workload {
    pub fn from_json(name: &str, v: &Json) -> Result<Workload, String> {
        let mix = v.req("mix")?;
        let frac = |k: &str| mix.get(k).map_or(Ok(0.0), Json::num);
        let shape = v.req("spec_shape")?;
        Ok(Workload {
            name: name.to_string(),
            paced_rps: v.key_num("paced_rps")?,
            mutate: frac("mutate")?,
            spec: frac("analyzespec")?,
            event: frac("event")?,
            admit_every: v.get("admit_every").map_or(Ok(0.0), Json::num)? as u64,
            spec_pool: v.key_num("spec_pool")? as usize,
            spec_shape: SpecShape {
                width: range(shape, "width", |x| x as usize)?,
                max_depth: range(shape, "max_depth", |x| x as usize)?,
                trust_density: range(shape, "trust_density", |x| x)?,
            },
        })
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    Analyze { id: u32 },
    Mutate { id: u32, op: ServiceOp, slot: u32 },
    Event { id: u64, op: ServiceOp, slot: u32 },
    Spec { index: u32 },
}

impl Req {
    /// The resident structure the request reads or writes, if any.
    pub fn structure(&self) -> Option<u64> {
        match *self {
            Req::Analyze { id } | Req::Mutate { id, .. } => Some(u64::from(id)),
            Req::Event { id, .. } => Some(id),
            Req::Spec { .. } => None,
        }
    }
}

/// The verdict fields a reply must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub feasible: bool,
    pub remaining: u32,
    pub remaining_red: u32,
}

/// An inline spec with its offline verdict from `trustseq_core::analyze`.
#[derive(Debug)]
pub struct SpecEntry {
    pub source: String,
    pub expected: Expected,
}

/// Everything derived from a workload seed, generated off the clock.
pub struct Inputs {
    pub workload: Workload,
    /// The population seed handed to `serve --seed`.
    pub server_seed: u64,
    pub schedule_seed: u64,
    /// Population the requests address: the boot population, plus the
    /// hot-admitted ids for event workloads.
    pub population: usize,
    pub boot: usize,
    /// Per-structure `(trust pairs, deals)`, fixed for a structure's life.
    pub shapes: Vec<(u32, u32)>,
    pub specs: Vec<SpecEntry>,
    /// Structure 0's `(feasible, remaining)` from a [`MarketMode::Full`]
    /// copy: what the set-up probe's reply must carry.
    pub probe: (bool, u32),
}

/// The base shape of the server's resident structures (the `serve`
/// command's fixed `RandomConfig::default()`).
pub fn population_base() -> RandomConfig {
    RandomConfig::default()
}

/// Generates structure `id` exactly as the server does, in `mode`.
pub fn structure(server_seed: u64, id: u64, mode: MarketMode) -> Stall {
    Stall::generate(server_seed.wrapping_add(id), &population_base(), mode, None)
}

impl Inputs {
    /// Inputs for a server that boots `structures` resident structures.
    pub fn generate(workload: &Workload, structures: usize, seed: u64) -> Result<Inputs, String> {
        let server_seed = derive(seed, 1);
        let population = if workload.event > 0.0 && workload.admit_every > 0 {
            // Hot admission grows the population up to the server's fixed
            // cap, which `serve` does not expose as a flag.
            ServiceConfig::default().max_structures.max(structures)
        } else {
            structures
        };
        let shapes = (0..population as u64)
            .map(|id| {
                let s = structure(server_seed, id, MarketMode::Delta);
                (s.pairs() as u32, s.deals() as u32)
            })
            .collect();
        let specs = spec_pool(&workload.spec_shape, workload.spec_pool, derive(seed, 3))?;
        let first = structure(server_seed, 0, MarketMode::Full);
        Ok(Inputs {
            workload: workload.clone(),
            server_seed,
            schedule_seed: derive(seed, 2),
            population,
            boot: structures,
            shapes,
            specs,
            probe: (first.feasible(), first.remaining_edges() as u32),
        })
    }

    /// A fresh request stream; every call yields the identical sequence.
    pub fn schedule(&self) -> Schedule<'_> {
        let eligible = (0..self.boot)
            .filter(|&id| self.shapes[id] != (0, 0))
            .map(|id| id as u64)
            .collect();
        Schedule {
            inputs: self,
            rng: Rng::new(self.schedule_seed),
            eligible,
            next_grow: self.boot,
            issued: 0,
        }
    }
}

/// Generates `count` inline specs with shapes drawn from `shape`, printed
/// by the spec-language printer and verified offline.
pub fn spec_pool(shape: &SpecShape, count: usize, seed: u64) -> Result<Vec<SpecEntry>, String> {
    let mut rng = Rng::new(seed);
    let draw = |(lo, hi): (usize, usize), rng: &mut Rng| lo + rng.below(hi - lo + 1);
    (0..count)
        .map(|_| {
            let (tlo, thi) = shape.trust_density;
            let cfg = RandomConfig {
                width: draw(shape.width, &mut rng),
                max_depth: draw(shape.max_depth, &mut rng),
                trust_density: tlo + (thi - tlo) * rng.unit(),
                seed: rng.next_u64(),
                ..RandomConfig::default()
            };
            let source = trustseq_lang::print(&random_exchange(&cfg).spec);
            let spec = trustseq_lang::parse_spec(&source).map_err(|e| e.to_string())?;
            let graph = SequencingGraph::from_spec(&spec).map_err(|e| e.to_string())?;
            let outcome = trustseq_core::analyze(&spec).map_err(|e| e.to_string())?;
            let red = outcome
                .remaining_edges
                .iter()
                .filter(|&&e| graph.edge(e).color == EdgeColor::Red)
                .count();
            Ok(SpecEntry {
                source,
                expected: Expected {
                    feasible: outcome.feasible,
                    remaining: outcome.remaining_edges.len() as u32,
                    remaining_red: red as u32,
                },
            })
        })
        .collect()
}

/// A deterministic request stream over [`Inputs`].
pub struct Schedule<'a> {
    inputs: &'a Inputs,
    rng: Rng,
    /// Ids events may address: the non-empty boot structures plus every
    /// id admitted so far.
    eligible: Vec<u64>,
    next_grow: usize,
    issued: u64,
}

impl Schedule<'_> {
    pub fn next_req(&mut self) -> Req {
        let w = &self.inputs.workload;
        self.issued += 1;
        if w.admit_every > 0 && self.issued.is_multiple_of(w.admit_every) {
            if let Some(req) = self.admit_next() {
                return req;
            }
        }
        let u = self.rng.unit();
        if u < w.spec {
            return Req::Spec {
                index: self.rng.below(self.inputs.specs.len()) as u32,
            };
        }
        if u < w.spec + w.mutate + w.event {
            let id = self.eligible[self.rng.below(self.eligible.len())];
            let (op, slot) = self.lifecycle_op(id);
            return if u < w.spec + w.mutate {
                Req::Mutate {
                    id: id as u32,
                    op,
                    slot,
                }
            } else {
                Req::Event { id, op, slot }
            };
        }
        Req::Analyze {
            id: self.rng.below(self.inputs.boot) as u32,
        }
    }

    /// Makes the next id past the boot population eligible; its first
    /// request is the `post` that hot-admits it on the server.
    fn admit_next(&mut self) -> Option<Req> {
        while self.next_grow < self.inputs.population {
            let id = self.next_grow;
            self.next_grow += 1;
            let deals = self.inputs.shapes[id].1;
            if deals > 0 {
                self.eligible.push(id as u64);
                return Some(Req::Event {
                    id: id as u64,
                    op: ServiceOp::Post,
                    slot: self.rng.below(deals as usize) as u32,
                });
            }
        }
        None
    }

    /// One applicable lifecycle op: accept/cancel over trust pairs,
    /// post/expire over deals, skipping an empty family.
    fn lifecycle_op(&mut self, id: u64) -> (ServiceOp, u32) {
        let (pairs, deals) = self.inputs.shapes[id as usize];
        let (op, limit) = match self.rng.below(4) {
            0 => (ServiceOp::Accept, pairs),
            1 => (ServiceOp::Cancel, pairs),
            2 => (ServiceOp::Post, deals),
            _ => (ServiceOp::Expire, deals),
        };
        let (op, limit) = if limit > 0 {
            (op, limit)
        } else if pairs > 0 {
            (ServiceOp::Accept, pairs)
        } else {
            (ServiceOp::Post, deals)
        };
        (op, self.rng.below(limit as usize) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(event: f64) -> Workload {
        Workload {
            name: "t".into(),
            paced_rps: 1.0,
            mutate: if event > 0.0 { 0.0 } else { 0.2 },
            spec: 0.05,
            event,
            admit_every: 50,
            spec_pool: 8,
            spec_shape: SpecShape {
                width: (1, 2),
                max_depth: (1, 2),
                trust_density: (0.0, 0.5),
            },
        }
    }

    #[test]
    fn schedules_repeat_and_admit_grown_ids_with_post() {
        let inputs = Inputs::generate(&workload(0.95), 16, 7).unwrap();
        assert_eq!(
            inputs.population,
            ServiceConfig::default().max_structures,
            "event workloads address up to the server's admission cap"
        );
        let a: Vec<Req> = {
            let mut s = inputs.schedule();
            (0..2000).map(|_| s.next_req()).collect()
        };
        let mut s = inputs.schedule();
        let b: Vec<Req> = (0..2000).map(|_| s.next_req()).collect();
        assert_eq!(a, b);
        let mut seen = std::collections::HashSet::new();
        for r in &a {
            if let Req::Event { id, op, slot } = *r {
                let (pairs, deals) = inputs.shapes[id as usize];
                let limit = if matches!(op, ServiceOp::Accept | ServiceOp::Cancel) {
                    pairs
                } else {
                    deals
                };
                assert!(slot < limit);
                if id >= 16 && seen.insert(id) {
                    assert_eq!(op, ServiceOp::Post, "grown id {id} opens with post");
                }
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn spec_pool_expectations_match_the_cache() {
        let pool = spec_pool(&workload(0.0).spec_shape, 8, 3).unwrap();
        let cache = trustseq_core::AnalysisCache::new();
        for entry in &pool {
            let spec = trustseq_lang::parse_spec(&entry.source).unwrap();
            let v = cache.verdict(&SequencingGraph::from_spec(&spec).unwrap());
            assert_eq!(
                (v.feasible, v.remaining_edges as u32, v.remaining_red),
                (
                    entry.expected.feasible,
                    entry.expected.remaining,
                    entry.expected.remaining_red
                )
            );
        }
    }
}
