//! `SweepSpec` — the declarative description of a scenario grid.
//!
//! A spec is the cartesian product of its axes: platform recipes ×
//! task counts × arrival processes × perturbations × scenarios ×
//! information tiers × replicates × algorithms. [`SweepSpec::expand`]
//! flattens it into concrete [`Cell`]s with per-cell seeds derived by
//! content hashing, so a cell's seed depends only on *what* it is — never
//! on enumeration order or thread count. Like the algorithm, the
//! information tier is excluded from the seed identity: all tiers of a
//! grid point face the *same* instance, so tier columns compare
//! head-to-head (the `ms-lab oblivion` reading).
//!
//! Specs are written as TOML (see `examples/sweep_grid.toml`) or JSON; the
//! field names below are the schema.

use crate::cell::{Cell, PerturbCell, PlatformCell, ScenarioCell};
use crate::store::Fnv1a;
use mss_core::{Algorithm, InfoTier, PlatformClass};
use mss_scenario::{EventSpec, GeneratorSpec, ScenarioSpec};
use mss_workload::{ArrivalProcess, HeterogeneityAxis};

/// A malformed spec.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid sweep spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// One platform axis entry.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PlatformAxis {
    /// `"class"`, `"heterogeneity"`, or `"explicit"`.
    pub kind: String,
    /// For `class`: `homogeneous` | `comm-homogeneous` | `comp-homogeneous`
    /// | `heterogeneous` (short forms `comm`, `comp`, `het` accepted).
    pub class: Option<String>,
    /// For `class`: number of random platforms drawn (default 10, as in
    /// the paper).
    pub count: Option<usize>,
    /// Number of slaves (default 5, as in the paper).
    pub slaves: Option<usize>,
    /// For `heterogeneity`: `links` | `speeds` | `both`.
    pub axis: Option<String>,
    /// For `heterogeneity`: degrees `h ∈ [0, 1]` to sweep.
    pub levels: Option<Vec<f64>>,
    /// For `heterogeneity`: independent direction draws per level
    /// (default 3).
    pub families: Option<u64>,
    /// For `explicit`: communication times `c_j` (e.g. a calibrated
    /// real-platform shape).
    pub c: Option<Vec<f64>>,
    /// For `explicit`: computation times `p_j`.
    pub p: Option<Vec<f64>>,
}

/// One arrival-process axis entry.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ArrivalAxis {
    /// `"bag"` (all at t = 0), `"stream"` (uniform gaps), or `"poisson"`.
    pub kind: String,
    /// Target load `ρ` for `stream`/`poisson`; values above 1 model
    /// overload. Ignored for `bag`.
    pub load: Option<f64>,
}

/// One perturbation axis entry.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PerturbAxis {
    /// `"none"`, `"linear"` (size^1 on both phases), or `"matrix"`
    /// (size² communication, size³ computation).
    pub mode: String,
    /// Maximum relative size deviation, in `[0, 1)` (e.g. `0.1` for
    /// ±10 %). Ignored for `none`.
    pub delta: Option<f64>,
}

/// One scenario axis entry: a dynamic-platform script for the cells of
/// this grid point (see `mss-scenario` for the event model).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioAxis {
    /// `"static"` (no platform events) or `"dynamic"`.
    pub kind: String,
    /// Fault policy for `dynamic`: `"redispatch"` (default — wrap the
    /// algorithm in the fault-aware redispatcher) or `"plain"` (run the
    /// fault-oblivious algorithm as-is; may livelock under failures).
    pub fault: Option<String>,
    /// Optional label for report rows.
    pub name: Option<String>,
    /// Generator horizon (required when `generators` is present). The
    /// scenario seed is derived per cell from the master seed, so it is
    /// not part of the axis.
    pub horizon: Option<f64>,
    /// Minimum number of up slaves (default 1).
    pub min_up: Option<usize>,
    /// Scripted one-off events.
    pub events: Option<Vec<EventSpec>>,
    /// Event generators (Poisson failures, maintenance, drift).
    pub generators: Option<Vec<GeneratorSpec>>,
}

/// The declarative sweep description.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepSpec {
    /// Sweep name (labels artifacts and the cache directory).
    pub name: String,
    /// Master seed; all per-cell seeds derive from it.
    pub seed: u64,
    /// Independent replicates per grid point (default 1).
    pub replicates: Option<u64>,
    /// Task counts to sweep.
    pub tasks: Vec<usize>,
    /// Algorithm names (`SRPT`, `LS`, `RR`, `RRC`, `RRP`, `SLJF`,
    /// `SLJFWC`), or the single entry `"all"`.
    pub algorithms: Vec<String>,
    /// Platform axes; each entry expands into one or more platform recipes.
    pub platforms: Vec<PlatformAxis>,
    /// Arrival axes.
    pub arrivals: Vec<ArrivalAxis>,
    /// Perturbation axes (default: a single `none`).
    pub perturbations: Option<Vec<PerturbAxis>>,
    /// Scenario axes (default: a single `static`).
    pub scenarios: Option<Vec<ScenarioAxis>>,
    /// Information-tier axis: any of `clairvoyant`, `speed-oblivious`,
    /// `non-clairvoyant` (default: a single `clairvoyant`, the paper's
    /// fully informed master). Tiers of one grid point share seeds, so
    /// every tier runs the identical instance.
    pub information: Option<Vec<String>>,
}

/// The most tasks one cell may simulate. A cell holds its whole instance
/// in memory (a 10⁷-task List Scheduling cell peaks near 1.4 GB); larger
/// counts abort on allocation.
const MAX_TASKS_PER_CELL: usize = 10_000_000;

/// The most slaves one platform may have. The engine sizes its per-slave
/// state up front, so larger counts abort on allocation.
const MAX_SLAVES: usize = 1_000_000;

/// `(delta, comm_exponent, comp_exponent)` of one perturbation axis entry;
/// `None` means exact sizes.
type PerturbParams = Option<(f64, f64, f64)>;

/// splitmix64 — used to derive independent per-cell seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parse_class(s: &str) -> Result<PlatformClass, SpecError> {
    match s.to_ascii_lowercase().as_str() {
        "homogeneous" | "homog" => Ok(PlatformClass::Homogeneous),
        "comm-homogeneous" | "comm" => Ok(PlatformClass::CommHomogeneous),
        "comp-homogeneous" | "comp" => Ok(PlatformClass::CompHomogeneous),
        "heterogeneous" | "het" => Ok(PlatformClass::Heterogeneous),
        other => Err(SpecError(format!("unknown platform class `{other}`"))),
    }
}

fn parse_axis(s: &str) -> Result<HeterogeneityAxis, SpecError> {
    match s.to_ascii_lowercase().as_str() {
        "links" | "communication" => Ok(HeterogeneityAxis::Communication),
        "speeds" | "computation" => Ok(HeterogeneityAxis::Computation),
        "both" => Ok(HeterogeneityAxis::Both),
        other => Err(SpecError(format!("unknown heterogeneity axis `{other}`"))),
    }
}

impl SweepSpec {
    /// Parses the algorithm list.
    pub fn algorithm_set(&self) -> Result<Vec<Algorithm>, SpecError> {
        if self
            .algorithms
            .iter()
            .any(|a| a.eq_ignore_ascii_case("all"))
        {
            return Ok(Algorithm::ALL.to_vec());
        }
        self.algorithms
            .iter()
            .map(|name| {
                Algorithm::from_name(name)
                    .ok_or_else(|| SpecError(format!("unknown algorithm `{name}`")))
            })
            .collect()
    }

    fn platform_recipes(&self) -> Result<Vec<PlatformCell>, SpecError> {
        let mut recipes = Vec::new();
        for axis in &self.platforms {
            let kind = axis.kind.to_ascii_lowercase();
            let slaves = axis.slaves.unwrap_or(5);
            if kind == "class" || kind == "heterogeneity" {
                if slaves == 0 {
                    return Err(SpecError(format!(
                        "platform kind `{kind}` needs `slaves` >= 1, got 0"
                    )));
                }
                if slaves > MAX_SLAVES {
                    return Err(SpecError(format!(
                        "platform kind `{kind}` has `slaves` = {slaves}, above the limit \
                         of {MAX_SLAVES} slaves per platform"
                    )));
                }
            }
            match kind.as_str() {
                "class" => {
                    let class = parse_class(axis.class.as_deref().ok_or_else(|| {
                        SpecError("platform kind `class` requires `class = ...`".into())
                    })?)?;
                    let count = axis.count.unwrap_or(10);
                    for index in 0..count {
                        recipes.push(PlatformCell::Class {
                            class,
                            slaves,
                            seed: self.seed,
                            index,
                        });
                    }
                }
                "heterogeneity" => {
                    let h_axis = parse_axis(axis.axis.as_deref().ok_or_else(|| {
                        SpecError("platform kind `heterogeneity` requires `axis = ...`".into())
                    })?)?;
                    let levels = axis.levels.clone().ok_or_else(|| {
                        SpecError("platform kind `heterogeneity` requires `levels = [...]`".into())
                    })?;
                    let families = axis.families.unwrap_or(3);
                    for &level in &levels {
                        if !(0.0..=1.0).contains(&level) {
                            return Err(SpecError(format!(
                                "heterogeneity level {level} outside [0, 1]"
                            )));
                        }
                        for fam in 0..families {
                            recipes.push(PlatformCell::Heterogeneity {
                                axis: h_axis,
                                level,
                                slaves,
                                seed: self.seed ^ fam.wrapping_mul(7919),
                                family: fam,
                            });
                        }
                    }
                }
                "explicit" => {
                    let c = axis.c.clone().ok_or_else(|| {
                        SpecError("platform kind `explicit` requires `c = [...]`".into())
                    })?;
                    let p = axis.p.clone().ok_or_else(|| {
                        SpecError("platform kind `explicit` requires `p = [...]`".into())
                    })?;
                    if c.len() != p.len() || c.is_empty() {
                        return Err(SpecError(
                            "explicit platform needs non-empty c and p of equal length".into(),
                        ));
                    }
                    if c.len() > MAX_SLAVES {
                        return Err(SpecError(format!(
                            "explicit platform has {} entries in `c`, above the limit \
                             of {MAX_SLAVES} slaves per platform",
                            c.len()
                        )));
                    }
                    for (name, values) in [("c", &c), ("p", &p)] {
                        if let Some((j, v)) = values
                            .iter()
                            .enumerate()
                            .find(|(_, v)| !(v.is_finite() && **v > 0.0))
                        {
                            return Err(SpecError(format!(
                                "explicit platform `{name}[{j}]` = {v} is not a positive finite time"
                            )));
                        }
                    }
                    recipes.push(PlatformCell::Explicit { c, p });
                }
                other => return Err(SpecError(format!("unknown platform kind `{other}`"))),
            }
        }
        if recipes.is_empty() {
            return Err(SpecError("no platforms".into()));
        }
        Ok(recipes)
    }

    fn arrival_set(&self) -> Result<Vec<ArrivalProcess>, SpecError> {
        let mut arrivals = Vec::new();
        for a in &self.arrivals {
            match a.kind.to_ascii_lowercase().as_str() {
                "bag" => arrivals.push(ArrivalProcess::AllAtZero),
                "stream" => arrivals.push(ArrivalProcess::UniformStream {
                    load: a.load.ok_or_else(|| {
                        SpecError("arrival kind `stream` requires `load = ...`".into())
                    })?,
                }),
                "poisson" => arrivals.push(ArrivalProcess::Poisson {
                    load: a.load.ok_or_else(|| {
                        SpecError("arrival kind `poisson` requires `load = ...`".into())
                    })?,
                }),
                other => return Err(SpecError(format!("unknown arrival kind `{other}`"))),
            }
        }
        if arrivals.is_empty() {
            return Err(SpecError("no arrivals".into()));
        }
        Ok(arrivals)
    }

    fn perturb_set(&self) -> Result<Vec<PerturbParams>, SpecError> {
        let Some(axes) = &self.perturbations else {
            return Ok(vec![None]);
        };
        let mut out = Vec::new();
        for p in axes {
            let mode = p.mode.to_ascii_lowercase();
            let (comm, comp) = match mode.as_str() {
                "none" | "exact" => {
                    out.push(None);
                    continue;
                }
                "linear" => (1.0, 1.0),
                "matrix" => (2.0, 3.0),
                other => return Err(SpecError(format!("unknown perturbation mode `{other}`"))),
            };
            let delta = p
                .delta
                .ok_or_else(|| SpecError(format!("perturbation `{mode}` requires `delta`")))?;
            // Size factors are drawn from [1 − delta, 1 + delta]: a delta
            // of 1 or more admits zero or negative task sizes.
            if !(delta.is_finite() && (0.0..1.0).contains(&delta)) {
                return Err(SpecError(format!(
                    "perturbation `{mode}` needs `delta` in [0, 1), got {delta}"
                )));
            }
            out.push(Some((delta, comm, comp)));
        }
        if out.is_empty() {
            out.push(None);
        }
        Ok(out)
    }

    /// Scenario templates, one per axis entry; `None` is the static model.
    /// The embedded spec seeds are zero here and filled per cell. Each is
    /// checked against the largest platform it will run on.
    fn scenario_set(&self, max_slaves: usize) -> Result<Vec<Option<ScenarioCell>>, SpecError> {
        let Some(axes) = &self.scenarios else {
            return Ok(vec![None]);
        };
        let mut out = Vec::new();
        for (i, s) in axes.iter().enumerate() {
            match s.kind.to_ascii_lowercase().as_str() {
                "static" | "none" => out.push(None),
                "dynamic" | "faults" => {
                    let fault_aware = match s.fault.as_deref().unwrap_or("redispatch") {
                        "redispatch" => true,
                        "plain" => false,
                        other => {
                            return Err(SpecError(format!(
                                "scenario {i}: unknown fault policy `{other}` \
                                 (redispatch, plain)"
                            )))
                        }
                    };
                    let spec = ScenarioSpec {
                        name: s.name.clone(),
                        seed: 0,
                        horizon: s.horizon,
                        min_up: s.min_up,
                        events: s.events.clone(),
                        generators: s.generators.clone(),
                    };
                    if spec.is_static() {
                        return Err(SpecError(format!(
                            "scenario {i}: `dynamic` without events or generators \
                             (use kind = \"static\")"
                        )));
                    }
                    // Fail at spec time, not mid-sweep in a worker thread.
                    spec.validate_for(max_slaves)
                        .map_err(|e| SpecError(format!("scenario {i}: {e}")))?;
                    out.push(Some(ScenarioCell { spec, fault_aware }));
                }
                other => {
                    return Err(SpecError(format!(
                        "scenario {i}: unknown kind `{other}` (static, dynamic)"
                    )))
                }
            }
        }
        if out.is_empty() {
            out.push(None);
        }
        Ok(out)
    }

    /// Parses the information-tier axis; `None` is a single `clairvoyant`.
    pub fn information_set(&self) -> Result<Vec<InfoTier>, SpecError> {
        let Some(axes) = &self.information else {
            return Ok(vec![InfoTier::Clairvoyant]);
        };
        let mut out = Vec::new();
        for name in axes {
            out.push(InfoTier::from_label(name).ok_or_else(|| {
                SpecError(format!(
                    "unknown information tier `{name}` \
                     (clairvoyant, speed-oblivious, non-clairvoyant)"
                ))
            })?);
        }
        if out.is_empty() {
            out.push(InfoTier::Clairvoyant);
        }
        Ok(out)
    }

    /// Expands the grid into concrete cells, in a deterministic order:
    /// platforms → tasks → arrivals → perturbations → scenarios →
    /// replicates → information tiers → algorithms (the innermost axis
    /// varies fastest). Tiers sit *inside* the replicate loop so that all
    /// tiers × algorithms of one instance are consecutive — the batched
    /// executor then materializes that instance exactly once for the
    /// whole block ([`Cell::same_instance`] ignores both fields).
    pub fn expand(&self) -> Result<Vec<Cell>, SpecError> {
        let algorithms = self.algorithm_set()?;
        let recipes = self.platform_recipes()?;
        let arrivals = self.arrival_set()?;
        let perturbs = self.perturb_set()?;
        let max_slaves = recipes.iter().map(slave_count).max().unwrap_or(0);
        let scenarios = self.scenario_set(max_slaves)?;
        let tiers = self.information_set()?;
        let replicates = self.replicates.unwrap_or(1).max(1);
        if self.tasks.is_empty() {
            return Err(SpecError("no task counts".into()));
        }
        // A zero-task cell has a zero lower bound, so its makespan ratio is
        // NaN — which the result store writes as `null` and cannot read
        // back, re-running and re-appending the cell on every resume.
        if let Some(&n) = self.tasks.iter().find(|&&n| n == 0) {
            return Err(SpecError(format!(
                "task count {n} in `tasks`: every cell needs at least one task"
            )));
        }
        if let Some(&n) = self.tasks.iter().find(|&&n| n > MAX_TASKS_PER_CELL) {
            return Err(SpecError(format!(
                "task count {n} in `tasks` is above the limit of {MAX_TASKS_PER_CELL} \
                 tasks per cell"
            )));
        }

        let mut cells = Vec::new();
        for platform in &recipes {
            for &tasks in &self.tasks {
                for arrival in &arrivals {
                    for perturb in &perturbs {
                        for scenario in &scenarios {
                            for replicate in 0..replicates {
                                // Seeds derive from the grid *point*
                                // (identity with zeroed seeds and fixed
                                // algorithm/tier placeholders) hashed with
                                // the master seed — independent of
                                // enumeration order, and shared across
                                // algorithms and tiers so they face
                                // identical instances.
                                let mut point = Cell {
                                    platform: platform.clone(),
                                    arrival: *arrival,
                                    perturbation: perturb.map(|(delta, ec, ep)| PerturbCell {
                                        delta,
                                        comm_exponent: ec,
                                        comp_exponent: ep,
                                        seed: 0,
                                    }),
                                    scenario: scenario.clone(),
                                    tasks,
                                    algorithm: Algorithm::Srpt,
                                    information: InfoTier::Clairvoyant,
                                    replicate,
                                    task_seed: 0,
                                };
                                let mut identity = Fnv1a::BASIS;
                                serde_json::to_writer(&mut identity, &point)
                                    .expect("serialize cell identity");
                                let id_hash = identity.0;
                                point.task_seed =
                                    mix(self.seed ^ id_hash.rotate_left(17) ^ replicate);
                                if let Some(p) = &mut point.perturbation {
                                    p.seed = mix(self.seed
                                        ^ id_hash.rotate_left(43)
                                        ^ replicate.wrapping_mul(0x9e37));
                                }
                                if let Some(s) = &mut point.scenario {
                                    s.spec.seed = mix(self.seed
                                        ^ id_hash.rotate_left(29)
                                        ^ replicate.wrapping_mul(0xa5a5));
                                }
                                for &information in &tiers {
                                    for &algorithm in &algorithms {
                                        cells.push(Cell {
                                            algorithm,
                                            information,
                                            ..point.clone()
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }
}

/// Slaves on the platform `recipe` builds.
fn slave_count(recipe: &PlatformCell) -> usize {
    match recipe {
        PlatformCell::Class { slaves, .. } | PlatformCell::Heterogeneity { slaves, .. } => *slaves,
        PlatformCell::Explicit { c, .. } => c.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec {
            name: "unit".into(),
            seed: 42,
            replicates: Some(2),
            tasks: vec![20, 40],
            algorithms: vec!["SRPT".into(), "LS".into()],
            platforms: vec![PlatformAxis {
                kind: "class".into(),
                class: Some("het".into()),
                count: Some(3),
                slaves: Some(4),
                axis: None,
                levels: None,
                families: None,
                c: None,
                p: None,
            }],
            arrivals: vec![
                ArrivalAxis {
                    kind: "bag".into(),
                    load: None,
                },
                ArrivalAxis {
                    kind: "poisson".into(),
                    load: Some(0.9),
                },
            ],
            perturbations: None,
            scenarios: None,
            information: None,
        }
    }

    fn dynamic_axis() -> ScenarioAxis {
        ScenarioAxis {
            kind: "dynamic".into(),
            fault: None,
            name: None,
            horizon: Some(300.0),
            min_up: Some(1),
            events: None,
            generators: Some(vec![GeneratorSpec {
                kind: "poisson-failures".into(),
                mtbf: Some(60.0),
                repair_mean: Some(10.0),
                ..GeneratorSpec::default()
            }]),
        }
    }

    #[test]
    fn grid_size_is_the_axis_product() {
        let cells = spec().expand().unwrap();
        // 3 platforms × 2 task counts × 2 arrivals × 1 perturb × 2 reps × 2 algs
        assert_eq!(cells.len(), 3 * 2 * 2 * 2 * 2);
    }

    #[test]
    fn seeds_are_order_independent_and_distinct() {
        let a = spec().expand().unwrap();
        let b = spec().expand().unwrap();
        assert_eq!(a, b);
        // Replicates of the same point get distinct task seeds.
        let seeds: std::collections::HashSet<u64> = a
            .iter()
            .filter(|c| c.arrival == ArrivalProcess::Poisson { load: 0.9 })
            .map(|c| c.task_seed)
            .collect();
        let n_poisson = a
            .iter()
            .filter(|c| c.arrival == ArrivalProcess::Poisson { load: 0.9 })
            .count();
        // Same platform+tasks+replicate but different algorithm share a
        // seed (head-to-head comparability); different points differ.
        assert!(
            seeds.len() >= n_poisson / 2 - 1,
            "{} of {}",
            seeds.len(),
            n_poisson
        );
    }

    #[test]
    fn same_point_different_algorithm_shares_task_seed() {
        let cells = spec().expand().unwrap();
        for pair in cells.chunks(2) {
            // Innermost axis is the algorithm, so chunks of 2 share a point.
            assert_eq!(pair[0].task_seed, pair[1].task_seed);
            assert_ne!(pair[0].algorithm, pair[1].algorithm);
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        let mut s = spec();
        s.algorithms = vec!["NOPE".into()];
        assert!(s.expand().is_err());
        let mut s = spec();
        s.platforms[0].class = Some("quantum".into());
        assert!(s.expand().is_err());
        let mut s = spec();
        s.arrivals[0].kind = "burst".into();
        assert!(s.expand().is_err());
        let mut s = spec();
        s.scenarios = Some(vec![ScenarioAxis {
            kind: "apocalypse".into(),
            ..dynamic_axis()
        }]);
        assert!(s.expand().is_err());
        let mut s = spec();
        s.scenarios = Some(vec![ScenarioAxis {
            fault: Some("yolo".into()),
            ..dynamic_axis()
        }]);
        assert!(s.expand().is_err());
    }

    #[test]
    fn scenario_axis_expands_and_seeds_cells() {
        let mut s = spec();
        s.scenarios = Some(vec![
            ScenarioAxis {
                kind: "static".into(),
                fault: None,
                name: None,
                horizon: None,
                min_up: None,
                events: None,
                generators: None,
            },
            dynamic_axis(),
        ]);
        let cells = s.expand().unwrap();
        // The scenario axis doubles the grid of `grid_size_is_the_axis_product`.
        assert_eq!(cells.len(), 2 * (3 * 2 * 2 * 2 * 2));
        let dynamic: Vec<&Cell> = cells.iter().filter(|c| c.scenario.is_some()).collect();
        assert_eq!(dynamic.len(), cells.len() / 2);
        // Every dynamic cell is fault-aware by default and carries a
        // content-derived, replicate-distinct scenario seed.
        let mut seeds = std::collections::HashSet::new();
        for c in &dynamic {
            let s = c.scenario.as_ref().unwrap();
            assert!(s.fault_aware);
            seeds.insert((c.platform.replicate_index(), c.replicate, s.spec.seed));
        }
        // Same point, different algorithm share a scenario seed; different
        // points differ. 3 platforms × 2 tasks × 2 arrivals × 2 replicates
        // distinct (platform, replicate, seed) triples... per task/arrival.
        assert!(seeds.len() >= dynamic.len() / 2 - 1);
        // And the expansion is reproducible.
        assert_eq!(s.expand().unwrap(), cells);
    }

    #[test]
    fn information_axis_expands_and_shares_seeds() {
        let mut s = spec();
        s.information = Some(vec![
            "clairvoyant".into(),
            "speed-oblivious".into(),
            "non_clairvoyant".into(), // underscores tolerated
        ]);
        let cells = s.expand().unwrap();
        // The tier axis triples the grid of `grid_size_is_the_axis_product`.
        assert_eq!(cells.len(), 3 * (3 * 2 * 2 * 2 * 2));
        // Tiers sit between the replicate and algorithm loops, so every
        // consecutive block of tiers×algorithms is ONE instance: the same
        // grid point at a different tier faces the identical instance
        // (same task seed) and batches against one materialization.
        let n_alg = 2;
        for (i, c) in cells.iter().enumerate() {
            let tier = [
                InfoTier::Clairvoyant,
                InfoTier::SpeedOblivious,
                InfoTier::NonClairvoyant,
            ][(i / n_alg) % 3];
            assert_eq!(c.information, tier, "cell {i}");
        }
        for instance in cells.chunks(3 * n_alg) {
            for c in instance {
                assert_eq!(c.task_seed, instance[0].task_seed);
                assert!(c.same_instance(&instance[0]));
            }
        }
        // Unknown tiers are rejected with the allowed set.
        let mut bad = spec();
        bad.information = Some(vec!["psychic".into()]);
        let err = bad.expand().unwrap_err();
        assert!(err.0.contains("psychic"), "{err}");
        assert!(err.0.contains("speed-oblivious"), "{err}");
    }

    #[test]
    fn dynamic_axis_without_events_is_rejected() {
        let mut s = spec();
        s.scenarios = Some(vec![ScenarioAxis {
            generators: None,
            ..dynamic_axis()
        }]);
        let err = s.expand().unwrap_err();
        assert!(err.0.contains("without events"), "{err}");
    }

    #[test]
    fn zero_task_count_is_rejected() {
        // A zero-task cell's NaN makespan ratio stores as `null`, which
        // the result store cannot load: every resume would re-run it and
        // append another copy. Expansion refuses it up front.
        let mut s = spec();
        s.tasks = vec![20, 0];
        let err = s.expand().unwrap_err();
        assert!(err.0.contains("task count 0"), "{err}");
        s.tasks.clear();
        assert_eq!(s.expand().unwrap_err().0, "no task counts");
    }

    #[test]
    fn task_count_above_the_cell_limit_is_rejected() {
        let mut s = spec();
        s.tasks = vec![20, 99_999_999_999];
        let err = s.expand().unwrap_err();
        for part in ["`tasks`", "99999999999", "10000000"] {
            assert!(err.0.contains(part), "{part} in {err}");
        }
        s.tasks = vec![10_000_000];
        assert!(s.expand().is_ok(), "the limit itself is allowed");
    }

    #[test]
    fn zero_slave_platform_is_rejected() {
        // `Platform::new` asserts at least one slave; the spec must say so
        // first, as a named error instead of a panic inside a worker.
        for kind in ["class", "heterogeneity"] {
            let mut s = spec();
            s.platforms = vec![PlatformAxis {
                kind: kind.into(),
                class: Some("het".into()),
                count: Some(1),
                slaves: Some(0),
                axis: Some("both".into()),
                levels: Some(vec![0.5]),
                families: Some(1),
                c: None,
                p: None,
            }];
            let err = s.expand().unwrap_err();
            assert!(err.0.contains("`slaves` >= 1"), "{kind}: {err}");
        }
    }

    #[test]
    fn slave_count_above_the_platform_limit_is_rejected() {
        for kind in ["class", "heterogeneity"] {
            let mut s = spec();
            s.platforms = vec![PlatformAxis {
                kind: kind.into(),
                class: Some("het".into()),
                count: Some(1),
                slaves: Some(100_000_000),
                axis: Some("both".into()),
                levels: Some(vec![0.5]),
                families: Some(1),
                c: None,
                p: None,
            }];
            let err = s.expand().unwrap_err();
            for part in ["`slaves`", "100000000", "1000000 slaves"] {
                assert!(err.0.contains(part), "{kind}: {part} in {err}");
            }
        }
    }

    #[test]
    fn perturbation_delta_outside_unit_interval_is_rejected() {
        // A negative delta used to panic inside the sampler ("empty
        // range"); a delta of 1 or more drew zero or negative task sizes
        // and reported makespans below the certified lower bound.
        for mode in ["linear", "matrix"] {
            for delta in [-0.5, 1.0, 1.5, f64::INFINITY, f64::NAN] {
                let mut s = spec();
                s.perturbations = Some(vec![PerturbAxis {
                    mode: mode.into(),
                    delta: Some(delta),
                }]);
                let err = s.expand().unwrap_err();
                assert!(err.0.contains("`delta` in [0, 1)"), "{mode} {delta}: {err}");
            }
            for delta in [0.0, 0.1, 0.99] {
                let mut s = spec();
                s.perturbations = Some(vec![PerturbAxis {
                    mode: mode.into(),
                    delta: Some(delta),
                }]);
                assert!(s.expand().is_ok(), "{mode} {delta}");
            }
        }
    }

    #[test]
    fn non_positive_or_non_finite_explicit_times_are_rejected() {
        for (field, v) in [0.0, -1.0, f64::INFINITY, f64::NAN]
            .into_iter()
            .flat_map(|v| [("c", v), ("p", v)])
        {
            let (mut c, mut p) = (vec![0.5, 1.0], vec![2.0, 3.0]);
            if field == "c" {
                c[1] = v;
            } else {
                p[1] = v;
            }
            let mut s = spec();
            s.platforms = vec![PlatformAxis {
                kind: "explicit".into(),
                class: None,
                count: None,
                slaves: None,
                axis: None,
                levels: None,
                families: None,
                c: Some(c),
                p: Some(p),
            }];
            let err = s.expand().unwrap_err();
            assert!(
                err.0.contains(&format!("`{field}[1]`")),
                "{field} = {v}: {err}"
            );
        }
    }

    #[test]
    fn malformed_dynamic_axis_fails_at_expand_not_at_cell_run() {
        // Generators without a horizon must be a spec error, not a panic
        // inside a sweep worker thread.
        let mut s = spec();
        s.scenarios = Some(vec![ScenarioAxis {
            horizon: None,
            ..dynamic_axis()
        }]);
        let err = s.expand().unwrap_err();
        assert!(err.0.contains("horizon"), "{err}");
        // So is a generator expected to emit past the event budget on the
        // spec's largest platform (4 slaves here).
        let mut axis = dynamic_axis();
        axis.horizon = Some(1e308);
        let mut s = spec();
        s.scenarios = Some(vec![axis]);
        let err = s.expand().unwrap_err();
        assert!(
            err.0.contains("scenario 0") && err.0.contains("on 4 slaves"),
            "{err}"
        );
    }

    #[test]
    fn heterogeneity_and_explicit_platforms_expand() {
        let mut s = spec();
        s.platforms = vec![
            PlatformAxis {
                kind: "heterogeneity".into(),
                class: None,
                count: None,
                slaves: Some(3),
                axis: Some("both".into()),
                levels: Some(vec![0.0, 0.5, 1.0]),
                families: Some(2),
                c: None,
                p: None,
            },
            PlatformAxis {
                kind: "explicit".into(),
                class: None,
                count: None,
                slaves: None,
                axis: None,
                levels: None,
                families: None,
                c: Some(vec![0.1, 0.2]),
                p: Some(vec![1.0, 2.0]),
            },
        ];
        s.tasks = vec![10];
        s.arrivals.truncate(1);
        s.replicates = Some(1);
        let cells = s.expand().unwrap();
        // (3 levels × 2 families + 1 explicit) × 2 algorithms
        assert_eq!(cells.len(), 7 * 2);
    }
}
