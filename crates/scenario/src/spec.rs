//! `ScenarioSpec` — the declarative description of a dynamic platform.

use crate::generators;
use mss_sim::{PlatformEvent, PlatformEventKind, SlaveId, Time, Timeline};

/// The most timeline events a scenario's generators may be expected to
/// emit for one platform. Generators expand into memory before the run
/// starts, so a tiny `mtbf`, `period` or `step` over a long `horizon`
/// would exhaust memory, or never finish, before the first event.
const MAX_EXPECTED_EVENTS: u64 = 10_000_000;

/// A malformed or uncompilable scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioError(pub String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scenario: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

/// One scripted platform event.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct EventSpec {
    /// When the event fires (seconds).
    pub at: f64,
    /// Zero-based slave index.
    pub slave: usize,
    /// `"fail"`, `"recover"`, `"link"` (set link factor), or `"speed"`
    /// (set speed factor).
    pub kind: String,
    /// Required for `link`/`speed`: the factor on the nominal `c_j`/`p_j`.
    pub factor: Option<f64>,
}

/// One event generator, expanded over the scenario horizon.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct GeneratorSpec {
    /// `"poisson-failures"`, `"maintenance"`, `"speed-drift"`, or
    /// `"link-drift"`.
    pub kind: String,
    /// Zero-based slave indices the generator applies to (default: all).
    pub slaves: Option<Vec<usize>>,
    /// Poisson failures: mean time between failures while up (seconds).
    pub mtbf: Option<f64>,
    /// Poisson failures: repair distribution, `"exp"` (default) or
    /// `"weibull"`.
    pub repair: Option<String>,
    /// Poisson failures, `exp` repair: mean repair time (seconds).
    pub repair_mean: Option<f64>,
    /// Poisson failures, `weibull` repair: scale parameter (seconds).
    pub repair_scale: Option<f64>,
    /// Poisson failures, `weibull` repair: shape parameter (`< 1` is
    /// heavy-tailed, `1` is exponential).
    pub shape: Option<f64>,
    /// Maintenance: window period (seconds, window-start to window-start).
    pub period: Option<f64>,
    /// Maintenance: window length (seconds); must be below `period`.
    pub duration: Option<f64>,
    /// Maintenance: start of the first window (default 0). Each slave is
    /// additionally shifted by `stagger ×` its index.
    pub offset: Option<f64>,
    /// Maintenance: per-slave extra offset so windows do not align
    /// (default: `period / num_slaves`, which keeps windows disjoint).
    pub stagger: Option<f64>,
    /// Drift: seconds between random-walk steps.
    pub step: Option<f64>,
    /// Drift: half-width of the uniform log-factor increment per step.
    pub sigma: Option<f64>,
    /// Drift: lower clamp on the factor (default 0.25).
    pub min_factor: Option<f64>,
    /// Drift: upper clamp on the factor (default 4.0).
    pub max_factor: Option<f64>,
}

/// The declarative scenario description (TOML/JSON schema of
/// `examples/failure_scenario.toml`).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Optional name, used in report labels.
    pub name: Option<String>,
    /// Master seed for every generator stream.
    pub seed: u64,
    /// Generators stop emitting at this time (required when `generators`
    /// is non-empty; scripted events may lie beyond it).
    pub horizon: Option<f64>,
    /// Never let the number of up slaves drop below this (default 1):
    /// failure events that would violate it are dropped at compile time,
    /// together with their paired recovery. `0` allows full blackouts.
    pub min_up: Option<usize>,
    /// Scripted one-off events.
    pub events: Option<Vec<EventSpec>>,
    /// Event generators.
    pub generators: Option<Vec<GeneratorSpec>>,
}

impl ScenarioSpec {
    /// The empty (static-platform) scenario.
    pub fn static_spec() -> Self {
        ScenarioSpec {
            name: None,
            seed: 0,
            horizon: None,
            min_up: None,
            events: None,
            generators: None,
        }
    }

    /// `true` iff the scenario contains no event source (compiles to the
    /// empty timeline for every platform).
    pub fn is_static(&self) -> bool {
        self.events.as_ref().is_none_or(Vec::is_empty)
            && self.generators.as_ref().is_none_or(Vec::is_empty)
    }

    /// Short label for report rows.
    pub fn label(&self) -> String {
        if let Some(name) = &self.name {
            return name.clone();
        }
        if self.is_static() {
            return "static".into();
        }
        let n_events = self.events.as_ref().map_or(0, Vec::len);
        let kinds: Vec<&str> = self
            .generators
            .iter()
            .flatten()
            .map(|g| g.kind.as_str())
            .collect();
        if kinds.is_empty() {
            format!("scripted({n_events})")
        } else {
            format!("{}(seed={})", kinds.join("+"), self.seed)
        }
    }

    fn scripted_events(&self, num_slaves: usize) -> Result<Vec<PlatformEvent>, ScenarioError> {
        let mut out = Vec::new();
        for (i, e) in self.events.iter().flatten().enumerate() {
            if e.slave >= num_slaves {
                return Err(ScenarioError(format!(
                    "event {i}: slave index {} out of range (platform has {num_slaves} slaves)",
                    e.slave
                )));
            }
            if !(e.at.is_finite() && e.at >= 0.0) {
                return Err(ScenarioError(format!("event {i}: invalid time {}", e.at)));
            }
            let kind = match e.kind.to_ascii_lowercase().as_str() {
                "fail" => PlatformEventKind::Fail,
                "recover" => PlatformEventKind::Recover,
                "link" | "speed" => {
                    let f = e.factor.ok_or_else(|| {
                        ScenarioError(format!("event {i}: `{}` requires `factor`", e.kind))
                    })?;
                    if !(f.is_finite() && f > 0.0) {
                        return Err(ScenarioError(format!("event {i}: invalid factor {f}")));
                    }
                    if e.kind.eq_ignore_ascii_case("link") {
                        PlatformEventKind::SetLinkFactor(f)
                    } else {
                        PlatformEventKind::SetSpeedFactor(f)
                    }
                }
                other => {
                    return Err(ScenarioError(format!(
                        "event {i}: unknown kind `{other}` (fail, recover, link, speed)"
                    )))
                }
            };
            out.push(PlatformEvent {
                time: Time::new(e.at),
                slave: SlaveId(e.slave),
                kind,
            });
        }
        Ok(out)
    }

    /// Checks the platform-independent structure: generator kinds and
    /// their required parameters, the horizon (required with generators),
    /// and scripted event kinds/factors. Slave indices are checked against
    /// the platform at [`ScenarioSpec::compile`] time.
    ///
    /// `compile` calls this first; spec loaders call it eagerly so a
    /// malformed generator fails at parse time with a located error rather
    /// than mid-sweep in a worker thread (or only for the seeds that
    /// happen to reach the malformed parameter).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let gens: &[GeneratorSpec] = self.generators.as_deref().unwrap_or(&[]);
        if !gens.is_empty() {
            let horizon = self.horizon.ok_or_else(|| {
                ScenarioError("`horizon` is required when generators are present".into())
            })?;
            if !(horizon.is_finite() && horizon > 0.0) {
                return Err(ScenarioError(format!("invalid horizon {horizon}")));
            }
            for (gi, g) in gens.iter().enumerate() {
                generators::validate(g, gi)?;
            }
        }
        // Kind/factor validity of scripted events (slave range is
        // platform-dependent): compile against an unbounded platform.
        self.scripted_events(usize::MAX).map(|_| ())
    }

    /// [`ScenarioSpec::validate`], then the event budget on a platform of
    /// `num_slaves` slaves: summed over the generators, each targeted
    /// slave is expected to draw a failure and its repair per `mtbf`, a
    /// window's start and end per `period`, or one drift step per `step`
    /// over the `horizon`, and the total may not exceed 10⁷ events.
    pub fn validate_for(&self, num_slaves: usize) -> Result<(), ScenarioError> {
        self.validate()?;
        let Some(horizon) = self.horizon else {
            return Ok(()); // no generators
        };
        let mut expected = 0.0;
        for (gi, g) in self.generators.iter().flatten().enumerate() {
            let (field, value, per_interval) = generators::pace(g);
            let value = value.expect("validated above");
            let slaves = g.slaves.as_ref().map_or(num_slaves, Vec::len);
            if slaves == 0 {
                continue; // emits nothing (and 0 × an infinite ratio is NaN)
            }
            expected += slaves as f64 * per_interval * (horizon / value);
            if expected > MAX_EXPECTED_EVENTS as f64 {
                return Err(ScenarioError(format!(
                    "generator {gi} (`{}`): `{field}` = {value:?} over `horizon` = \
                     {horizon:?} on {slaves} slaves brings the expected timeline \
                     events to {expected:e}, above the limit of {MAX_EXPECTED_EVENTS}",
                    g.kind
                )));
            }
        }
        Ok(())
    }

    /// Compiles the scenario for a platform of `num_slaves` slaves into the
    /// timeline the engine consumes.
    ///
    /// A pure function of `(self, num_slaves)` — see the crate docs for the
    /// determinism contract.
    ///
    /// `min_up` is enforced as a *state filter* over the merged,
    /// time-sorted stream: a failure that would drop the number of up
    /// slaves below the floor is dropped, a recovery is kept exactly when
    /// the slave is effectively down, and redundant events are dropped. A
    /// recovery from *any* source therefore brings a slave back (kept
    /// failures are never left stranded); when failure windows from
    /// different sources overlap on one slave, the downtime ends at the
    /// earliest recovery after the kept failure.
    pub fn compile(&self, num_slaves: usize) -> Result<Timeline, ScenarioError> {
        if num_slaves == 0 {
            return Err(ScenarioError("platform has no slaves".into()));
        }
        self.validate_for(num_slaves)?;
        let mut events = self.scripted_events(num_slaves)?;

        let gens: &[GeneratorSpec] = self.generators.as_deref().unwrap_or(&[]);
        if !gens.is_empty() {
            let horizon = self.horizon.expect("validated above");
            for (gi, g) in gens.iter().enumerate() {
                events.extend(generators::expand(g, gi, self.seed, num_slaves, horizon)?);
            }
        }

        // Stable sort by time (insertion order breaks ties), then the
        // min_up state filter described above.
        events.sort_by_key(|e| e.time);
        let min_up = self.min_up.unwrap_or(1).min(num_slaves);
        let mut up_count = num_slaves;
        let mut down = vec![false; num_slaves];
        let mut kept = Vec::with_capacity(events.len());
        for e in events {
            let j = e.slave.0;
            match e.kind {
                PlatformEventKind::Fail => {
                    if down[j] || up_count <= min_up {
                        continue; // redundant, or would sink below the floor
                    }
                    down[j] = true;
                    up_count -= 1;
                    kept.push(e);
                }
                PlatformEventKind::Recover => {
                    if !down[j] {
                        continue; // redundant, or pairs a dropped failure
                    }
                    down[j] = false;
                    up_count += 1;
                    kept.push(e);
                }
                _ => kept.push(e),
            }
        }
        Ok(Timeline::new(kept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_spec_compiles_to_empty_timeline() {
        let spec = ScenarioSpec::static_spec();
        assert!(spec.is_static());
        assert_eq!(spec.compile(5).unwrap(), Timeline::EMPTY);
        assert_eq!(spec.label(), "static");
    }

    #[test]
    fn scripted_events_compile_in_order() {
        let spec = ScenarioSpec {
            events: Some(vec![
                EventSpec {
                    at: 10.0,
                    slave: 1,
                    kind: "recover".into(),
                    factor: None,
                },
                EventSpec {
                    at: 5.0,
                    slave: 1,
                    kind: "fail".into(),
                    factor: None,
                },
                EventSpec {
                    at: 2.0,
                    slave: 0,
                    kind: "speed".into(),
                    factor: Some(2.0),
                },
            ]),
            ..ScenarioSpec::static_spec()
        };
        let tl = spec.compile(2).unwrap();
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.events()[0].kind, PlatformEventKind::SetSpeedFactor(2.0));
        assert_eq!(tl.events()[1].kind, PlatformEventKind::Fail);
        assert_eq!(tl.events()[2].kind, PlatformEventKind::Recover);
    }

    #[test]
    fn rejects_bad_scripted_events() {
        let mut spec = ScenarioSpec::static_spec();
        spec.events = Some(vec![EventSpec {
            at: 1.0,
            slave: 7,
            kind: "fail".into(),
            factor: None,
        }]);
        assert!(spec.compile(2).is_err());

        spec.events = Some(vec![EventSpec {
            at: 1.0,
            slave: 0,
            kind: "melt".into(),
            factor: None,
        }]);
        assert!(spec.compile(2).is_err());

        spec.events = Some(vec![EventSpec {
            at: 1.0,
            slave: 0,
            kind: "speed".into(),
            factor: None, // missing
        }]);
        assert!(spec.compile(2).is_err());
    }

    #[test]
    fn generators_require_horizon() {
        let spec = ScenarioSpec {
            generators: Some(vec![GeneratorSpec {
                kind: "poisson-failures".into(),
                mtbf: Some(10.0),
                repair_mean: Some(2.0),
                ..GeneratorSpec::default()
            }]),
            ..ScenarioSpec::static_spec()
        };
        let err = spec.compile(3).unwrap_err();
        assert!(err.0.contains("horizon"), "{err}");
    }

    #[test]
    fn expected_events_above_the_budget_are_rejected() {
        // Each would allocate (or loop) far past memory before a run.
        let generator = |kind: &str| GeneratorSpec {
            kind: kind.into(),
            mtbf: Some(1e-300),
            repair_mean: Some(1.0),
            period: Some(1e-3),
            duration: Some(1e-4),
            step: Some(1e-3),
            sigma: Some(0.1),
            ..GeneratorSpec::default()
        };
        for (kind, field, value) in [
            ("poisson-failures", "`mtbf`", "1e-300"),
            ("maintenance", "`period`", "0.001"),
            ("speed-drift", "`step`", "0.001"),
        ] {
            let spec = ScenarioSpec {
                horizon: Some(1e308),
                generators: Some(vec![generator(kind)]),
                ..ScenarioSpec::static_spec()
            };
            let err = spec.compile(3).unwrap_err();
            for part in [field, value, "10000000"] {
                assert!(err.0.contains(part), "{kind}: {part} in {err}");
            }
        }
        // The budget is per platform: windows every 10⁻³ s over 500 s are
        // 10⁶ events a slave, inside it for one slave and twice over it
        // for 20.
        let spec = ScenarioSpec {
            horizon: Some(500.0),
            generators: Some(vec![generator("maintenance")]),
            ..ScenarioSpec::static_spec()
        };
        let err = spec.validate_for(20).unwrap_err();
        assert!(err.0.contains("20 slaves"), "{err}");
        assert!(spec.validate_for(1).is_ok());
    }

    #[test]
    fn min_up_is_enforced() {
        // Script a simultaneous blackout of both slaves; min_up = 1 must
        // keep one alive (the second failure and its recovery are dropped).
        let spec = ScenarioSpec {
            min_up: Some(1),
            events: Some(vec![
                EventSpec {
                    at: 1.0,
                    slave: 0,
                    kind: "fail".into(),
                    factor: None,
                },
                EventSpec {
                    at: 1.0,
                    slave: 1,
                    kind: "fail".into(),
                    factor: None,
                },
                EventSpec {
                    at: 2.0,
                    slave: 0,
                    kind: "recover".into(),
                    factor: None,
                },
                EventSpec {
                    at: 2.0,
                    slave: 1,
                    kind: "recover".into(),
                    factor: None,
                },
            ]),
            ..ScenarioSpec::static_spec()
        };
        let tl = spec.compile(2).unwrap();
        assert_eq!(tl.len(), 2);
        assert!(
            tl.events().iter().all(|e| e.slave == SlaveId(0)),
            "{:?}",
            tl.events()
        );

        // min_up = 0 keeps the full blackout.
        let mut blackout = spec.clone();
        blackout.min_up = Some(0);
        assert_eq!(blackout.compile(2).unwrap().len(), 4);
    }

    #[test]
    fn min_up_never_strands_a_kept_failure() {
        // Interleaved sources on one slave: P1 is busy failing [40, 55];
        // P2's first failure (at 50) is dropped by min_up = 1, and its
        // recovery at 80 must NOT be consumed in place of the kept
        // failure's own recovery: P2's kept window is [60, 70].
        let ev = |at: f64, slave: usize, kind: &str| EventSpec {
            at,
            slave,
            kind: kind.into(),
            factor: None,
        };
        let spec = ScenarioSpec {
            min_up: Some(1),
            events: Some(vec![
                ev(40.0, 0, "fail"),
                ev(55.0, 0, "recover"),
                ev(50.0, 1, "fail"),    // dropped: would leave zero up
                ev(80.0, 1, "recover"), // pairs the dropped failure
                ev(60.0, 1, "fail"),    // kept: P1 is back by then
                ev(70.0, 1, "recover"), // must end the kept window
            ]),
            ..ScenarioSpec::static_spec()
        };
        let tl = spec.compile(2).unwrap();
        let downs = tl.downtime_intervals(2, 100.0);
        assert_eq!(downs[0], vec![(40.0, 55.0)]);
        assert_eq!(downs[1], vec![(60.0, 70.0)]);
        // Kept fail/recover events strictly alternate per slave.
        for j in 0..2 {
            let kinds: Vec<_> = tl
                .events()
                .iter()
                .filter(|e| e.slave.0 == j)
                .map(|e| e.kind)
                .collect();
            for (i, k) in kinds.iter().enumerate() {
                let expect = if i % 2 == 0 {
                    PlatformEventKind::Fail
                } else {
                    PlatformEventKind::Recover
                };
                assert_eq!(*k, expect, "slave {j} event {i}");
            }
        }
    }

    #[test]
    fn validate_catches_structural_errors_without_a_platform() {
        // Missing horizon with generators.
        let spec = ScenarioSpec {
            generators: Some(vec![GeneratorSpec {
                kind: "poisson-failures".into(),
                mtbf: Some(10.0),
                repair_mean: Some(2.0),
                ..GeneratorSpec::default()
            }]),
            ..ScenarioSpec::static_spec()
        };
        assert!(spec.validate().unwrap_err().0.contains("horizon"));

        // Repair typo is caught unconditionally, not only for the seeds
        // that happen to draw a failure before the horizon.
        let rare = ScenarioSpec {
            horizon: Some(100.0),
            generators: Some(vec![GeneratorSpec {
                kind: "poisson-failures".into(),
                mtbf: Some(1e9), // essentially never fires
                repair: Some("weibul".into()),
                ..GeneratorSpec::default()
            }]),
            ..ScenarioSpec::static_spec()
        };
        let err = rare.validate().unwrap_err();
        assert!(err.0.contains("weibul"), "{err}");
        assert!(rare.compile(3).is_err(), "compile validates too");

        // Maintenance windows must start at or after zero.
        for (offset, stagger, name) in [(-1e300, None, "`offset`"), (0.0, Some(-1.0), "`stagger`")]
        {
            let windows = ScenarioSpec {
                horizon: Some(100.0),
                generators: Some(vec![GeneratorSpec {
                    kind: "maintenance".into(),
                    period: Some(40.0),
                    duration: Some(5.0),
                    offset: Some(offset),
                    stagger,
                    ..GeneratorSpec::default()
                }]),
                ..ScenarioSpec::static_spec()
            };
            let err = windows.validate().unwrap_err();
            assert!(err.0.contains(name), "{err}");
        }

        // A valid spec validates.
        assert!(ScenarioSpec::static_spec().validate().is_ok());
    }

    #[test]
    fn round_trips_through_json() {
        let spec = ScenarioSpec {
            name: Some("unit".into()),
            seed: 9,
            horizon: Some(100.0),
            min_up: Some(1),
            events: Some(vec![EventSpec {
                at: 3.0,
                slave: 0,
                kind: "fail".into(),
                factor: None,
            }]),
            generators: Some(vec![GeneratorSpec {
                kind: "maintenance".into(),
                period: Some(50.0),
                duration: Some(5.0),
                ..GeneratorSpec::default()
            }]),
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
