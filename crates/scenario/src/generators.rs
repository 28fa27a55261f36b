//! Generator expansion: Poisson failures, maintenance windows, drift walks.
//!
//! Each `(generator, slave)` pair draws from its own RNG stream derived
//! from the scenario seed and both indices, so streams never interfere:
//! adding a generator, or growing the platform, leaves every other stream's
//! draws untouched. Expansion is therefore a pure function of
//! `(spec, generator index, seed, num_slaves, horizon)`.

use crate::spec::{GeneratorSpec, ScenarioError};
use mss_sim::{PlatformEvent, PlatformEventKind, SlaveId, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// splitmix64 finalizer — decorrelates the per-stream seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn stream_rng(seed: u64, generator: usize, slave: usize) -> StdRng {
    StdRng::seed_from_u64(mix(seed
        ^ (generator as u64).wrapping_mul(0x9e37_79b9)
        ^ (slave as u64).rotate_left(32)))
}

/// Exponential draw with the given mean (inverse CDF).
fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// Weibull draw (inverse CDF): `scale · (−ln u)^(1/shape)`.
fn weibull(rng: &mut StdRng, scale: f64, shape: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    scale * (-u.ln()).powf(1.0 / shape)
}

fn positive(value: Option<f64>, name: &str, gi: usize, kind: &str) -> Result<f64, ScenarioError> {
    match value {
        Some(v) if v.is_finite() && v > 0.0 => Ok(v),
        Some(v) => Err(ScenarioError(format!(
            "generator {gi} (`{kind}`): `{name}` must be positive and finite, got {v}"
        ))),
        None => Err(ScenarioError(format!(
            "generator {gi} (`{kind}`): missing required `{name}`"
        ))),
    }
}

/// The slaves a generator targets (validated against the platform size).
fn target_slaves(
    g: &GeneratorSpec,
    gi: usize,
    num_slaves: usize,
) -> Result<Vec<usize>, ScenarioError> {
    match &g.slaves {
        None => Ok((0..num_slaves).collect()),
        Some(list) => {
            for &j in list {
                if j >= num_slaves {
                    return Err(ScenarioError(format!(
                        "generator {gi}: slave index {j} out of range \
                         (platform has {num_slaves} slaves)"
                    )));
                }
            }
            Ok(list.clone())
        }
    }
}

/// Validates a generator's kind and required parameters unconditionally —
/// unlike `expand`, whose repair-parameter checks only run when a failure
/// is actually drawn, this catches malformed specs for every seed.
pub(crate) fn validate(g: &GeneratorSpec, gi: usize) -> Result<(), ScenarioError> {
    let kind = g.kind.to_ascii_lowercase();
    match kind.as_str() {
        "poisson-failures" => {
            positive(g.mtbf, "mtbf", gi, &kind)?;
            match g.repair.as_deref().unwrap_or("exp") {
                "exp" => {
                    positive(g.repair_mean, "repair_mean", gi, &kind)?;
                }
                "weibull" => {
                    positive(g.repair_scale, "repair_scale", gi, &kind)?;
                    positive(g.shape, "shape", gi, &kind)?;
                }
                other => {
                    return Err(ScenarioError(format!(
                        "generator {gi}: unknown repair distribution `{other}` (exp, weibull)"
                    )))
                }
            }
        }
        "maintenance" => {
            let period = positive(g.period, "period", gi, &kind)?;
            let duration = positive(g.duration, "duration", gi, &kind)?;
            if duration >= period {
                return Err(ScenarioError(format!(
                    "generator {gi}: maintenance `duration` {duration} must be \
                     below `period` {period}"
                )));
            }
            // A window start far below zero never advances by `period`,
            // so its loop in `expand` would emit events without end.
            for (name, value) in [("offset", g.offset), ("stagger", g.stagger)] {
                if let Some(v) = value.filter(|v| !(v.is_finite() && *v >= 0.0)) {
                    return Err(ScenarioError(format!(
                        "generator {gi} (`{kind}`): `{name}` must be non-negative and \
                         finite, got {v:?}"
                    )));
                }
            }
        }
        "speed-drift" | "link-drift" => {
            positive(g.step, "step", gi, &kind)?;
            positive(g.sigma, "sigma", gi, &kind)?;
            let min_factor = g.min_factor.unwrap_or(0.25);
            let max_factor = g.max_factor.unwrap_or(4.0);
            if !(min_factor > 0.0 && min_factor <= max_factor && max_factor.is_finite()) {
                return Err(ScenarioError(format!(
                    "generator {gi}: invalid factor clamps [{min_factor}, {max_factor}]"
                )));
            }
        }
        other => {
            return Err(ScenarioError(format!(
                "generator {gi}: unknown kind `{other}` (poisson-failures, \
                 maintenance, speed-drift, link-drift)"
            )))
        }
    }
    Ok(())
}

/// The parameter that paces a validated generator, its value, and the
/// events one slave draws per interval of it: a failure and its repair per
/// `mtbf`, a window's start and end per `period`, one walk step per `step`.
pub(crate) fn pace(g: &GeneratorSpec) -> (&'static str, Option<f64>, f64) {
    match g.kind.to_ascii_lowercase().as_str() {
        "poisson-failures" => ("mtbf", g.mtbf, 2.0),
        "maintenance" => ("period", g.period, 2.0),
        _ => ("step", g.step, 1.0),
    }
}

/// Expands one generator over `[0, horizon]`. Callers run [`validate`]
/// first (via `ScenarioSpec::validate`), so the parameter errors below are
/// defensive only.
pub(crate) fn expand(
    g: &GeneratorSpec,
    gi: usize,
    seed: u64,
    num_slaves: usize,
    horizon: f64,
) -> Result<Vec<PlatformEvent>, ScenarioError> {
    let kind = g.kind.to_ascii_lowercase();
    let slaves = target_slaves(g, gi, num_slaves)?;
    let mut out = Vec::new();
    match kind.as_str() {
        "poisson-failures" => {
            let mtbf = positive(g.mtbf, "mtbf", gi, &kind)?;
            let repair = g.repair.as_deref().unwrap_or("exp");
            for &j in &slaves {
                let mut rng = stream_rng(seed, gi, j);
                let mut t = 0.0;
                loop {
                    t += exponential(&mut rng, mtbf);
                    if t >= horizon {
                        break;
                    }
                    out.push(fail(t, j));
                    let r = match repair {
                        "exp" => exponential(
                            &mut rng,
                            positive(g.repair_mean, "repair_mean", gi, &kind)?,
                        ),
                        "weibull" => weibull(
                            &mut rng,
                            positive(g.repair_scale, "repair_scale", gi, &kind)?,
                            positive(g.shape, "shape", gi, &kind)?,
                        ),
                        other => {
                            return Err(ScenarioError(format!(
                                "generator {gi}: unknown repair distribution `{other}` \
                                 (exp, weibull)"
                            )))
                        }
                    };
                    t += r;
                    if t < horizon {
                        out.push(recover(t, j));
                    } else {
                        break; // down past the horizon: stays down
                    }
                }
            }
        }
        "maintenance" => {
            let period = positive(g.period, "period", gi, &kind)?;
            let duration = positive(g.duration, "duration", gi, &kind)?;
            if duration >= period {
                return Err(ScenarioError(format!(
                    "generator {gi}: maintenance `duration` {duration} must be \
                     below `period` {period}"
                )));
            }
            let offset = g.offset.unwrap_or(0.0);
            let stagger = g.stagger.unwrap_or(period / num_slaves as f64);
            for &j in &slaves {
                let mut start = offset + stagger * j as f64;
                while start < horizon {
                    out.push(fail(start, j));
                    let end = start + duration;
                    if end < horizon {
                        out.push(recover(end, j));
                    }
                    start += period;
                }
            }
        }
        "speed-drift" | "link-drift" => {
            let step = positive(g.step, "step", gi, &kind)?;
            let sigma = positive(g.sigma, "sigma", gi, &kind)?;
            let min_factor = g.min_factor.unwrap_or(0.25);
            let max_factor = g.max_factor.unwrap_or(4.0);
            if !(min_factor > 0.0 && min_factor <= max_factor && max_factor.is_finite()) {
                return Err(ScenarioError(format!(
                    "generator {gi}: invalid factor clamps [{min_factor}, {max_factor}]"
                )));
            }
            for &j in &slaves {
                let mut rng = stream_rng(seed, gi, j);
                let mut log_f = 0.0f64;
                let mut t = step;
                while t < horizon {
                    log_f += rng.gen_range(-sigma..=sigma);
                    let f = log_f.exp().clamp(min_factor, max_factor);
                    let ev = if kind == "speed-drift" {
                        PlatformEventKind::SetSpeedFactor(f)
                    } else {
                        PlatformEventKind::SetLinkFactor(f)
                    };
                    out.push(PlatformEvent {
                        time: Time::new(t),
                        slave: SlaveId(j),
                        kind: ev,
                    });
                    t += step;
                }
            }
        }
        other => {
            return Err(ScenarioError(format!(
                "generator {gi}: unknown kind `{other}` (poisson-failures, \
                 maintenance, speed-drift, link-drift)"
            )))
        }
    }
    Ok(out)
}

fn fail(t: f64, j: usize) -> PlatformEvent {
    PlatformEvent {
        time: Time::new(t),
        slave: SlaveId(j),
        kind: PlatformEventKind::Fail,
    }
}

fn recover(t: f64, j: usize) -> PlatformEvent {
    PlatformEvent {
        time: Time::new(t),
        slave: SlaveId(j),
        kind: PlatformEventKind::Recover,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioSpec;

    fn poisson(seed: u64, mtbf: f64) -> ScenarioSpec {
        ScenarioSpec {
            seed,
            horizon: Some(1000.0),
            min_up: Some(1),
            generators: Some(vec![GeneratorSpec {
                kind: "poisson-failures".into(),
                mtbf: Some(mtbf),
                repair_mean: Some(10.0),
                ..GeneratorSpec::default()
            }]),
            ..ScenarioSpec::static_spec()
        }
    }

    #[test]
    fn poisson_failures_alternate_and_are_deterministic() {
        let tl = poisson(42, 100.0).compile(4).unwrap();
        assert_eq!(tl, poisson(42, 100.0).compile(4).unwrap());
        assert!(!tl.is_empty(), "1000s at mtbf 100 should see failures");
        assert_ne!(tl, poisson(43, 100.0).compile(4).unwrap());
        // Per-slave alternation: fail, recover, fail, recover ...
        for j in 0..4 {
            let kinds: Vec<_> = tl
                .events()
                .iter()
                .filter(|e| e.slave == SlaveId(j))
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
    fn higher_rate_means_more_failures() {
        let calm = poisson(42, 500.0).compile(4).unwrap().len();
        let stormy = poisson(42, 50.0).compile(4).unwrap().len();
        assert!(stormy > calm, "{stormy} vs {calm}");
    }

    #[test]
    fn adding_a_slave_preserves_other_streams() {
        // min_up can drop different events on different platforms, so
        // compare the raw per-slave streams with enforcement disabled.
        let mut relaxed = poisson(42, 100.0);
        relaxed.min_up = Some(0);
        let raw4 = relaxed.compile(4).unwrap();
        let raw5 = relaxed.compile(5).unwrap();
        for j in 0..4 {
            let a: Vec<_> = raw4
                .events()
                .iter()
                .filter(|e| e.slave == SlaveId(j))
                .collect();
            let b: Vec<_> = raw5
                .events()
                .iter()
                .filter(|e| e.slave == SlaveId(j))
                .collect();
            assert_eq!(a, b, "slave {j} stream changed with platform size");
        }
    }

    #[test]
    fn weibull_repair_is_supported() {
        let spec = ScenarioSpec {
            seed: 7,
            horizon: Some(500.0),
            generators: Some(vec![GeneratorSpec {
                kind: "poisson-failures".into(),
                mtbf: Some(50.0),
                repair: Some("weibull".into()),
                repair_scale: Some(8.0),
                shape: Some(0.7),
                ..GeneratorSpec::default()
            }]),
            ..ScenarioSpec::static_spec()
        };
        let tl = spec.compile(3).unwrap();
        assert!(!tl.is_empty());
        // Missing Weibull parameters are a clear error.
        let mut broken = spec.clone();
        broken.generators.as_mut().unwrap()[0].repair_scale = None;
        assert!(broken.compile(3).unwrap_err().0.contains("repair_scale"));
    }

    #[test]
    fn maintenance_windows_are_periodic_and_staggered() {
        let spec = ScenarioSpec {
            seed: 0,
            horizon: Some(100.0),
            min_up: Some(0),
            generators: Some(vec![GeneratorSpec {
                kind: "maintenance".into(),
                period: Some(40.0),
                duration: Some(5.0),
                offset: Some(10.0),
                stagger: Some(20.0),
                ..GeneratorSpec::default()
            }]),
            ..ScenarioSpec::static_spec()
        };
        let tl = spec.compile(2).unwrap();
        let downs = tl.downtime_intervals(2, 100.0);
        assert_eq!(downs[0], vec![(10.0, 15.0), (50.0, 55.0), (90.0, 95.0)]);
        assert_eq!(downs[1], vec![(30.0, 35.0), (70.0, 75.0)]);
    }

    #[test]
    fn drift_emits_clamped_positive_factors() {
        let spec = ScenarioSpec {
            seed: 3,
            horizon: Some(200.0),
            generators: Some(vec![
                GeneratorSpec {
                    kind: "speed-drift".into(),
                    step: Some(10.0),
                    sigma: Some(0.5),
                    ..GeneratorSpec::default()
                },
                GeneratorSpec {
                    kind: "link-drift".into(),
                    step: Some(25.0),
                    sigma: Some(0.2),
                    min_factor: Some(0.5),
                    max_factor: Some(2.0),
                    ..GeneratorSpec::default()
                },
            ]),
            ..ScenarioSpec::static_spec()
        };
        let tl = spec.compile(3).unwrap();
        let mut speed = 0;
        let mut link = 0;
        for e in tl.events() {
            match e.kind {
                PlatformEventKind::SetSpeedFactor(f) => {
                    speed += 1;
                    assert!((0.25..=4.0).contains(&f));
                }
                PlatformEventKind::SetLinkFactor(f) => {
                    link += 1;
                    assert!((0.5..=2.0).contains(&f));
                }
                _ => panic!("unexpected event {e:?}"),
            }
        }
        // 19 steps × 3 slaves and 7 steps × 3 slaves.
        assert_eq!(speed, 19 * 3);
        assert_eq!(link, 7 * 3);
    }

    #[test]
    fn unknown_generator_kind_is_rejected() {
        let spec = ScenarioSpec {
            seed: 0,
            horizon: Some(10.0),
            generators: Some(vec![GeneratorSpec {
                kind: "solar-flares".into(),
                ..GeneratorSpec::default()
            }]),
            ..ScenarioSpec::static_spec()
        };
        assert!(spec.compile(2).unwrap_err().0.contains("solar-flares"));
    }
}
