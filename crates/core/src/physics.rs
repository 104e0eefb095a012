//! Link physics: fidelity-tracked, age-aware entanglement.
//!
//! The paper's evaluation treats Bell pairs as interchangeable tokens; this
//! module makes them first-class *physical* objects when the experiment asks
//! for it. A [`PhysicsModel`] travels on [`crate::config::NetworkConfig`]:
//!
//! * [`PhysicsModel::Ideal`] — the default, and exactly today's semantics:
//!   pairs are ageless count-space tokens, nothing new is simulated and all
//!   results stay byte-identical to the pre-physics stack;
//! * [`PhysicsModel::Decoherent`] — every stored pair carries a creation
//!   timestamp and a birth fidelity. Stored pairs decay under the Werner
//!   model of [`qnet_quantum::decoherence::DecoherenceModel`]; a swap at
//!   time `t` ages both input pairs to `t` and composes them with
//!   [`qnet_quantum::swap::swap_werner_fidelity`], restarting the product's
//!   clock at the composed fidelity; an optional cutoff discards pairs that
//!   outlive their usefulness (as timed simulation events); and an optional
//!   end-to-end fidelity floor turns deliveries below threshold into a
//!   distinct failure class ([`crate::metrics::RunMetrics::fidelity_rejected_requests`]).
//!
//! Which stored pairs a consumption or swap draws is governed by the
//! [`ConsumeOrder`] knob: oldest-first (FIFO — the natural queue discipline
//! of a quantum memory) or newest-first (LIFO — sacrifice freshness
//! ordering to serve requests with the best pairs). The choice is invisible
//! under ideal physics and only shifts *which* fidelities are delivered
//! under decoherent physics; counts are unaffected.
//!
//! Serialization keeps the compatibility contract of the rest of the stack:
//! configs and campaign grids omit the physics field entirely when it is
//! `Ideal`, so pre-physics JSON round-trips byte-for-byte and legacy
//! documents deserialize with `Ideal` implied.

use qnet_quantum::decoherence::{CutoffPolicy, DecoherenceModel};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which stored pair a consumption or swap input draws from a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConsumeOrder {
    /// FIFO: the oldest stored pair is used first (drains decaying memory
    /// before it expires).
    OldestFirst,
    /// LIFO: the most recently stored pair is used first (best delivered
    /// fidelity, at the cost of letting old pairs rot to the cutoff).
    NewestFirst,
}

/// The physical model stored entanglement obeys during a run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum PhysicsModel {
    /// The paper's idealisation (and the default): pairs are ageless,
    /// noiseless tokens. Today's exact semantics — byte-identical results.
    #[default]
    Ideal,
    /// Pairs carry age and fidelity; memories decay.
    Decoherent {
        /// Fidelity of a freshly generated (elementary) pair.
        initial_fidelity: f64,
        /// Memory coherence time in seconds (the Werner-parameter 1/e time).
        coherence_time_s: f64,
        /// Discard stored pairs older than this many seconds (`None`
        /// disables the cutoff). Enforced as timed simulation events,
        /// reported through [`crate::observer::RunObserver::on_pair_expired`].
        cutoff_s: Option<f64>,
        /// Minimum end-to-end fidelity a delivery must meet; deliveries
        /// below it consume their pairs but count as fidelity-rejected
        /// instead of satisfied. `None` accepts every delivery.
        fidelity_floor: Option<f64>,
        /// Which stored pair a consumption or swap input draws.
        order: ConsumeOrder,
    },
}

impl PhysicsModel {
    /// Default birth fidelity of elementary pairs under decoherent physics,
    /// when a spec does not say otherwise (heralded entanglement sources in
    /// the Davis et al. survey's range).
    pub const DEFAULT_INITIAL_FIDELITY: f64 = 0.98;

    /// The ideal (default) model.
    pub fn ideal() -> Self {
        PhysicsModel::Ideal
    }

    /// A decoherent model with the given coherence time, the default
    /// initial fidelity, no cutoff, no floor, oldest-first consumption.
    pub fn decoherent(coherence_time_s: f64) -> Self {
        assert!(
            coherence_time_s > 0.0 && coherence_time_s.is_finite(),
            "coherence time must be positive and finite"
        );
        PhysicsModel::Decoherent {
            initial_fidelity: Self::DEFAULT_INITIAL_FIDELITY,
            coherence_time_s,
            cutoff_s: None,
            fidelity_floor: None,
            order: ConsumeOrder::OldestFirst,
        }
    }

    /// Builder: set the elementary-pair birth fidelity (decoherent models
    /// only; a no-op on `Ideal`). If a fidelity floor is already set, the
    /// derived storage cutoff is recomputed from the new birth fidelity, so
    /// the builder order does not matter.
    pub fn with_initial_fidelity(mut self, f0: f64) -> Self {
        assert!((0.25..=1.0).contains(&f0), "fidelity must be in [1/4, 1]");
        if let PhysicsModel::Decoherent {
            initial_fidelity,
            fidelity_floor,
            ..
        } = &mut self
        {
            *initial_fidelity = f0;
            if let Some(floor) = *fidelity_floor {
                self = self.with_fidelity_floor(floor);
            }
        }
        self
    }

    /// Builder: set an explicit storage-age cutoff in seconds.
    pub fn with_cutoff_age(mut self, max_age_s: f64) -> Self {
        assert!(max_age_s > 0.0, "cutoff age must be positive");
        if let PhysicsModel::Decoherent { cutoff_s, .. } = &mut self {
            *cutoff_s = max_age_s.is_finite().then_some(max_age_s);
        }
        self
    }

    /// Builder: require deliveries to meet `floor`, and derive the storage
    /// cutoff from it — pairs are discarded once a *fresh* pair of the same
    /// age would have decayed below the floor, so storage never holds pairs
    /// that cannot meet the bar on their own.
    ///
    /// # Panics
    /// Panics if `floor` is outside `[1/4, 1)` or (on a decoherent model)
    /// not strictly below the birth fidelity — such a floor would discard
    /// every pair at creation and the run could never deliver anything.
    pub fn with_fidelity_floor(mut self, floor: f64) -> Self {
        assert!(
            (0.25..1.0).contains(&floor),
            "fidelity floor must be in [1/4, 1)"
        );
        if let PhysicsModel::Decoherent {
            initial_fidelity,
            coherence_time_s,
            cutoff_s,
            fidelity_floor,
            ..
        } = &mut self
        {
            assert!(
                floor < *initial_fidelity,
                "fidelity floor {floor} must be below the initial fidelity {initial_fidelity}"
            );
            *fidelity_floor = Some(floor);
            let model = DecoherenceModel::with_coherence_time(*coherence_time_s);
            let cutoff = CutoffPolicy::from_fidelity_floor(&model, *initial_fidelity, floor);
            *cutoff_s = cutoff.max_age_s.is_finite().then_some(cutoff.max_age_s);
        }
        self
    }

    /// Builder: set the consumption order.
    pub fn with_consume_order(mut self, new_order: ConsumeOrder) -> Self {
        if let PhysicsModel::Decoherent { order, .. } = &mut self {
            *order = new_order;
        }
        self
    }

    /// True for the ideal (token) model.
    pub fn is_ideal(&self) -> bool {
        matches!(self, PhysicsModel::Ideal)
    }

    /// The decay model stored pairs obey (`DecoherenceModel::ideal()` under
    /// ideal physics).
    pub fn decoherence_model(&self) -> DecoherenceModel {
        match *self {
            PhysicsModel::Ideal => DecoherenceModel::ideal(),
            PhysicsModel::Decoherent {
                coherence_time_s, ..
            } => DecoherenceModel::with_coherence_time(coherence_time_s),
        }
    }

    /// The storage-age cutoff in seconds, if any.
    pub fn cutoff_s(&self) -> Option<f64> {
        match *self {
            PhysicsModel::Ideal => None,
            PhysicsModel::Decoherent { cutoff_s, .. } => cutoff_s,
        }
    }

    /// The delivery fidelity floor, if any.
    pub fn fidelity_floor(&self) -> Option<f64> {
        match *self {
            PhysicsModel::Ideal => None,
            PhysicsModel::Decoherent { fidelity_floor, .. } => fidelity_floor,
        }
    }

    /// Birth fidelity of elementary pairs (1.0 under ideal physics).
    pub fn initial_fidelity(&self) -> f64 {
        match *self {
            PhysicsModel::Ideal => 1.0,
            PhysicsModel::Decoherent {
                initial_fidelity, ..
            } => initial_fidelity,
        }
    }

    /// The consumption order (oldest-first under ideal physics, where it is
    /// unobservable).
    pub fn consume_order(&self) -> ConsumeOrder {
        match *self {
            PhysicsModel::Ideal => ConsumeOrder::OldestFirst,
            PhysicsModel::Decoherent { order, .. } => order,
        }
    }

    /// Parse a CLI physics spec. Grammar (the `campaign --physics` axis):
    ///
    /// * `ideal` — the default token model;
    /// * `decoherent:T2` — Werner decay with coherence time `T2` seconds;
    /// * `decoherent:T2:FLOOR` — additionally require deliveries to meet
    ///   `FLOOR`, with the storage cutoff derived from it
    ///   (see [`PhysicsModel::with_fidelity_floor`]).
    ///
    /// Unknown names fail with an error enumerating the valid specs.
    pub fn parse(spec: &str) -> Result<PhysicsModel, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        match parts[0] {
            "ideal" => {
                if parts.len() > 1 {
                    return Err(format!("{spec}: ideal takes no parameters"));
                }
                Ok(PhysicsModel::Ideal)
            }
            "decoherent" => {
                let t2: f64 = parts
                    .get(1)
                    .ok_or_else(|| format!("{spec}: decoherent needs a coherence time"))?
                    .parse()
                    .map_err(|_| format!("{spec}: bad coherence time"))?;
                if parts.len() > 3 {
                    return Err(format!("{spec}: decoherent takes at most two parameters"));
                }
                let floor: Option<f64> = parts
                    .get(2)
                    .map(|f| f.parse())
                    .transpose()
                    .map_err(|_| format!("{spec}: bad fidelity floor"))?;
                let model = PhysicsModel::Decoherent {
                    initial_fidelity: Self::DEFAULT_INITIAL_FIDELITY,
                    coherence_time_s: t2,
                    cutoff_s: None,
                    fidelity_floor: floor,
                    order: ConsumeOrder::OldestFirst,
                };
                model.check().map_err(|e| format!("{spec}: {e}"))?;
                // The floor's storage cutoff derives from the checked model.
                Ok(floor.map_or(model, |floor| model.with_fidelity_floor(floor)))
            }
            other => Err(format!(
                "unknown physics model '{other}' (valid: ideal, decoherent:T2, \
                 decoherent:T2:FLOOR; see --list-physics)"
            )),
        }
    }

    /// The value rules every runnable model satisfies, as the builders
    /// assert them: a decoherent model's coherence time is positive and
    /// finite, its birth fidelity `F0` lies in `[0.25, 1]`, its fidelity
    /// floor, if any, in `[0.25, F0)`, and its cutoff age, if any, is
    /// positive. NaN fails every rule.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            PhysicsModel::Decoherent {
                coherence_time_s: t2,
                ..
            } if !(t2 > 0.0 && t2.is_finite()) => Err(format!(
                "coherence time must be positive and finite (got {t2})"
            )),
            PhysicsModel::Decoherent {
                initial_fidelity: f0,
                ..
            } if !(0.25..=1.0).contains(&f0) => {
                Err(format!("initial fidelity must be in [0.25, 1] (got {f0})"))
            }
            PhysicsModel::Decoherent {
                cutoff_s: Some(age),
                ..
            } if age.is_nan() || age <= 0.0 => {
                Err(format!("cutoff age must be positive (got {age})"))
            }
            PhysicsModel::Decoherent {
                initial_fidelity: f0,
                fidelity_floor: Some(floor),
                ..
            } if !(0.25..f0).contains(&floor) => Err(format!(
                "fidelity floor must be in [0.25, {f0}), below the initial fidelity (got {floor})"
            )),
            _ => Ok(()),
        }
    }

    /// A compact human label (used by campaign summaries and dry runs).
    pub fn label(&self) -> String {
        match *self {
            PhysicsModel::Ideal => "ideal".to_string(),
            PhysicsModel::Decoherent {
                coherence_time_s,
                fidelity_floor,
                ..
            } => match fidelity_floor {
                Some(floor) => format!("decoherent:{coherence_time_s}:{floor}"),
                None => format!("decoherent:{coherence_time_s}"),
            },
        }
    }
}

impl fmt::Display for PhysicsModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_the_default_and_answers_ideally() {
        let p = PhysicsModel::default();
        assert!(p.is_ideal());
        assert_eq!(p.initial_fidelity(), 1.0);
        assert_eq!(p.cutoff_s(), None);
        assert_eq!(p.fidelity_floor(), None);
        assert!(p.decoherence_model().coherence_time_s.is_infinite());
        assert_eq!(p.consume_order(), ConsumeOrder::OldestFirst);
        assert_eq!(p.label(), "ideal");
    }

    #[test]
    fn decoherent_builders_compose() {
        let p = PhysicsModel::decoherent(2.0)
            .with_initial_fidelity(0.95)
            .with_consume_order(ConsumeOrder::NewestFirst);
        assert!(!p.is_ideal());
        assert_eq!(p.initial_fidelity(), 0.95);
        assert_eq!(p.consume_order(), ConsumeOrder::NewestFirst);
        assert_eq!(p.cutoff_s(), None);
        let d = p.decoherence_model();
        assert_eq!(d.coherence_time_s, 2.0);
    }

    #[test]
    fn fidelity_floor_derives_the_cutoff() {
        let p = PhysicsModel::decoherent(1.0).with_fidelity_floor(0.8);
        assert_eq!(p.fidelity_floor(), Some(0.8));
        let cutoff = p.cutoff_s().expect("finite cutoff");
        // At the cutoff age, a fresh pair decays exactly to the floor.
        let f = p
            .decoherence_model()
            .fidelity_after(p.initial_fidelity(), cutoff);
        assert!((f - 0.8).abs() < 1e-9, "cutoff {cutoff} → {f}");
    }

    #[test]
    fn builder_order_cannot_leave_a_stale_cutoff() {
        // Floor first, then a different birth fidelity: the cutoff must be
        // re-derived from the *new* fidelity, identically to the other
        // builder order.
        let a = PhysicsModel::decoherent(1.0)
            .with_fidelity_floor(0.8)
            .with_initial_fidelity(0.9);
        let b = PhysicsModel::decoherent(1.0)
            .with_initial_fidelity(0.9)
            .with_fidelity_floor(0.8);
        assert_eq!(a, b);
        let cutoff = a.cutoff_s().unwrap();
        let f = a.decoherence_model().fidelity_after(0.9, cutoff);
        assert!((f - 0.8).abs() < 1e-9, "cutoff {cutoff} → {f}");
    }

    #[test]
    #[should_panic]
    fn floor_at_or_above_birth_fidelity_panics() {
        // A floor the freshest pair cannot meet would silently discard
        // every pair at creation; refuse it loudly instead.
        let _ = PhysicsModel::decoherent(1.0)
            .with_initial_fidelity(0.5)
            .with_fidelity_floor(0.9);
    }

    #[test]
    fn explicit_cutoff_age() {
        let p = PhysicsModel::decoherent(5.0).with_cutoff_age(3.0);
        assert_eq!(p.cutoff_s(), Some(3.0));
        // Infinite cutoff disables.
        let p = PhysicsModel::decoherent(5.0).with_cutoff_age(f64::INFINITY);
        assert_eq!(p.cutoff_s(), None);
    }

    #[test]
    fn parse_grammar() {
        assert_eq!(PhysicsModel::parse("ideal").unwrap(), PhysicsModel::Ideal);
        let p = PhysicsModel::parse("decoherent:2.5").unwrap();
        assert_eq!(p.decoherence_model().coherence_time_s, 2.5);
        assert_eq!(p.fidelity_floor(), None);
        let p = PhysicsModel::parse("decoherent:2.5:0.8").unwrap();
        assert_eq!(p.fidelity_floor(), Some(0.8));
        assert!(p.cutoff_s().is_some());

        for bad in [
            "bogus",
            "decoherent",
            "decoherent:x",
            "decoherent:-1",
            "decoherent:1:1.5",
            "decoherent:1:0.99",
            "decoherent:1:0.8:9",
            "ideal:1",
        ] {
            let err = PhysicsModel::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad}");
        }
        // Unknown names enumerate the grammar.
        let err = PhysicsModel::parse("noisy").unwrap_err();
        assert!(
            err.contains("ideal") && err.contains("decoherent:T2"),
            "{err}"
        );
    }

    #[test]
    fn serialization_round_trips() {
        for p in [
            PhysicsModel::Ideal,
            PhysicsModel::decoherent(1.5),
            PhysicsModel::decoherent(1.5)
                .with_fidelity_floor(0.7)
                .with_consume_order(ConsumeOrder::NewestFirst),
        ] {
            let v = p.to_value();
            let back = PhysicsModel::from_value(&v).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    #[should_panic]
    fn non_positive_coherence_time_panics() {
        let _ = PhysicsModel::decoherent(0.0);
    }
}
