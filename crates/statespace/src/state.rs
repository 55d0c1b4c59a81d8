use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

use crate::{StateSpaceError, VarId, VarSpec};

/// Declaration of a device's state space: an ordered list of variables.
///
/// Schemas are cheap to clone (the variable list is shared) and are attached
/// to every [`State`] so that states from different spaces cannot be mixed up
/// accidentally.
///
/// # Example
///
/// ```
/// use apdm_statespace::StateSchema;
///
/// let schema = StateSchema::builder()
///     .var("altitude", 0.0, 500.0)
///     .var("battery", 0.0, 1.0)
///     .build();
/// assert_eq!(schema.len(), 2);
/// assert_eq!(schema.index_of("battery"), Some(1.into()));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateSchema {
    vars: Arc<Vec<VarSpec>>,
}

impl StateSchema {
    /// Start building a schema.
    pub fn builder() -> StateSchemaBuilder {
        StateSchemaBuilder { vars: Vec::new() }
    }

    /// Construct a schema directly from variable specs.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::DuplicateVar`] if two variables share a
    /// name.
    pub fn from_vars(vars: Vec<VarSpec>) -> Result<Self, StateSpaceError> {
        for (i, v) in vars.iter().enumerate() {
            if vars[..i].iter().any(|w| w.name() == v.name()) {
                return Err(StateSpaceError::DuplicateVar(v.name().to_string()));
            }
        }
        Ok(StateSchema {
            vars: Arc::new(vars),
        })
    }

    /// Number of state variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when the schema declares no variables.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The variable specs, in declaration order.
    pub fn vars(&self) -> &[VarSpec] {
        &self.vars
    }

    /// Look up a variable spec by id.
    pub fn var(&self, id: VarId) -> Option<&VarSpec> {
        self.vars.get(id.0)
    }

    /// Find a variable's id by name.
    pub fn index_of(&self, name: &str) -> Option<VarId> {
        self.vars.iter().position(|v| v.name() == name).map(VarId)
    }

    /// Construct a [`State`] in this schema, validating bounds.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::DimensionMismatch`] when `values` has the
    /// wrong arity and [`StateSpaceError::OutOfBounds`] when any component is
    /// outside its variable's bounds or non-finite.
    pub fn state(&self, values: &[f64]) -> Result<State, StateSpaceError> {
        if values.len() != self.len() {
            return Err(StateSpaceError::DimensionMismatch {
                expected: self.len(),
                actual: values.len(),
            });
        }
        for (spec, &value) in self.vars.iter().zip(values) {
            if !value.is_finite() || !spec.contains(value) {
                return Err(StateSpaceError::OutOfBounds {
                    var: spec.name().to_string(),
                    value,
                    lo: spec.lo(),
                    hi: spec.hi(),
                });
            }
        }
        Ok(State {
            schema: self.clone(),
            values: values.to_vec(),
        })
    }

    /// Construct a [`State`] holding `values` exactly as given: the arity is
    /// checked, the bounds are not, just as deserializing a `State` accepts
    /// any values. For rebuilding a state from its schema and values after
    /// they were stored apart.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::DimensionMismatch`] when `values` has the
    /// wrong arity.
    pub fn state_verbatim(&self, values: Vec<f64>) -> Result<State, StateSpaceError> {
        if values.len() != self.len() {
            return Err(StateSpaceError::DimensionMismatch {
                expected: self.len(),
                actual: values.len(),
            });
        }
        Ok(State {
            schema: self.clone(),
            values,
        })
    }

    /// Construct a [`State`], clamping each component into bounds instead of
    /// failing. Non-finite components clamp to the lower bound.
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong arity; clamping cannot repair arity.
    pub fn state_clamped(&self, values: &[f64]) -> State {
        assert_eq!(
            values.len(),
            self.len(),
            "state has {} components but schema declares {}",
            values.len(),
            self.len()
        );
        let values = self
            .vars
            .iter()
            .zip(values)
            .map(|(spec, &v)| {
                if v.is_finite() {
                    spec.clamp(v)
                } else {
                    spec.lo()
                }
            })
            .collect();
        State {
            schema: self.clone(),
            values,
        }
    }

    /// The state at every variable's lower bound (a canonical origin).
    pub fn origin(&self) -> State {
        let values = self.vars.iter().map(|v| v.lo()).collect();
        State {
            schema: self.clone(),
            values,
        }
    }

    /// The state at the midpoint of every variable's range.
    pub fn midpoint(&self) -> State {
        let values = self.vars.iter().map(|v| (v.lo() + v.hi()) / 2.0).collect();
        State {
            schema: self.clone(),
            values,
        }
    }
}

/// Builder for [`StateSchema`].
#[derive(Debug, Default)]
pub struct StateSchemaBuilder {
    vars: Vec<VarSpec>,
}

impl StateSchemaBuilder {
    /// Add a variable with inclusive bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are invalid or the name duplicates an earlier
    /// variable; schema construction errors are programming errors.
    pub fn var(mut self, name: impl Into<String>, lo: f64, hi: f64) -> Self {
        let spec = VarSpec::new(name, lo, hi).expect("invalid variable bounds");
        assert!(
            !self.vars.iter().any(|v| v.name() == spec.name()),
            "duplicate variable `{}`",
            spec.name()
        );
        self.vars.push(spec);
        self
    }

    /// Finish building.
    pub fn build(self) -> StateSchema {
        StateSchema {
            vars: Arc::new(self.vars),
        }
    }
}

/// A point in a device's state space.
///
/// Carries its [`StateSchema`] so operations can validate dimensionality and
/// bounds. Component access is by [`VarId`] or name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct State {
    schema: StateSchema,
    values: Vec<f64>,
}

impl State {
    /// The schema this state belongs to.
    pub fn schema(&self) -> &StateSchema {
        &self.schema
    }

    /// Raw component values in declaration order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Component by variable id.
    pub fn get(&self, id: VarId) -> Option<f64> {
        self.values.get(id.0).copied()
    }

    /// Component by variable name.
    pub fn get_by_name(&self, name: &str) -> Option<f64> {
        self.schema.index_of(name).and_then(|id| self.get(id))
    }

    /// Return a new state with one component replaced (clamped into bounds).
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::UnknownVar`] when `id` is out of range.
    pub fn with(&self, id: VarId, value: f64) -> Result<State, StateSpaceError> {
        let spec = self
            .schema
            .var(id)
            .ok_or_else(|| StateSpaceError::UnknownVar(id.to_string()))?;
        let mut values = self.values.clone();
        values[id.0] = if value.is_finite() {
            spec.clamp(value)
        } else {
            spec.lo()
        };
        Ok(State {
            schema: self.schema.clone(),
            values,
        })
    }

    /// Apply a delta, clamping each component into bounds.
    pub fn apply(&self, delta: &StateDelta) -> State {
        let mut values = self.values.clone();
        for &(id, dv) in &delta.changes {
            if let Some(spec) = self.schema.var(id) {
                let v = values[id.0] + dv;
                values[id.0] = if v.is_finite() {
                    spec.clamp(v)
                } else {
                    spec.lo()
                };
            }
        }
        State {
            schema: self.schema.clone(),
            values,
        }
    }

    /// Euclidean distance to another state in the same schema.
    ///
    /// # Panics
    ///
    /// Panics if the states belong to different schemas.
    pub fn distance(&self, other: &State) -> f64 {
        assert_eq!(
            self.schema, other.schema,
            "states belong to different schemas"
        );
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Distance normalized per-variable by the variable's span, so that
    /// heterogeneous units compare fairly. Result is in `[0, sqrt(N)]`.
    pub fn normalized_distance(&self, other: &State) -> f64 {
        assert_eq!(
            self.schema, other.schema,
            "states belong to different schemas"
        );
        self.schema
            .vars()
            .iter()
            .zip(self.values.iter().zip(&other.values))
            .map(|(spec, (a, b))| {
                let span = spec.span();
                if span == 0.0 {
                    0.0
                } else {
                    let d = (a - b) / span;
                    d * d
                }
            })
            .sum::<f64>()
            .sqrt()
    }

    /// The delta that transforms `self` into `other`.
    ///
    /// # Panics
    ///
    /// Panics if the states belong to different schemas.
    pub fn delta_to(&self, other: &State) -> StateDelta {
        assert_eq!(
            self.schema, other.schema,
            "states belong to different schemas"
        );
        let changes = self
            .values
            .iter()
            .zip(&other.values)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| (VarId(i), b - a))
            .collect();
        StateDelta { changes }
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (spec, v)) in self.schema.vars().iter().zip(&self.values).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={v:.3}", spec.name())?;
        }
        write!(f, ")")
    }
}

/// A sparse change to a subset of state variables.
///
/// Deltas are how actuator invocations are modelled: an action's effect on a
/// device is the delta it applies to the device state (Section V: "the result
/// of the action ... effectively moves the device to another state").
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StateDelta {
    changes: Vec<(VarId, f64)>,
}

impl StateDelta {
    /// An empty delta (the identity transition).
    pub fn empty() -> Self {
        StateDelta::default()
    }

    /// A delta changing a single variable.
    pub fn single(id: VarId, dv: f64) -> Self {
        StateDelta {
            changes: vec![(id, dv)],
        }
    }

    /// Add a change to this delta (builder style).
    pub fn and(mut self, id: VarId, dv: f64) -> Self {
        self.changes.push((id, dv));
        self
    }

    /// The list of `(variable, change)` pairs.
    pub fn changes(&self) -> &[(VarId, f64)] {
        &self.changes
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.changes.iter().all(|(_, dv)| *dv == 0.0)
    }

    /// L1 magnitude of the delta.
    pub fn magnitude(&self) -> f64 {
        self.changes.iter().map(|(_, dv)| dv.abs()).sum()
    }

    /// Scale every change by `factor`.
    pub fn scaled(&self, factor: f64) -> StateDelta {
        StateDelta {
            changes: self
                .changes
                .iter()
                .map(|&(id, dv)| (id, dv * factor))
                .collect(),
        }
    }
}

impl FromIterator<(VarId, f64)> for StateDelta {
    fn from_iter<T: IntoIterator<Item = (VarId, f64)>>(iter: T) -> Self {
        StateDelta {
            changes: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema2() -> StateSchema {
        StateSchema::builder()
            .var("a", 0.0, 10.0)
            .var("b", -5.0, 5.0)
            .build()
    }

    #[test]
    fn state_construction_validates_arity() {
        let s = schema2();
        assert!(matches!(
            s.state(&[1.0]),
            Err(StateSpaceError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn state_construction_validates_bounds() {
        let s = schema2();
        assert!(matches!(
            s.state(&[11.0, 0.0]),
            Err(StateSpaceError::OutOfBounds { .. })
        ));
        assert!(matches!(
            s.state(&[f64::NAN, 0.0]),
            Err(StateSpaceError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn state_verbatim_checks_arity_but_not_bounds() {
        let s = schema2();
        let state = s.state_verbatim(vec![11.0, 0.0]).unwrap();
        assert_eq!(state.values(), &[11.0, 0.0]);
        assert!(std::ptr::eq(state.schema().vars(), s.vars()));
        assert!(matches!(
            s.state_verbatim(vec![1.0, 2.0, 3.0]),
            Err(StateSpaceError::DimensionMismatch {
                expected: 2,
                actual: 3
            })
        ));
    }

    #[test]
    fn state_clamped_repairs_out_of_bounds() {
        let s = schema2();
        let st = s.state_clamped(&[12.0, -9.0]);
        assert_eq!(st.values(), &[10.0, -5.0]);
    }

    #[test]
    fn from_vars_rejects_duplicates() {
        let vars = vec![
            VarSpec::new("x", 0.0, 1.0).unwrap(),
            VarSpec::new("x", 0.0, 2.0).unwrap(),
        ];
        assert!(matches!(
            StateSchema::from_vars(vars),
            Err(StateSpaceError::DuplicateVar(_))
        ));
    }

    #[test]
    fn apply_delta_clamps() {
        let s = schema2();
        let st = s.state(&[9.0, 0.0]).unwrap();
        let moved = st.apply(&StateDelta::single(VarId(0), 5.0));
        assert_eq!(moved.get(VarId(0)), Some(10.0));
    }

    #[test]
    fn delta_roundtrip() {
        let s = schema2();
        let a = s.state(&[1.0, 1.0]).unwrap();
        let b = s.state(&[4.0, -2.0]).unwrap();
        let d = a.delta_to(&b);
        assert_eq!(a.apply(&d), b);
    }

    #[test]
    fn distance_is_euclidean() {
        let s = schema2();
        let a = s.state(&[0.0, 0.0]).unwrap();
        let b = s.state(&[3.0, 4.0]).unwrap();
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_distance_respects_spans() {
        let s = schema2();
        let a = s.state(&[0.0, -5.0]).unwrap();
        let b = s.state(&[10.0, 5.0]).unwrap();
        // Both vars move their full span -> sqrt(2).
        assert!((a.normalized_distance(&b) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn get_by_name() {
        let s = schema2();
        let st = s.state(&[2.0, 3.0]).unwrap();
        assert_eq!(st.get_by_name("b"), Some(3.0));
        assert_eq!(st.get_by_name("zz"), None);
    }

    #[test]
    fn with_replaces_and_clamps() {
        let s = schema2();
        let st = s.state(&[2.0, 3.0]).unwrap();
        let st2 = st.with(VarId(1), 99.0).unwrap();
        assert_eq!(st2.get(VarId(1)), Some(5.0));
        assert!(st.with(VarId(7), 0.0).is_err());
    }

    #[test]
    fn delta_magnitude_and_scaling() {
        let d = StateDelta::single(VarId(0), 2.0).and(VarId(1), -3.0);
        assert_eq!(d.magnitude(), 5.0);
        assert_eq!(d.scaled(0.5).magnitude(), 2.5);
        assert!(!d.is_empty());
        assert!(StateDelta::empty().is_empty());
    }

    #[test]
    fn display_formats_named_components() {
        let s = schema2();
        let st = s.state(&[1.0, 2.0]).unwrap();
        assert_eq!(st.to_string(), "(a=1.000, b=2.000)");
    }

    #[test]
    fn origin_and_midpoint() {
        let s = schema2();
        assert_eq!(s.origin().values(), &[0.0, -5.0]);
        assert_eq!(s.midpoint().values(), &[5.0, 0.0]);
    }
}
