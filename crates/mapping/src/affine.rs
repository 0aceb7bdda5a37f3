//! Affine index expressions.

use std::collections::BTreeMap;
use std::fmt;

/// An affine expression `c0 + Σ ci·vi` over named integer variables.
///
/// Array subscripts in the programs the compiler handles (`i`, `j+1`,
/// `i-1`) are affine in the enclosing loop variables; the *subscript
/// analysis* of §3.2 extracts these forms, and the mapping-equation solver
/// operates on them. Subscripts that are not affine make the compiler fall
/// back to run-time resolution for the statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Affine {
    terms: BTreeMap<String, i64>,
    constant: i64,
}

impl Affine {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        Affine {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// The variable `v` with coefficient 1.
    pub fn var(v: impl Into<String>) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(v.into(), 1);
        Affine { terms, constant: 0 }
    }

    /// The constant part `c0`.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// The coefficient of `v` (0 if absent).
    pub fn coeff(&self, v: &str) -> i64 {
        self.terms.get(v).copied().unwrap_or(0)
    }

    /// Variables with non-zero coefficients.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.terms.keys().map(String::as_str)
    }

    /// Is this a constant (no variables)?
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// The value, if constant.
    pub fn as_constant(&self) -> Option<i64> {
        self.is_constant().then_some(self.constant)
    }

    /// Does `v` occur with non-zero coefficient?
    pub fn mentions(&self, v: &str) -> bool {
        self.terms.contains_key(v)
    }

    /// Pointwise sum.
    pub fn add(&self, other: &Affine) -> Affine {
        let mut terms = self.terms.clone();
        for (v, c) in &other.terms {
            let e = terms.entry(v.clone()).or_insert(0);
            *e += c;
            if *e == 0 {
                terms.remove(v);
            }
        }
        Affine {
            terms,
            constant: self.constant + other.constant,
        }
    }

    /// [`add`](Affine::add), or `None` when a coefficient or the
    /// constant overflows `i64`.
    pub fn checked_add(&self, other: &Affine) -> Option<Affine> {
        let mut terms = self.terms.clone();
        for (v, c) in &other.terms {
            let e = terms.entry(v.clone()).or_insert(0);
            *e = e.checked_add(*c)?;
            if *e == 0 {
                terms.remove(v);
            }
        }
        Some(Affine {
            terms,
            constant: self.constant.checked_add(other.constant)?,
        })
    }

    /// Pointwise difference.
    pub fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    /// Multiply every coefficient and the constant by `k`.
    pub fn scale(&self, k: i64) -> Affine {
        if k == 0 {
            return Affine::constant(0);
        }
        Affine {
            terms: self.terms.iter().map(|(v, c)| (v.clone(), c * k)).collect(),
            constant: self.constant * k,
        }
    }

    /// [`scale`](Affine::scale), or `None` when a coefficient or the
    /// constant overflows `i64`.
    pub fn checked_scale(&self, k: i64) -> Option<Affine> {
        if k == 0 {
            return Some(Affine::constant(0));
        }
        let mut terms = BTreeMap::new();
        for (v, c) in &self.terms {
            terms.insert(v.clone(), c.checked_mul(k)?);
        }
        Some(Affine {
            terms,
            constant: self.constant.checked_mul(k)?,
        })
    }

    /// Add a constant offset.
    pub fn offset(&self, k: i64) -> Affine {
        Affine {
            terms: self.terms.clone(),
            constant: self.constant + k,
        }
    }

    /// Evaluate under a variable environment.
    ///
    /// # Panics
    ///
    /// Panics if a variable is missing from `env`; the compiler only
    /// evaluates fully-bound expressions.
    pub fn eval(&self, env: &dyn Fn(&str) -> i64) -> i64 {
        self.constant + self.terms.iter().map(|(v, c)| c * env(v)).sum::<i64>()
    }

    /// Substitute `v := e`, producing a new affine expression.
    pub fn substitute(&self, v: &str, e: &Affine) -> Affine {
        match self.terms.get(v) {
            None => self.clone(),
            Some(&c) => {
                let mut rest = self.clone();
                rest.terms.remove(v);
                rest.add(&e.scale(c))
            }
        }
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                match *c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    c => write!(f, "{c}*{v}")?,
                }
                first = false;
            } else {
                let sign = if *c < 0 { "-" } else { "+" };
                let mag = c.abs();
                if mag == 1 {
                    write!(f, " {sign} {v}")?;
                } else {
                    write!(f, " {sign} {mag}*{v}")?;
                }
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant != 0 {
            let sign = if self.constant < 0 { "-" } else { "+" };
            write!(f, " {sign} {}", self.constant.abs())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_plus_const_display() {
        let e = Affine::var("j").offset(1);
        assert_eq!(e.to_string(), "j + 1");
        assert_eq!(Affine::constant(-3).to_string(), "-3");
        assert_eq!(Affine::var("i").scale(-1).to_string(), "-i");
    }

    #[test]
    fn add_cancels_terms() {
        let e = Affine::var("i").add(&Affine::var("i").scale(-1));
        assert!(e.is_constant());
        assert_eq!(e.as_constant(), Some(0));
    }

    #[test]
    fn eval_respects_env() {
        let e = Affine::var("i").scale(2).add(&Affine::var("j")).offset(5);
        let v = e.eval(&|name| match name {
            "i" => 3,
            "j" => 4,
            _ => panic!("unknown var"),
        });
        assert_eq!(v, 2 * 3 + 4 + 5);
    }

    #[test]
    fn substitute_replaces_var() {
        // (2i + j) with i := j + 1  =>  3j + 2
        let e = Affine::var("i").scale(2).add(&Affine::var("j"));
        let sub = e.substitute("i", &Affine::var("j").offset(1));
        assert_eq!(sub.coeff("j"), 3);
        assert_eq!(sub.constant_part(), 2);
        assert!(!sub.mentions("i"));
    }

    #[test]
    fn mentions_and_vars() {
        let e = Affine::var("a").add(&Affine::var("b"));
        assert!(e.mentions("a"));
        assert!(!e.mentions("c"));
        let vs: Vec<_> = e.vars().collect();
        assert_eq!(vs, vec!["a", "b"]);
    }
}
