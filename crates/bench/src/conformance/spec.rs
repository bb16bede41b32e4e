//! The declarative scenario-spec schema.
//!
//! A spec is one JSON file under `specs/` declaring a scenario — which
//! experiment binary to run, with which arguments — plus the
//! expectations its report must satisfy. Adding a scenario (a new
//! workload, flag or platform preset) is a *data* change: no
//! new test code, just a new spec file.
//!
//! ```json
//! {
//!   "name": "fig8-serial",
//!   "figure": "fig8",
//!   "bin": "fig8_single_task",
//!   "artifact": true,
//!   "assertions": [
//!     { "StdoutContains": "Figure 8" },
//!     { "ArrayLen": ["$", 6] }
//!   ],
//!   "quick_assertions": [
//!     { "MatchesGolden": "golden/fig8_quick.json" }
//!   ]
//! }
//! ```
//!
//! `name`, `figure` and `bin` are required; everything else defaults to
//! empty/false. Unknown top-level fields and unknown assertion variants
//! are rejected loudly (mirroring `CommonArgs::reject_unknown`): a
//! mistyped key must never silently weaken a conformance check.

use serde::{DeError, Deserialize, Serialize, Value};

/// One checkable expectation over a scenario's outcome.
///
/// Assertions against the JSON artifact address fields with a dotted
/// path rooted at `$` (see [`super::diff::lookup_path`]); assertions
/// against golden files resolve their path relative to the specs
/// directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Assertion {
    /// Stdout must contain the substring.
    StdoutContains(String),
    /// Stderr must contain the substring (useful with `must_fail`).
    StderrContains(String),
    /// The JSON artifact must match the golden snapshot field by field
    /// with f64 *bit* equality; mismatches report per-field diffs.
    /// `UPDATE_GOLDEN=1` regenerates the snapshot from the artifact.
    MatchesGolden(String),
    /// The JSON artifact must equal the golden snapshot byte for byte —
    /// the cross-mode identity constraint (an execution mode is a
    /// wall-clock choice, never a result choice). Never regenerated:
    /// the referenced snapshot is owned by the reference-mode spec.
    BytesEqualGolden(String),
    /// The float at the path must equal the expected value *bitwise*.
    FieldBits(String, f64),
    /// The unsigned integer at the path must equal the expected value
    /// (job/frame/drop counts).
    FieldUInt(String, u64),
    /// The boolean at the path must equal the expected value
    /// (feasibility flags).
    FieldBool(String, bool),
    /// The string at the path must equal the expected value.
    FieldStr(String, String),
    /// The array at the path must have exactly this many elements.
    ArrayLen(String, usize),
    /// The number at the path must be `>=` the bound (paper-claim
    /// floors, e.g. a speedup or a burstiness ratio).
    FieldAtLeast(String, f64),
    /// The number at the path must be `<=` the bound.
    FieldAtMost(String, f64),
}

/// One declarative scenario: a binary invocation plus expectations.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioSpec {
    /// Unique scenario name (also the sandbox/artifact key).
    pub name: String,
    /// The paper artifact this scenario reproduces (`fig8`, `table1`,
    /// `ext`, ...) — the coverage key `docs/PAPER_MAP.md` maps.
    pub figure: String,
    /// The experiment binary to run (e.g. `fig8_single_task`).
    pub bin: String,
    /// Extra arguments appended after the budget flag.
    pub args: Vec<String>,
    /// Whether to request a JSON artifact via `--json` (required by
    /// artifact assertions).
    pub artifact: bool,
    /// Expect a *nonzero* exit (negative scenarios: a bad flag must
    /// fail loudly rather than run the default), with an error message:
    /// a stderr containing `panicked` fails the spec.
    pub must_fail: bool,
    /// Expectations checked in every mode.
    pub assertions: Vec<Assertion>,
    /// Expectations checked only under the quick budget (golden
    /// snapshots are pinned at the quick scale).
    pub quick_assertions: Vec<Assertion>,
}

/// The spec fields [`ScenarioSpec`]'s strict parser accepts.
pub const SPEC_FIELDS: &[&str] = &[
    "name",
    "figure",
    "bin",
    "args",
    "artifact",
    "must_fail",
    "assertions",
    "quick_assertions",
];

fn optional<T: Deserialize + Default>(
    entries: &[(String, Value)],
    key: &str,
) -> Result<T, DeError> {
    match entries.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_value(v),
        None => Ok(T::default()),
    }
}

// Hand-written so that optional fields default and unknown fields are
// *rejected* — the derive would silently ignore a mistyped key, which
// for a conformance spec means a check that never runs.
impl Deserialize for ScenarioSpec {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| DeError::custom("expected object for ScenarioSpec"))?;
        for (key, _) in entries {
            if !SPEC_FIELDS.contains(&key.as_str()) {
                return Err(DeError::custom(format!(
                    "unknown spec field `{key}` (known fields: {})",
                    SPEC_FIELDS.join(", ")
                )));
            }
        }
        let spec = ScenarioSpec {
            name: String::from_value(serde::get_field(entries, "name")?)?,
            figure: String::from_value(serde::get_field(entries, "figure")?)?,
            bin: String::from_value(serde::get_field(entries, "bin")?)?,
            args: optional(entries, "args")?,
            artifact: optional(entries, "artifact")?,
            must_fail: optional(entries, "must_fail")?,
            assertions: optional(entries, "assertions")?,
            quick_assertions: optional(entries, "quick_assertions")?,
        };
        if spec.name.is_empty() {
            return Err(DeError::custom("spec `name` must be non-empty"));
        }
        if spec.bin.is_empty() {
            return Err(DeError::custom("spec `bin` must be non-empty"));
        }
        if let Some(bad) = spec.artifact_assertions().find(|_| !spec.artifact) {
            return Err(DeError::custom(format!(
                "spec `{}` asserts on the JSON artifact ({bad:?}) but does not set \
                 `artifact: true`",
                spec.name
            )));
        }
        Ok(spec)
    }
}

impl ScenarioSpec {
    /// Parses one spec from JSON text, rejecting unknown fields.
    ///
    /// # Errors
    ///
    /// Returns parse/shape errors naming the offending field.
    pub fn parse(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// The assertions (across both lists) that need the JSON artifact.
    pub fn artifact_assertions(&self) -> impl Iterator<Item = &Assertion> {
        self.assertions
            .iter()
            .chain(&self.quick_assertions)
            .filter(|a| {
                !matches!(
                    a,
                    Assertion::StdoutContains(_) | Assertion::StderrContains(_)
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_defaults_the_optional_fields() {
        let spec =
            ScenarioSpec::parse(r#"{"name": "t", "figure": "fig1", "bin": "fig1_sparsity_ops"}"#)
                .unwrap();
        assert_eq!(spec.name, "t");
        assert!(spec.args.is_empty());
        assert!(!spec.artifact);
        assert!(!spec.must_fail);
        assert!(spec.assertions.is_empty());
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err =
            ScenarioSpec::parse(r#"{"name": "t", "figure": "f", "bin": "b", "assertion": []}"#)
                .unwrap_err();
        assert!(err.contains("unknown spec field `assertion`"), "{err}");
        assert!(
            err.contains("quick_assertions"),
            "lists the known fields: {err}"
        );
    }

    #[test]
    fn unknown_assertion_variants_are_rejected() {
        let err = ScenarioSpec::parse(
            r#"{"name": "t", "figure": "f", "bin": "b",
                "assertions": [{"StdoutMatches": "x"}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown variant `StdoutMatches`"), "{err}");
    }

    #[test]
    fn artifact_assertions_require_the_artifact() {
        let err = ScenarioSpec::parse(
            r#"{"name": "t", "figure": "f", "bin": "b",
                "assertions": [{"ArrayLen": ["$", 3]}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("artifact: true"), "{err}");
    }

    #[test]
    fn assertions_round_trip_through_json() {
        let all = vec![
            Assertion::StdoutContains("Figure 8".into()),
            Assertion::StderrContains("unknown".into()),
            Assertion::MatchesGolden("golden/fig8_quick.json".into()),
            Assertion::BytesEqualGolden("golden/fig8_quick.json".into()),
            Assertion::FieldBits("$.rows[0].x".into(), 0.1 + 0.2),
            Assertion::FieldUInt("$.n".into(), u64::MAX),
            Assertion::FieldBool("$.feasible".into(), true),
            Assertion::FieldStr("$.network".into(), "DOTIE".into()),
            Assertion::ArrayLen("$".into(), 6),
            Assertion::FieldAtLeast("$.speedup".into(), 1.0),
            Assertion::FieldAtMost("$.degradation".into(), 0.5),
        ];
        let json = serde_json::to_string(&all).unwrap();
        let back: Vec<Assertion> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, all);
        // Newtype variants inline their payload; tuple variants are
        // arrays — both externally tagged.
        assert!(json.contains("{\"StdoutContains\":\"Figure 8\"}"));
        assert!(json.contains("{\"ArrayLen\":[\"$\",6]}"));
    }
}
