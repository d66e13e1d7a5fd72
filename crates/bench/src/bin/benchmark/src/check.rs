//! The correctness gate: every answer the benchmark times is also checked,
//! and any mismatch fails the run.

use trainbox_core::request::{canonical_hash_of, SimOutcome, SimResponse};
use trainbox_sim::json::{self, Value};

/// Mismatches found so far, each with a message naming what differed.
#[derive(Debug, Default)]
pub struct Gate {
    mismatches: Vec<String>,
}

impl Gate {
    pub fn fail(&mut self, what: String) {
        // Keep the first few messages; the count is what gates the run.
        if self.mismatches.len() < 20 {
            eprintln!("mismatch: {what}");
        }
        self.mismatches.push(what);
    }

    /// Record `result` as a mismatch when it is an error.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(what) = result {
            self.fail(what);
        }
    }

    pub fn count(&self) -> usize {
        self.mismatches.len()
    }
}

/// FNV-1a 64 (the canonical-hash function) over an outcome's JSON, as hex:
/// the digest `expected.json` pins for each named DES question.
pub fn outcome_digest(outcome: &SimOutcome) -> String {
    let text = serde_json::to_string(outcome).expect("outcome serialization is infallible");
    format!("{:016x}", canonical_hash_of(&text))
}

fn parse(text: &str, what: &str) -> Result<Value, String> {
    json::parse(text).map_err(|e| format!("{what} is not JSON: {e}"))
}

/// Check a served `/simulate` body (or a sweep point's `response`) against
/// the answer of a direct in-process run of the same question: the outcome
/// and `config_hash` must be equal, and `degraded` must say whether the
/// server stood the analytic model in for the DES. `wall_ms` and
/// `git_describe` are provenance and are not compared.
pub fn served_matches(served: &Value, expected: &SimResponse) -> Result<(), String> {
    let want = parse(
        &serde_json::to_string(&expected.outcome).expect("outcome serialization is infallible"),
        "expected outcome",
    )?;
    let hash = served.get("config_hash").and_then(Value::as_str);
    if hash != Some(expected.config_hash.as_str()) {
        return Err(format!(
            "config_hash {hash:?} served, {} expected",
            expected.config_hash
        ));
    }
    if served.get("outcome") != Some(&want) {
        return Err(format!(
            "outcome for config_hash {} differs from a direct run",
            expected.config_hash
        ));
    }
    let degraded = served.get("degraded").and_then(Value::as_bool);
    if degraded != Some(expected.degraded) {
        return Err(format!(
            "degraded is {degraded:?}, expected {} for config_hash {}",
            expected.degraded, expected.config_hash
        ));
    }
    Ok(())
}

/// [`served_matches`] on a raw response body.
pub fn body_matches(body: &str, expected: &SimResponse) -> Result<(), String> {
    served_matches(&parse(body, "served body")?, expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trainbox_core::arch::ServerKind;
    use trainbox_core::request::SimRequest;
    use trainbox_nn::Workload;

    #[test]
    fn a_wrong_answer_trips_the_gate() {
        let req = SimRequest::analytic(ServerKind::TrainBox, 64, Workload::resnet50());
        let expected = req.run().unwrap();
        let body = serde_json::to_string(&expected).unwrap();
        let mut gate = Gate::default();
        gate.check(body_matches(&body, &expected));
        assert_eq!(gate.count(), 0, "the true answer passes");

        // Same question, another answer: a different accelerator count.
        let wrong = SimRequest::analytic(ServerKind::TrainBox, 32, Workload::resnet50())
            .run()
            .unwrap();
        let mut forged = wrong.clone();
        forged.config_hash = expected.config_hash.clone();
        gate.check(body_matches(
            &serde_json::to_string(&forged).unwrap(),
            &expected,
        ));
        assert_eq!(
            gate.count(),
            1,
            "a wrong outcome under the right hash is caught"
        );

        // The right outcome under another question's hash.
        gate.check(body_matches(
            &serde_json::to_string(&wrong).unwrap(),
            &expected,
        ));
        assert_eq!(gate.count(), 2);

        // An answer claiming to be degraded when it was not.
        let mut degraded = expected.clone();
        degraded.degraded = true;
        gate.check(body_matches(
            &serde_json::to_string(&degraded).unwrap(),
            &expected,
        ));
        gate.check(body_matches("not json", &expected));
        assert_eq!(gate.count(), 4);
    }

    #[test]
    fn digests_name_the_outcome_not_the_provenance() {
        let req = SimRequest::analytic(ServerKind::Baseline, 8, Workload::vgg19());
        let a = req.run().unwrap();
        let mut b = req.run().unwrap();
        b.wall_ms += 1.0;
        assert_eq!(outcome_digest(&a.outcome), outcome_digest(&b.outcome));
        let other = SimRequest::analytic(ServerKind::Baseline, 16, Workload::vgg19())
            .run()
            .unwrap();
        assert_ne!(outcome_digest(&a.outcome), outcome_digest(&other.outcome));
    }
}
